import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dexter
import simulation_oracle as oracle
from dexter import ar_noise
from dexter.ar_noise import (
    ARProcessSpec,
    CorrelationMode,
    _recurse,
    generate_matrix,
    generate_series,
    spliced_matrix,
    spliced_series,
    stationary_std,
)
from dexter.errors import SpliceError, StationarityError

LONG = 100_000


def sample_acf(x, lag):
    xc = x - x.mean()
    return float(np.sum(xc[lag:] * xc[:-lag]) / np.sum(xc * xc))


def test_white_noise_statistics():
    spec = ARProcessSpec.no_correlation(sigma=1.0)
    y = generate_series(spec, LONG, seed=3)
    assert abs(y.mean()) < 0.02
    assert abs(sample_acf(y, 1)) < 0.02


def test_one_step_lag1_matches_phi():
    y = generate_series(ARProcessSpec.one_step(0.95), LONG, seed=42)
    assert abs(sample_acf(y, 1) - 0.95) < 0.02


def test_one_step_stationary_variance():
    phi = 0.95
    y = generate_series(ARProcessSpec.one_step(phi), LONG, seed=42)
    theory = 1.0 / (1.0 - phi * phi)
    assert abs(y.var() - theory) / theory < 0.05
    assert abs(stationary_std(ARProcessSpec.one_step(phi)) - np.sqrt(theory)) < 1e-12


def test_two_step_against_independent_recursion():
    # Oracle: a separately coded AR(2) recursion with phi1 = 0, its own
    # burn-in convention, and its own RNG stream.
    rng = np.random.default_rng(123)
    n, burn, phi2 = LONG, 500, 0.95
    eps = rng.normal(0, 1, n + burn)
    z = np.zeros(n + burn)
    for t in range(2, n + burn):
        z[t] = phi2 * z[t - 2] + eps[t]
    z = z[burn:]
    assert abs(sample_acf(z, 2) - 0.95) < 0.02  # oracle confirms theory

    y = generate_series(ARProcessSpec.two_step(phi2), LONG, seed=7)
    assert abs(sample_acf(y, 2) - sample_acf(z, 2)) < 0.03
    assert abs(sample_acf(y, 2) - 0.95) < 0.02
    assert abs(sample_acf(y, 1)) < 0.05


def test_two_step_partial_autocorrelation():
    # PACF via Yule-Walker on empirical autocorrelations: lag 1 near 0,
    # lag 2 near phi2.
    y = generate_series(ARProcessSpec.two_step(0.95), LONG, seed=11)
    r1, r2 = sample_acf(y, 1), sample_acf(y, 2)
    pacf1 = r1
    pacf2 = (r2 - r1 * r1) / (1.0 - r1 * r1)
    assert abs(pacf1) < 0.05
    assert abs(pacf2 - 0.95) < 0.05


@pytest.mark.parametrize("phi", [1.0, -1.0, 1.3])
def test_nonstationary_coefficients_rejected(phi):
    with pytest.raises(StationarityError):
        ARProcessSpec.one_step(phi)
    with pytest.raises(StationarityError):
        ARProcessSpec.two_step(phi)


def test_mode_coefficient_constraints():
    with pytest.raises(StationarityError):
        ARProcessSpec(CorrelationMode.NO_CORRELATION, (0.5,))
    with pytest.raises(StationarityError):
        ARProcessSpec(CorrelationMode.ONE_STEP, ())
    with pytest.raises(StationarityError):
        ARProcessSpec(CorrelationMode.TWO_STEP, (0.1, 0.5))
    with pytest.raises(StationarityError):
        ARProcessSpec.one_step(0.5, sigma=0.0)


def test_series_determinism_bytes():
    spec = ARProcessSpec.one_step(0.6)
    a = generate_series(spec, 1000, seed=99)
    b = generate_series(spec, 1000, seed=99)
    assert a.tobytes() == b.tobytes()
    assert generate_series(spec, 1000, seed=100).tobytes() != a.tobytes()


def test_magnitude_scale_multiplies_series():
    base = generate_series(ARProcessSpec.one_step(0.6), 500, seed=5)
    scaled = generate_series(ARProcessSpec.one_step(0.6, scale=0.5), 500, seed=5)
    assert np.allclose(scaled, 0.5 * base)


def test_length_validation():
    with pytest.raises(ValueError):
        generate_series(ARProcessSpec.no_correlation(), 0, seed=1)


def test_matrix_shape_and_determinism():
    spec = ARProcessSpec.one_step(0.8)
    m1 = generate_matrix(spec, 4, 200, seed=7)
    m2 = generate_matrix(spec, 4, 200, seed=7)
    assert isinstance(m1, np.ndarray) and m1.dtype == np.float64 and m1.shape == (4, 200)
    assert m1.tobytes() == m2.tobytes()


def test_package_exports_resolve_and_noise_matrices_are_arrays():
    assert all(hasattr(dexter, name) for name in dexter.__all__)
    assert "NoiseMatrix" not in dexter.__all__
    assert not hasattr(dexter, "NoiseMatrix") and not hasattr(ar_noise, "NoiseMatrix")


def test_matrix_rows_independent():
    m = generate_matrix(ARProcessSpec.no_correlation(), 2, LONG, seed=21)
    r0, r1 = m
    corr = np.corrcoef(r0, r1)[0, 1]
    assert abs(corr) < 0.02


def test_matrix_row_stability_under_dimension_growth():
    spec = ARProcessSpec.one_step(0.8)
    small = generate_matrix(spec, 2, 300, seed=9)
    large = generate_matrix(spec, 5, 300, seed=9)
    assert np.array_equal(small, large[:2])


def test_splice_prefix_bit_identical_to_clean_series():
    pre = ARProcessSpec.no_correlation()
    post = ARProcessSpec.one_step(0.95)
    clean = generate_series(pre, 200, seed=5)
    spliced = spliced_series(pre, post, 100, 200, seed=5)
    assert np.array_equal(clean[:100], spliced[:100])
    assert not np.array_equal(clean[100:], spliced[100:])


def test_splice_boundary_last_sample_only():
    pre = ARProcessSpec.no_correlation()
    post = ARProcessSpec.one_step(0.95)
    clean = generate_series(pre, 200, seed=13)
    spliced = spliced_series(pre, post, 199, 200, seed=13)
    assert np.array_equal(clean[:199], spliced[:199])


def test_splice_correlation_switch_at_injection():
    # Mirrors the illustration setup: injection at t = 48, white noise
    # before, 1-step correlation (phi = 0.95) after.
    pre = ARProcessSpec.no_correlation()
    post = ARProcessSpec.one_step(0.95)
    pre_acs, post_acs = [], []
    for seed in range(100):
        z = spliced_series(pre, post, 48, 200, seed=seed)
        pre_acs.append(sample_acf(z[:48], 1))
        post_acs.append(sample_acf(z[48:], 1))
    assert abs(np.mean(pre_acs)) < 0.05
    assert abs(np.mean(post_acs) - 0.95) < 0.05


def test_splice_magnitude_continuity_window_probe():
    # 20-step sample stds around the injection; at moderate correlation the
    # within-window spread is an honest magnitude probe.
    pre = ARProcessSpec.no_correlation()
    for post in (ARProcessSpec.one_step(0.6), ARProcessSpec.two_step(0.6)):
        ratios = []
        for seed in range(100):
            z = spliced_series(pre, post, 100, 200, seed=seed)
            ratios.append(z[80:100].std() / z[100:120].std())
        mean_ratio = float(np.mean(ratios))
        assert max(mean_ratio, 1.0 / mean_ratio) < 1.5


def test_splice_marginal_std_continuity_strong_correlation():
    # At phi = 0.95 consecutive samples cluster, so within-window spread
    # conflates correlation with magnitude; the marginal (across-seed) std
    # at fixed offsets is the faithful probe of "noise level is constant".
    pre = ARProcessSpec.no_correlation()
    post = ARProcessSpec.one_step(0.95)
    vals = np.array([spliced_series(pre, post, 100, 200, seed=s) for s in range(300)])
    pre_std = vals[:, 80:100].std(axis=0).mean()
    post_std = vals[:, 100:120].std(axis=0).mean()
    ratio = pre_std / post_std
    assert max(ratio, 1.0 / ratio) < 1.5


def test_splice_same_spec_statistically_indistinguishable():
    spec = ARProcessSpec.one_step(0.95)
    spliced_acs = [sample_acf(spliced_series(spec, spec, 100, 400, seed=s), 1) for s in range(100)]
    plain_acs = [sample_acf(generate_series(spec, 400, seed=s), 1) for s in range(100)]
    assert abs(np.mean(spliced_acs) - np.mean(plain_acs)) < 0.02


def test_splice_validation():
    pre = ARProcessSpec.no_correlation(sigma=1.0)
    post = ARProcessSpec.one_step(0.9, sigma=2.0)
    with pytest.raises(SpliceError):
        spliced_series(pre, post, 50, 100, seed=0)
    post_scale = ARProcessSpec.one_step(0.9, scale=2.0)
    with pytest.raises(SpliceError):
        spliced_series(pre, post_scale, 50, 100, seed=0)
    ok = ARProcessSpec.one_step(0.9)
    with pytest.raises(SpliceError):
        spliced_series(pre, ok, 0, 100, seed=0)
    with pytest.raises(SpliceError):
        spliced_series(pre, ok, 100, 100, seed=0)


def test_spliced_matrix_rows_match_spliced_series_seeding():
    pre = ARProcessSpec.no_correlation()
    post = ARProcessSpec.two_step(0.8)
    mat = spliced_matrix(pre, post, 60, 3, 150, seed=17)
    clean = generate_matrix(pre, 3, 150, seed=17)
    assert mat.shape == (3, 150)
    assert np.array_equal(mat[:, :60], clean[:, :60])


@settings(max_examples=200, deadline=None)
@given(
    mode=st.sampled_from(CorrelationMode),
    phi=st.floats(-0.99, 0.99),
    mu=st.floats(-5.0, 5.0),
    length=st.integers(1, 300),
    start_fraction=st.floats(0.0, 1.0),
    log_scale=st.integers(-6, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_recurse_equals_oracle_bit_for_bit(mode, phi, mu, length, start_fraction, log_scale, seed):
    # The recursion as first written (tests/simulation_oracle.py), on every
    # mode, from any start: the prefix before ``start`` is given lags.
    coefficients = {CorrelationMode.NO_CORRELATION: (), CorrelationMode.ONE_STEP: (phi,),
                    CorrelationMode.TWO_STEP: (0.0, phi)}[mode]
    rng = np.random.default_rng(seed)
    innovations = rng.normal(size=length) * 10.0 ** log_scale
    prefix = rng.normal(size=length) * 10.0 ** log_scale
    start = int(start_fraction * length)
    got, want = prefix.copy(), prefix.copy()
    _recurse(got, coefficients, mu, innovations, start)
    oracle.recurse(want, coefficients, mu, innovations, start)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=200, deadline=None)
@given(
    modes=st.tuples(st.sampled_from(CorrelationMode), st.sampled_from(CorrelationMode)),
    phis=st.tuples(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99)),
    mu=st.floats(-5.0, 5.0),
    sigma=st.floats(0.01, 10.0),
    length=st.integers(2, 300),
    injection_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 1),
)
def test_spliced_series_equals_oracle_bit_for_bit(modes, phis, mu, sigma, length,
                                                  injection_fraction, seed):
    # The splice as first written (tests/simulation_oracle.py) also ran the
    # pre-injection recursion over the samples the post one overwrites.
    pre, post = (ARProcessSpec(mode, {CorrelationMode.NO_CORRELATION: (),
                                      CorrelationMode.ONE_STEP: (phi,),
                                      CorrelationMode.TWO_STEP: (0.0, phi)}[mode], mu, sigma)
                 for mode, phi in zip(modes, phis))
    injection_step = min(length - 1, 1 + int(injection_fraction * (length - 1)))
    got = spliced_series(pre, post, injection_step, length, seed)
    want = oracle.spliced_series(pre, post, injection_step, length, seed)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
