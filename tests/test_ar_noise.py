import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dexter
import simulation_oracle as oracle
from dexter import ar_noise
from dexter.ar_noise import ARProcessSpec, CorrelationMode, _recurse, spliced_matrix, spliced_series
from dexter.errors import ConfigError

LONG = 100_000


def sample_acf(x, lag):
    xc = x - x.mean()
    return float(np.sum(xc[lag:] * xc[:-lag]) / np.sum(xc * xc))


def test_white_noise_statistics():
    spec = ARProcessSpec.no_correlation(sigma=1.0)
    y = spliced_series(spec, 1, LONG, seed=3)
    assert abs(y.mean()) < 0.02
    assert abs(sample_acf(y, 1)) < 0.02


def test_one_step_lag1_matches_phi():
    y = spliced_series(ARProcessSpec.one_step(0.95), 1, LONG, seed=42)
    assert abs(sample_acf(y, 1) - 0.95) < 0.02


def test_one_step_stationary_variance():
    # The correlated process keeps the white noise's variance sigma^2.
    sigma = 2.0
    y = spliced_series(ARProcessSpec.one_step(0.95, sigma=sigma), 1, LONG, seed=42)
    theory = sigma * sigma
    assert abs(y.var() - theory) / theory < 0.05


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

    y = spliced_series(ARProcessSpec.two_step(phi2), 1, LONG, seed=7)
    assert abs(sample_acf(y, 2) - sample_acf(z, 2)) < 0.03
    assert abs(sample_acf(y, 2) - 0.95) < 0.02
    assert abs(sample_acf(y, 1)) < 0.05


def test_two_step_partial_autocorrelation():
    # PACF via Yule-Walker on empirical autocorrelations: lag 1 near 0,
    # lag 2 near phi2.
    y = spliced_series(ARProcessSpec.two_step(0.95), 1, LONG, seed=11)
    r1, r2 = sample_acf(y, 1), sample_acf(y, 2)
    pacf1 = r1
    pacf2 = (r2 - r1 * r1) / (1.0 - r1 * r1)
    assert abs(pacf1) < 0.05
    assert abs(pacf2 - 0.95) < 0.05


@pytest.mark.parametrize("phi", [1.0, -1.0, 1.3])
def test_nonstationary_coefficients_rejected(phi):
    with pytest.raises(ConfigError):
        ARProcessSpec.one_step(phi)
    with pytest.raises(ConfigError):
        ARProcessSpec.two_step(phi)


def test_mode_coefficient_constraints():
    # phi means nothing without correlation and is stored as 0.
    assert ARProcessSpec("no_correlation", 0.5) == ARProcessSpec.no_correlation()
    assert ARProcessSpec("two_step", 0.5).phi == 0.5
    with pytest.raises(ConfigError, match="phi"):
        ARProcessSpec(CorrelationMode.ONE_STEP, float("nan"))
    with pytest.raises(ConfigError, match="innovation_sigma"):
        ARProcessSpec.one_step(0.5, sigma=0.0)
    with pytest.raises(ConfigError, match="magnitude_scale"):
        ARProcessSpec.two_step(0.5, scale=-1.0)
    with pytest.raises(ConfigError, match="^correlation_mode must be one of"):
        ARProcessSpec("three_step", 0.5)


@pytest.mark.parametrize("args, field", [
    (("one_step", "0.5"), "phi"), (("bogus", 0.5), "correlation_mode"), ((3, 0.5), "correlation_mode"),
    (("one_step", True), "phi"), (("one_step", 0.5, None), "innovation_sigma"),
    (("one_step", 0.5, 1.0, float("inf")), "magnitude_scale"), (("two_step", 10**400), "phi"),
    (("one_step", 0.5, 10**400), "innovation_sigma"),
])
def test_spec_values_must_be_finite_numbers_and_modes(args, field):
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        ARProcessSpec(*args)


def test_spec_takes_numpy_scalars_as_floats():
    spec = ARProcessSpec("one_step", np.float64(0.5), np.float32(2.0), np.int64(3))
    assert spec == ARProcessSpec.one_step(0.5, sigma=2.0, scale=3.0)
    assert all(type(v) is float for v in (spec.phi, spec.innovation_sigma, spec.magnitude_scale))


def test_series_determinism_bytes():
    spec = ARProcessSpec.one_step(0.6)
    a = spliced_series(spec, 1, 1000, seed=99)
    b = spliced_series(spec, 1, 1000, seed=99)
    assert a.tobytes() == b.tobytes()
    assert spliced_series(spec, 1, 1000, seed=100).tobytes() != a.tobytes()


def test_magnitude_scale_multiplies_series():
    base = spliced_series(ARProcessSpec.one_step(0.6), 1, 500, seed=5)
    scaled = spliced_series(ARProcessSpec.one_step(0.6, scale=0.5), 1, 500, seed=5)
    assert np.allclose(scaled, 0.5 * base)


def test_length_validation():
    with pytest.raises(ValueError):
        spliced_series(ARProcessSpec.no_correlation(), None, 0, seed=1)
    with pytest.raises(ValueError):
        spliced_matrix(ARProcessSpec.no_correlation(), None, 0, 10, seed=1)


def test_matrix_shape_and_determinism():
    spec = ARProcessSpec.one_step(0.8)
    m1 = spliced_matrix(spec, 1, 4, 200, seed=7)
    m2 = spliced_matrix(spec, 1, 4, 200, seed=7)
    assert isinstance(m1, np.ndarray) and m1.dtype == np.float64 and m1.shape == (4, 200)
    assert m1.tobytes() == m2.tobytes()


def test_package_exports_resolve_and_noise_matrices_are_arrays():
    assert all(hasattr(dexter, name) for name in dexter.__all__)
    assert "NoiseMatrix" not in dexter.__all__
    assert not hasattr(dexter, "NoiseMatrix") and not hasattr(ar_noise, "NoiseMatrix")


def test_matrix_rows_independent():
    m = spliced_matrix(ARProcessSpec.no_correlation(), None, 2, LONG, seed=21)
    r0, r1 = m
    corr = np.corrcoef(r0, r1)[0, 1]
    assert abs(corr) < 0.02


def test_matrix_row_stability_under_dimension_growth():
    spec = ARProcessSpec.one_step(0.8)
    small = spliced_matrix(spec, 1, 2, 300, seed=9)
    large = spliced_matrix(spec, 1, 5, 300, seed=9)
    assert np.array_equal(small, large[:2])


def test_splice_prefix_bit_identical_to_clean_series():
    spec = ARProcessSpec.one_step(0.95)
    clean = spliced_series(spec, None, 200, seed=5)
    assert np.array_equal(clean, spliced_series(ARProcessSpec.no_correlation(), None, 200, seed=5))
    spliced = spliced_series(spec, 100, 200, seed=5)
    assert np.array_equal(clean[:100], spliced[:100])
    assert not np.array_equal(clean[100:], spliced[100:])


def test_splice_boundary_last_sample_only():
    spec = ARProcessSpec.one_step(0.95)
    clean = spliced_series(spec, None, 200, seed=13)
    spliced = spliced_series(spec, 199, 200, seed=13)
    assert np.array_equal(clean[:199], spliced[:199])


def test_splice_correlation_switch_at_injection():
    # Mirrors the illustration setup: injection at t = 48, white noise
    # before, 1-step correlation (phi = 0.95) after.
    spec = ARProcessSpec.one_step(0.95)
    pre_acs, post_acs = [], []
    for seed in range(100):
        z = spliced_series(spec, 48, 200, seed=seed)
        pre_acs.append(sample_acf(z[:48], 1))
        post_acs.append(sample_acf(z[48:], 1))
    assert abs(np.mean(pre_acs)) < 0.05
    assert abs(np.mean(post_acs) - 0.95) < 0.05


def test_splice_magnitude_continuity_window_probe():
    # 20-step sample stds around the injection; at moderate correlation the
    # within-window spread is an honest magnitude probe.
    for spec in (ARProcessSpec.one_step(0.6), ARProcessSpec.two_step(0.6)):
        ratios = []
        for seed in range(100):
            z = spliced_series(spec, 100, 200, seed=seed)
            ratios.append(z[80:100].std() / z[100:120].std())
        mean_ratio = float(np.mean(ratios))
        assert max(mean_ratio, 1.0 / mean_ratio) < 1.5


def test_splice_marginal_std_continuity_strong_correlation():
    # At phi = 0.95 consecutive samples cluster, so within-window spread
    # conflates correlation with magnitude; the marginal (across-seed) std
    # at fixed offsets is the faithful probe of "noise level is constant".
    spec = ARProcessSpec.one_step(0.95)
    vals = np.array([spliced_series(spec, 100, 200, seed=s) for s in range(300)])
    pre_std = vals[:, 80:100].std(axis=0).mean()
    post_std = vals[:, 100:120].std(axis=0).mean()
    ratio = pre_std / post_std
    assert max(ratio, 1.0 / ratio) < 1.5


def test_splice_same_spec_statistically_indistinguishable():
    # The white value at the splice already has the process's stationary
    # variance, so a late splice continues like a process running since step 1.
    spec = ARProcessSpec.one_step(0.95)
    spliced_acs = [sample_acf(spliced_series(spec, 100, 400, seed=s)[100:], 1) for s in range(100)]
    plain_acs = [sample_acf(spliced_series(spec, 1, 400, seed=s)[100:], 1) for s in range(100)]
    assert abs(np.mean(spliced_acs) - np.mean(plain_acs)) < 0.02


def test_splice_validation():
    spec = ARProcessSpec.one_step(0.9)
    for step in (0, -1, 100):
        with pytest.raises(ValueError, match="injection_step"):
            spliced_series(spec, step, 100, seed=0)
    with pytest.raises(ValueError, match="injection_step"):
        spliced_matrix(spec, 100, 2, 100, seed=0)


def test_spliced_matrix_rows_match_spliced_series_seeding():
    spec = ARProcessSpec.two_step(0.8)
    mat = spliced_matrix(spec, 60, 3, 150, seed=17)
    clean = spliced_matrix(spec, None, 3, 150, seed=17)
    assert mat.shape == (3, 150)
    assert np.array_equal(mat[:, :60], clean[:, :60])


@settings(max_examples=200, deadline=None)
@given(
    mode=st.sampled_from(CorrelationMode),
    phi=st.floats(-0.99, 0.99),
    length=st.integers(1, 300),
    start_fraction=st.floats(0.0, 1.0),
    log_scale=st.integers(-6, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_recurse_equals_oracle_bit_for_bit(mode, phi, length, start_fraction, log_scale, seed):
    # The general recursion of tests/simulation_oracle.py with mean 0, on
    # every mode, from any start: the prefix before ``start`` is given lags.
    lag = {CorrelationMode.NO_CORRELATION: 0, CorrelationMode.ONE_STEP: 1,
           CorrelationMode.TWO_STEP: 2}[mode]
    rng = np.random.default_rng(seed)
    innovations = rng.normal(size=length) * 10.0 ** log_scale
    prefix = rng.normal(size=length) * 10.0 ** log_scale
    start = int(start_fraction * length)
    got, want = prefix.copy(), prefix.copy()
    _recurse(got, lag, phi, innovations, start)
    oracle.recurse(want, oracle.coefficients(mode, phi), 0.0, innovations, start)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("mode", list(CorrelationMode))
def test_recurse_turns_negative_zero_innovations_into_positive_zero(mode):
    # The oracle adds its mean 0.0 to every innovation, which maps -0.0 to +0.0.
    lag = {CorrelationMode.NO_CORRELATION: 0, CorrelationMode.ONE_STEP: 1,
           CorrelationMode.TWO_STEP: 2}[mode]
    innovations = np.array([-0.0, -0.0, -0.0, 1.0, -0.0])
    got, want = np.full(5, -0.0), np.full(5, -0.0)
    _recurse(got, lag, 0.5, innovations, 0)
    oracle.recurse(want, oracle.coefficients(mode, 0.5), 0.0, innovations, 0)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert not np.signbit(got[:3]).any()


@settings(max_examples=200, deadline=None)
@given(
    mode=st.sampled_from(CorrelationMode),
    phi=st.floats(-0.99, 0.99),
    sigma=st.floats(0.01, 10.0),
    scale=st.floats(0.01, 10.0),
    length=st.integers(2, 300),
    inject=st.booleans(),
    injection_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 1),
)
def test_spliced_series_equals_oracle_bit_for_bit(mode, phi, sigma, scale, length, inject,
                                                  injection_fraction, seed):
    # The splice as first written (tests/simulation_oracle.py) also ran the
    # white recursion over the samples the correlated one overwrites.
    spec = ARProcessSpec(mode, phi, sigma, scale)
    injection_step = min(length - 1, 1 + int(injection_fraction * (length - 1))) if inject else None
    got = spliced_series(spec, injection_step, length, seed)
    want = oracle.spliced_series(spec, injection_step, length, seed)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
