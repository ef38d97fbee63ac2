import math

import numpy as np
import pytest

from dexter.errors import InvalidInputError, WindowTooShortError
from dexter.ts_features import (
    FEATURE_COUNT,
    FEATURE_NAMES,
    catalogue_hash,
    catalogue_manifest,
    extract_features_batch,
    sliding_windows,
)

IDX = {name: i for i, name in enumerate(FEATURE_NAMES)}


def extract_one(window):
    """Features of a single window, as a batch of one."""
    return extract_features_batch(np.asarray(window, dtype=float)[None])[0]


def brute_autocorr(x, lag):
    """Direct summation formula for the sample autocorrelation."""
    xbar = sum(x) / len(x)
    num = sum((x[t] - xbar) * (x[t + lag] - xbar) for t in range(len(x) - lag))
    den = sum((x[t] - xbar) ** 2 for t in range(len(x)))
    return num / den if den > 0 else 0.0


def brute_dft(x):
    """O(W^2) discrete Fourier transform magnitudes."""
    n = len(x)
    mags = []
    for k in range(n):
        re = sum(x[t] * math.cos(-2.0 * math.pi * k * t / n) for t in range(n))
        im = sum(x[t] * math.sin(-2.0 * math.pi * k * t / n) for t in range(n))
        mags.append(math.hypot(re, im))
    return mags


def brute_approx_entropy(x, m=2, r_factor=0.2):
    """Loop implementation of approximate entropy with self-matches."""
    n = len(x)
    r = max(r_factor * float(np.std(x)), 1e-12)

    def phi(mm):
        count = n - mm + 1
        templates = [x[i : i + mm] for i in range(count)]
        total = 0.0
        for a in templates:
            matches = sum(
                1 for b in templates if max(abs(ai - bi) for ai, bi in zip(a, b)) <= r
            )
            total += math.log(matches / count)
        return total / count

    return phi(m) - phi(m + 1)


def test_catalogue_is_fixed_and_hashable():
    assert len(FEATURE_NAMES) == FEATURE_COUNT
    assert len(set(FEATURE_NAMES)) == FEATURE_COUNT
    manifest = catalogue_manifest()
    assert manifest["feature_names"] == list(FEATURE_NAMES)
    h = catalogue_hash()
    assert len(h) == 64 and h == catalogue_hash()


def test_constant_window_degenerate_values():
    c = 3.25
    v = extract_one([c] * 10)
    assert v[IDX["mean"]] == pytest.approx(c)
    assert v[IDX["std"]] == 0.0
    assert v[IDX["minimum"]] == c and v[IDX["maximum"]] == c and v[IDX["median"]] == c
    assert v[IDX["num_peaks"]] == 0.0
    assert v[IDX["mean_abs_change"]] == 0.0
    assert v[IDX["abs_energy"]] == pytest.approx(10 * c * c)
    for lag in range(1, 5):
        assert v[IDX[f"autocorr_lag{lag}"]] == 0.0
    assert v[IDX["pacf_lag2"]] == 0.0
    assert v[IDX["count_above_mean"]] == 0.0
    assert v[IDX["longest_increasing_run"]] == 1.0
    for k in range(1, 5):
        assert v[IDX[f"fft_abs_coeff{k}"]] == pytest.approx(0.0, abs=1e-9)
    assert v[IDX["spectral_centroid"]] == pytest.approx(0.0, abs=1e-9)
    assert v[IDX["approx_entropy"]] == pytest.approx(0.0, abs=1e-12)
    assert np.isfinite(v).all()


def test_alternating_window_autocorrelation():
    window = [1.0, -1.0] * 5
    v = extract_one(window)
    assert v[IDX["autocorr_lag1"]] == pytest.approx(brute_autocorr(window, 1), abs=1e-9)
    assert v[IDX["autocorr_lag2"]] > 0.0


def test_linear_ramp():
    v = extract_one(list(range(10)))
    assert v[IDX["longest_increasing_run"]] == 10.0
    assert v[IDX["count_above_mean"]] == 5.0
    assert v[IDX["mean"]] == pytest.approx(4.5)
    assert v[IDX["num_peaks"]] == 0.0


def test_autocorrelation_matches_brute_force():
    rng = np.random.default_rng(0)
    windows = rng.normal(size=(1000, 10))
    feats = extract_features_batch(windows)
    for i in range(windows.shape[0]):
        for lag in range(1, 5):
            expected = brute_autocorr(list(windows[i]), lag)
            assert feats[i, IDX[f"autocorr_lag{lag}"]] == pytest.approx(expected, abs=1e-9)


def test_pacf_lag2_matches_yule_walker_solve():
    rng = np.random.default_rng(1)
    windows = rng.normal(size=(200, 12))
    feats = extract_features_batch(windows)
    for i in range(windows.shape[0]):
        r1 = brute_autocorr(list(windows[i]), 1)
        r2 = brute_autocorr(list(windows[i]), 2)
        phi = np.linalg.solve(np.array([[1.0, r1], [r1, 1.0]]), np.array([r1, r2]))
        assert feats[i, IDX["pacf_lag2"]] == pytest.approx(phi[1], abs=1e-9)


@pytest.mark.parametrize("width", [7, 10])
def test_fft_features_match_brute_force(width):
    rng = np.random.default_rng(2)
    windows = rng.normal(size=(200, width))
    feats = extract_features_batch(windows)
    for i in range(windows.shape[0]):
        mags = brute_dft(list(windows[i]))
        for k in range(1, 5):
            assert feats[i, IDX[f"fft_abs_coeff{k}"]] == pytest.approx(
                mags[k % width], abs=1e-9
            )
        one_sided = mags[: width // 2 + 1]
        centroid = sum(k * m for k, m in enumerate(one_sided)) / sum(one_sided)
        assert feats[i, IDX["spectral_centroid"]] == pytest.approx(centroid, abs=1e-9)


def test_approx_entropy_matches_brute_force():
    rng = np.random.default_rng(3)
    windows = rng.normal(size=(50, 10))
    feats = extract_features_batch(windows)
    for i in range(windows.shape[0]):
        expected = brute_approx_entropy(list(windows[i]))
        assert feats[i, IDX["approx_entropy"]] == pytest.approx(expected, abs=1e-9)


def test_shift_covariance():
    rng = np.random.default_rng(4)
    shift = 3.7
    for _ in range(20):
        w = rng.normal(size=10)
        base = extract_one(w)
        shifted = extract_one(w + shift)
        for name in ("mean", "minimum", "maximum", "median"):
            assert shifted[IDX[name]] == pytest.approx(base[IDX[name]] + shift, abs=1e-9)
        for name in (
            "std", "num_peaks", "mean_abs_change",
            "autocorr_lag1", "autocorr_lag2", "autocorr_lag3", "autocorr_lag4",
            "approx_entropy",
        ):
            assert shifted[IDX[name]] == pytest.approx(base[IDX[name]], abs=1e-9)


def test_batch_matches_single_extraction():
    rng = np.random.default_rng(5)
    windows = rng.normal(size=(50, 12))
    batch = extract_features_batch(windows)
    for i in range(50):
        single = extract_one(windows[i])
        assert np.array_equal(batch[i], single)


def test_input_validation():
    with pytest.raises(WindowTooShortError):
        extract_one([1.0, 2.0, 3.0])
    with pytest.raises(InvalidInputError):
        extract_one([1.0, np.nan, 2.0, 3.0])
    with pytest.raises(InvalidInputError):
        extract_one([[1.0, 2.0], [3.0, 4.0]])


def test_purity_and_determinism():
    rng = np.random.default_rng(7)
    w = rng.normal(size=10)
    before = w.copy()
    a = extract_one(w)
    b = extract_one(w)
    assert np.array_equal(a, b)
    assert np.array_equal(w, before)


def test_sliding_windows_contents():
    series = np.arange(6.0)
    wins = sliding_windows(series, 4)
    assert wins.shape == (3, 4)
    assert np.array_equal(wins[0], [0, 1, 2, 3])
    assert np.array_equal(wins[-1], [2, 3, 4, 5])
    with pytest.raises(WindowTooShortError):
        sliding_windows(np.arange(3.0), 4)
