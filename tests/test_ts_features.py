import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dexter import ts_features
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


def reference_features_batch(x):
    """The catalogue as first written: per-lag and per-step Python loops,
    (n, L, L, m) template arrays for approximate entropy, np.median. Kept as
    the bit-for-bit oracle for extract_features_batch."""
    eps = 1e-24
    n, w = x.shape

    def autocorrelations(xc, c0, max_lag):
        out = np.zeros((n, max_lag))
        ok = c0 > eps
        for k in range(1, max_lag + 1):
            if k < w:
                ck = np.sum(xc[:, k:] * xc[:, :-k], axis=1)
                out[:, k - 1] = np.where(ok, ck / np.where(ok, c0, 1.0), 0.0)
        return out

    def longest_increasing_run():
        inc = np.diff(x, axis=1) > 0
        run = np.zeros(n)
        best = np.zeros(n)
        for j in range(inc.shape[1]):
            run = np.where(inc[:, j], run + 1.0, 0.0)
            best = np.maximum(best, run)
        return best + 1.0

    def approx_entropy(std):
        r = np.maximum(0.2 * std, 1e-12)

        def phi(m):
            emb = np.lib.stride_tricks.sliding_window_view(x, m, axis=1)
            dist = np.abs(emb[:, :, None, :] - emb[:, None, :, :]).max(axis=-1)
            counts = (dist <= r[:, None, None]).mean(axis=2)
            return np.log(counts).mean(axis=1)

        return phi(2) - phi(3)

    mean = x.mean(axis=1)
    std = x.std(axis=1)
    xc = x - mean[:, None]
    c0 = np.sum(xc * xc, axis=1)
    interior = x[:, 1:-1]
    num_peaks = np.sum((interior > x[:, :-2]) & (interior > x[:, 2:]), axis=1).astype(float)
    mean_abs_change = np.abs(np.diff(x, axis=1)).mean(axis=1)
    abs_energy = np.sum(x * x, axis=1)
    acf = autocorrelations(xc, c0, 4)
    r1, r2 = acf[:, 0], acf[:, 1]
    denom = 1.0 - r1 * r1
    denom_ok = np.abs(denom) > eps
    pacf2 = np.where(denom_ok, (r2 - r1 * r1) / np.where(denom_ok, denom, 1.0), 0.0)
    count_above_mean = np.sum(x > mean[:, None], axis=1).astype(float)
    spectrum = np.abs(np.fft.fft(x, axis=1))
    fft_mags = spectrum[:, np.array([k % w for k in (1, 2, 3, 4)])]
    one_sided = spectrum[:, : w // 2 + 1]
    total = one_sided.sum(axis=1)
    bins = np.arange(one_sided.shape[1], dtype=float)
    total_ok = total > eps
    centroid = np.where(total_ok, (one_sided * bins).sum(axis=1) / np.where(total_ok, total, 1.0), 0.0)
    return np.column_stack([
        mean, std, x.min(axis=1), x.max(axis=1), np.median(x, axis=1),
        num_peaks, mean_abs_change, abs_energy,
        acf[:, 0], acf[:, 1], acf[:, 2], acf[:, 3],
        pacf2, count_above_mean, longest_increasing_run(),
        fft_mags[:, 0], fft_mags[:, 1], fft_mags[:, 2], fft_mags[:, 3],
        centroid, approx_entropy(std),
    ])


@st.composite
def window_batches(draw):
    """(n, W) batches, W in 4..32 and n in 1..64: small integers held over
    random plateaus (ties), or scaled random walks; some or all rows made
    constant; every zero given a random sign, or every zero made -0.0."""
    w, n = draw(st.integers(4, 32)), draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sign = draw(st.sampled_from([1.0, -1.0]))
    if draw(st.booleans()):
        x = rng.integers(-3, 4, size=(n, w)).astype(float)
        hold = rng.random((n, w)) < draw(st.sampled_from([0.0, 0.5, 0.9]))
        for j in range(1, w):
            x[:, j] = np.where(hold[:, j], x[:, j - 1], x[:, j])
    else:
        x = np.cumsum(rng.normal(size=(n, w)), axis=1) * 10.0 ** draw(st.integers(-8, 8))
    constant = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    x[constant] = x[constant, :1]
    x *= sign
    zeros = x == 0
    x[zeros] = np.where(rng.random(zeros.sum()) < draw(st.sampled_from([0.5, 1.0])), -0.0, 0.0)
    return x


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


def test_approx_entropy_counts_a_distance_of_exactly_r_as_a_match():
    window = np.array([[-6.0, -1.0, 6.0, 6.0, 5.0, 3.0, -6.0, 6.0, -6.0, 3.0]])
    r = 0.2 * window.std()
    assert r == 1.0 and (np.abs(window[0, :, None] - window[0]) == r).any()
    expected = reference_features_batch(window).view(np.int64)
    for path in (ts_features._extract_numpy, ts_features._extract_small):
        assert np.array_equal(path(window).view(np.int64), expected)


# Windows of widths outside the drawn 4-32 with a pairwise distance of
# exactly r. At W = 4 only the floored radius gave one: no integer window
# within +-40 has 0.2 std equal to one of its distances.
EXACT_R_WINDOWS = {
    4: np.array([0.0, 1e-12, 1e-12, 3e-12]),
    33: np.array([-10, 10, -10, -10, 10, -10, 10, 10, 10, -10, -10, -10, -10, 10, -10, -10, -12,
                  10, 10, -10, 9, -10, 10, -10, 10, 10, 10, -10, -12, -8, 10, 10, -10], dtype=float),
    64: np.where(np.arange(64) % 2, -5.0, 5.0),
}
EXACT_R_WINDOWS[64][[18, 23, 27, 34, 37]] = [2.0, 6.0, 0.0, -6.0, -7.0]


@pytest.mark.parametrize("width", sorted(EXACT_R_WINDOWS))
def test_approx_entropy_at_the_edge_widths(width):
    """The minimum window and two beyond the drawn widths: a window with a
    distance of exactly r, a constant one and two random ones, against the
    loop formula and bit for bit against the reference on both paths."""
    exact = EXACT_R_WINDOWS[width]
    r = max(0.2 * exact.std(), ts_features.APEN_RADIUS_FLOOR)
    assert (np.abs(exact[:, None] - exact) == r).any()
    rng = np.random.default_rng(width)
    windows = np.stack([exact, np.full(width, 2.5), np.cumsum(rng.normal(size=width)),
                        rng.integers(-3, 4, width).astype(float)])
    feats = extract_features_batch(windows)
    for i, window in enumerate(windows):
        assert feats[i, IDX["approx_entropy"]] == pytest.approx(brute_approx_entropy(list(window)), abs=1e-9)
    assert feats[1, IDX["approx_entropy"]] == 0.0
    bits = reference_features_batch(windows).view(np.int64)
    for path in (ts_features._extract_numpy, ts_features._extract_small):
        assert np.array_equal(path(windows).view(np.int64), bits)


def test_a_large_batch_holds_few_pairwise_tables():
    """Approximate entropy compares the W(W-1)/2 pairs of each window once,
    on the upper triangle: the batch's peak stays below 2.5 full float
    W x W tables (3.3 while it built the whole matrix and its maxima)."""
    x = np.random.default_rng(9).normal(size=(8000, 10))
    extract_features_batch(x[:8])  # the index tables of W = 10 are built once per W
    tracemalloc.start()
    try:
        extract_features_batch(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * x.shape[0] * x.shape[1] ** 2 * 8


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


@settings(max_examples=300, deadline=None)
@given(window_batches())
def test_batch_equals_reference_bit_for_bit(x):
    bits = reference_features_batch(x).view(np.int64)
    assert np.array_equal(extract_features_batch(x).view(np.int64), bits)
    for path in (ts_features._extract_numpy, ts_features._extract_small):
        assert np.array_equal(path(x).view(np.int64), bits)


@settings(max_examples=300, deadline=None)
@given(window_batches())
def test_row_alone_equals_row_of_large_batch_bit_for_bit(x):
    """Every drawn window alone takes the plain-Python path (W <= 32); the
    batch, repeated past the crossover, takes the NumPy path."""
    batch = np.concatenate([x] * (ts_features._PYTHON_PATH_VALUES // x.size + 1))
    assert batch.size > ts_features._PYTHON_PATH_VALUES >= x.shape[1]
    bits = extract_features_batch(batch).view(np.int64)
    for i in range(x.shape[0]):
        assert np.array_equal(extract_features_batch(x[i:i + 1]).view(np.int64), bits[i:i + 1])


@st.composite
def summands(draw):
    """Rows of 0 to 32 floats: normal draws scaled across up to 2 x spread
    decades (1e300 at most, so no sum overflows), some set to +0.0 or -0.0."""
    size = draw(st.integers(0, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([0, 3, 30, 300]))
    row = rng.normal(size=size) * 10.0 ** rng.uniform(-spread, spread, size=size)
    for i, zero in draw(st.lists(st.tuples(st.integers(0, 31), st.sampled_from([0.0, -0.0])))):
        if i < size:
            row[i] = zero
    return row.tolist()


@settings(max_examples=500, deadline=None)
@given(summands() | st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-1e300, 1e300), max_size=32))
@example([]).via("the empty sum")
@example([-0.0] * 3).via("a short all -0.0 row")
@example([-0.0] * 17).via("a blocked all -0.0 row")
def test_add_reduce_sums_in_numpys_order(row):
    """``_add_reduce`` replays the order in which NumPy's float ``add.reduce``
    sums, which NumPy does not document: a release that sums in another
    order fails here."""
    assert ts_features._add_reduce(row).hex() == float(np.add.reduce(np.array(row, dtype=float))).hex()


@pytest.mark.parametrize("shape, path", [
    ((4, 8), "_extract_small"), ((1, 32), "_extract_small"), ((2, 16), "_extract_small"),
    ((3, 11), "_extract_numpy"), ((1, 33), "_extract_numpy"), ((0, 10), "_extract_small"),
])
def test_path_choice_at_the_crossover(monkeypatch, shape, path):
    """Up to 32 values (windows x W) take the plain-Python path, 33 the
    NumPy one; both give the reference's bits, and an empty batch keeps its
    (0, FEATURE_COUNT) shape."""
    assert ts_features._PYTHON_PATH_VALUES == 32
    taken = []
    for name in ("_extract_small", "_extract_numpy"):
        real = getattr(ts_features, name)
        monkeypatch.setattr(ts_features, name, lambda x, name=name, real=real: taken.append(name) or real(x))
    x = np.cumsum(np.random.default_rng(8).normal(size=shape), axis=1)
    feats = extract_features_batch(x)
    assert taken == [path] and feats.shape == (shape[0], FEATURE_COUNT)
    assert np.array_equal(feats.view(np.int64), reference_features_batch(x).view(np.int64))


def test_input_validation():
    """The checks run before either path is chosen: one window of W <= 32
    would take the plain-Python path, 40 windows the NumPy one."""
    for num_windows in (1, 40):
        with pytest.raises(WindowTooShortError):
            extract_features_batch(np.ones((num_windows, 3)))
        for bad in (np.nan, np.inf, -np.inf):
            x = np.ones((num_windows, 5))
            x[-1, 1] = bad
            with pytest.raises(InvalidInputError):
                extract_features_batch(x)
        for not_2d in (np.ones(num_windows * 5), np.ones((num_windows, 5, 1))):
            with pytest.raises(InvalidInputError):
                extract_features_batch(not_2d)


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
