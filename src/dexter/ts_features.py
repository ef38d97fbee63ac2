"""Fixed catalogue of time-series statistics extracted from scalar windows.

Every window of ``W`` consecutive values from one state dimension maps to a
vector of ``FEATURE_COUNT`` statistics in a frozen, documented order (see
``FEATURE_NAMES``). The catalogue spans descriptive statistics, sample
autocorrelations, a partial autocorrelation, absolute-FFT-spectrum
magnitudes, and approximate entropy. Changing the catalogue or its order is
a breaking change; serialized models embed :func:`catalogue_hash` so
incompatible pairings are refused.

Degenerate (zero-variance) windows map autocorrelation, partial
autocorrelation, and approximate entropy to 0 so every feature vector stays
finite.

A batch is computed in whole-array passes with no loop over window
positions: both approximate-entropy embeddings take their Chebyshev
distances from one (n, W, W) matrix of pairwise differences, one sort gives
the median, and a running maximum gives the longest increasing run. Each
statistic keeps the arithmetic of its plain NumPy formula (``mean``,
``std``, ``median``, match fractions), so values are bit-identical to the
per-template formulation, and a window extracted alone equals its row in any
batch. At W = 10 one call takes about 0.18 ms for one window and 0.57 ms
for 200 on a 2-vCPU VM (0.43 ms and 2.7 ms with per-template arrays and
per-step loops; BENCH_5.json).
"""

import hashlib
import json

import numpy as np

from .errors import InvalidInputError, WindowTooShortError

FEATURE_NAMES = (
    "mean",
    "std",
    "minimum",
    "maximum",
    "median",
    "num_peaks",
    "mean_abs_change",
    "abs_energy",
    "autocorr_lag1",
    "autocorr_lag2",
    "autocorr_lag3",
    "autocorr_lag4",
    "pacf_lag2",
    "count_above_mean",
    "longest_increasing_run",
    "fft_abs_coeff1",
    "fft_abs_coeff2",
    "fft_abs_coeff3",
    "fft_abs_coeff4",
    "spectral_centroid",
    "approx_entropy",
)
FEATURE_COUNT = len(FEATURE_NAMES)
CATALOGUE_VERSION = 1
MIN_WINDOW = 4

APEN_EMBEDDING = 2        # approximate-entropy embedding dimension m
APEN_RADIUS_FACTOR = 0.2  # tolerance r = 0.2 * window std
APEN_RADIUS_FLOOR = 1e-12

_ZERO_VAR_EPS = 1e-24


def catalogue_manifest() -> dict:
    """Names, order, and parameters of the feature catalogue."""
    return {
        "catalogue_version": CATALOGUE_VERSION,
        "feature_names": list(FEATURE_NAMES),
        "approx_entropy": {
            "embedding": APEN_EMBEDDING,
            "radius_factor": APEN_RADIUS_FACTOR,
            "radius_floor": APEN_RADIUS_FLOOR,
        },
    }


def catalogue_hash() -> str:
    canon = json.dumps(catalogue_manifest(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _autocorrelations(xc: np.ndarray, c0: np.ndarray, max_lag: int) -> np.ndarray:
    """Sample autocorrelations r_k = sum_t xc_t xc_{t+k} / sum_t xc_t^2 for
    k = 1..max_lag, one row per lag; 0 where the window has zero variance or
    k >= W."""
    n, w = xc.shape
    ck = np.zeros((max_lag, n))
    for k in range(1, min(max_lag, w - 1) + 1):
        ck[k - 1] = (xc[:, k:] * xc[:, :-k]).sum(axis=1)
    return np.divide(ck, c0, out=np.zeros_like(ck), where=c0 > _ZERO_VAR_EPS)


def _longest_increasing_run(rises: np.ndarray) -> np.ndarray:
    """Length in samples of the longest strictly increasing run per row of
    the (n, W-1) mask of rises x_{t+1} > x_t: the run ending at a rise began
    after the last non-rise before it."""
    pos = np.arange(1, rises.shape[1] + 1)
    last_break = np.maximum.accumulate(np.where(rises, 0, pos), axis=1)
    return (pos - last_break).max(axis=1) + 1.0


def _approx_entropy(x: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Approximate entropy with embedding m, tolerance r = 0.2 std (floored),
    Chebyshev distance, self-matches included. The distance between the
    length-m templates at a and b is max_{k<m} |x_{a+k} - x_{b+k}|: the
    elementwise maximum of m diagonal shifts of one pairwise matrix, and
    embedding m + 1 takes the maximum with one more shift."""
    r = np.maximum(APEN_RADIUS_FACTOR * std, APEN_RADIUS_FLOOR)[:, None, None]
    pair = np.abs(x[:, :, None] - x[:, None, :])
    m = APEN_EMBEDDING
    count = x.shape[1] - m + 1
    dist = pair[:, :count, :count]
    for k in range(1, m):
        dist = np.maximum(dist, pair[:, k:k + count, k:k + count])
    longer = np.maximum(dist[:, :-1, :-1], pair[:, m:, m:])

    def phi(d: np.ndarray) -> np.ndarray:
        templates = d.shape[1]
        return np.log((d <= r).sum(axis=2) / templates).sum(axis=1) / templates

    return phi(dist) - phi(longer)


def extract_features_batch(windows: np.ndarray) -> np.ndarray:
    """Feature matrix of shape (num_windows, FEATURE_COUNT) for a batch of
    equal-length windows given as a (num_windows, W) array."""
    x = np.asarray(windows, dtype=float)
    if x.ndim != 2:
        raise InvalidInputError(f"expected a 2-D window batch, got shape {x.shape}")
    n, w = x.shape
    if w < MIN_WINDOW:
        raise WindowTooShortError(f"window size {w} < minimum {MIN_WINDOW}")
    if not np.isfinite(x).all():
        raise InvalidInputError("windows contain non-finite values")

    # A sum divided by its count is the arithmetic of ndarray.mean, and
    # sqrt(c0 / W) that of ndarray.std.
    mean = x.sum(axis=1) / w
    xc = x - mean[:, None]
    c0 = (xc * xc).sum(axis=1)
    std = np.sqrt(c0 / w)

    diffs = x[:, 1:] - x[:, :-1]
    rises = diffs > 0

    # np.median's arithmetic: the middle element, or the mean of the middle
    # two, with a zero result as +0. Minimum and maximum stay reductions: in
    # a row whose extreme is a zero of both signs, the sort may put either
    # zero first, where min and max pick by their own rule.
    ordered = np.sort(x, axis=1)
    h = w // 2
    median = ordered[:, h] + 0.0 if w % 2 else (ordered[:, h - 1] + ordered[:, h] + 0.0) / 2

    acf = _autocorrelations(xc, c0, 4)
    # Durbin-Levinson step 2 on sample autocorrelations.
    r1sq = acf[0] * acf[0]
    denom = 1.0 - r1sq
    pacf2 = np.divide(acf[1] - r1sq, denom, out=np.zeros(n), where=np.abs(denom) > _ZERO_VAR_EPS)

    spectrum = np.abs(np.fft.fft(x, axis=1))
    one_sided = spectrum[:, : w // 2 + 1]
    total = one_sided.sum(axis=1)
    weighted = (one_sided * np.arange(one_sided.shape[1], dtype=float)).sum(axis=1)
    centroid = np.divide(weighted, total, out=np.zeros(n), where=total > _ZERO_VAR_EPS)

    columns = [
        mean, std, x.min(axis=1), x.max(axis=1), median,
        (rises[:, :-1] & (diffs[:, 1:] < 0)).sum(axis=1),  # peaks
        np.abs(diffs).sum(axis=1) / (w - 1), (x * x).sum(axis=1),
        *acf, pacf2, (x > mean[:, None]).sum(axis=1), _longest_increasing_run(rises),
        *spectrum[:, [1, 2, 3, 4 % w]].T, centroid, _approx_entropy(x, std),
    ]
    assert len(columns) == FEATURE_COUNT
    # Column-major (FEATURE_COUNT, n) is the row-major (n, FEATURE_COUNT) result.
    return np.array(columns, dtype=float, order="F").T


def sliding_windows(series: np.ndarray, window_size: int) -> np.ndarray:
    """All length-W windows of a 1-D series, advanced by one step: shape
    (len(series) - W + 1, W). Rows are read-only views."""
    arr = np.asarray(series, dtype=float)
    if arr.shape[0] < window_size:
        raise WindowTooShortError(
            f"series of length {arr.shape[0]} shorter than window {window_size}"
        )
    return np.lib.stride_tricks.sliding_window_view(arr, window_size)
