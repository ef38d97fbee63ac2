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
    k = 1..max_lag; 0 where the window has zero variance."""
    n, w = xc.shape
    out = np.zeros((n, max_lag))
    ok = c0 > _ZERO_VAR_EPS
    for k in range(1, max_lag + 1):
        if k < w:
            ck = np.sum(xc[:, k:] * xc[:, :-k], axis=1)
            out[:, k - 1] = np.where(ok, ck / np.where(ok, c0, 1.0), 0.0)
    return out


def _longest_increasing_run(x: np.ndarray) -> np.ndarray:
    """Length in samples of the longest strictly increasing run per row."""
    inc = np.diff(x, axis=1) > 0
    run = np.zeros(x.shape[0])
    best = np.zeros(x.shape[0])
    for j in range(inc.shape[1]):
        run = np.where(inc[:, j], run + 1.0, 0.0)
        best = np.maximum(best, run)
    return best + 1.0


def _approx_entropy(x: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Approximate entropy with embedding m, tolerance r = 0.2 std (floored),
    Chebyshev distance, self-matches included."""
    r = np.maximum(APEN_RADIUS_FACTOR * std, APEN_RADIUS_FLOOR)

    def phi(m: int) -> np.ndarray:
        emb = np.lib.stride_tricks.sliding_window_view(x, m, axis=1)  # (n, w-m+1, m)
        dist = np.abs(emb[:, :, None, :] - emb[:, None, :, :]).max(axis=-1)
        counts = (dist <= r[:, None, None]).mean(axis=2)
        return np.log(counts).mean(axis=1)

    return phi(APEN_EMBEDDING) - phi(APEN_EMBEDDING + 1)


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

    mean = x.mean(axis=1)
    std = x.std(axis=1)
    xc = x - mean[:, None]
    c0 = np.sum(xc * xc, axis=1)

    interior = x[:, 1:-1]
    num_peaks = np.sum((interior > x[:, :-2]) & (interior > x[:, 2:]), axis=1).astype(float)

    diffs = np.diff(x, axis=1)
    mean_abs_change = np.abs(diffs).mean(axis=1)
    abs_energy = np.sum(x * x, axis=1)

    acf = _autocorrelations(xc, c0, 4)

    # Durbin-Levinson step 2 on sample autocorrelations.
    r1, r2 = acf[:, 0], acf[:, 1]
    denom = 1.0 - r1 * r1
    denom_ok = np.abs(denom) > _ZERO_VAR_EPS
    pacf2 = np.where(denom_ok, (r2 - r1 * r1) / np.where(denom_ok, denom, 1.0), 0.0)

    count_above_mean = np.sum(x > mean[:, None], axis=1).astype(float)
    longest_run = _longest_increasing_run(x)

    spectrum = np.abs(np.fft.fft(x, axis=1))
    fft_idx = np.array([k % w for k in (1, 2, 3, 4)])
    fft_mags = spectrum[:, fft_idx]

    one_sided = spectrum[:, : w // 2 + 1]
    total = one_sided.sum(axis=1)
    bins = np.arange(one_sided.shape[1], dtype=float)
    total_ok = total > _ZERO_VAR_EPS
    centroid = np.where(total_ok, (one_sided * bins).sum(axis=1) / np.where(total_ok, total, 1.0), 0.0)

    apen = _approx_entropy(x, std)

    out = np.column_stack([
        mean, std, x.min(axis=1), x.max(axis=1), np.median(x, axis=1),
        num_peaks, mean_abs_change, abs_energy,
        acf[:, 0], acf[:, 1], acf[:, 2], acf[:, 3],
        pacf2, count_above_mean, longest_run,
        fft_mags[:, 0], fft_mags[:, 1], fft_mags[:, 2], fft_mags[:, 3],
        centroid, apen,
    ])
    assert out.shape == (n, FEATURE_COUNT)
    return out


def sliding_windows(series: np.ndarray, window_size: int) -> np.ndarray:
    """All length-W windows of a 1-D series, advanced by one step: shape
    (len(series) - W + 1, W). Rows are read-only views."""
    arr = np.asarray(series, dtype=float)
    if arr.shape[0] < window_size:
        raise WindowTooShortError(
            f"series of length {arr.shape[0]} shorter than window {window_size}"
        )
    return np.lib.stride_tricks.sliding_window_view(arr, window_size)
