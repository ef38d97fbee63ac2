"""Fixed catalogue of time-series statistics extracted from scalar windows.

Every window of ``W`` consecutive values from one state dimension maps to a
vector of ``FEATURE_COUNT`` statistics in a frozen, documented order (see
``FEATURE_NAMES``). The catalogue spans descriptive statistics, sample
autocorrelations, a partial autocorrelation, absolute-FFT-spectrum
magnitudes, and approximate entropy. Changing the catalogue or its order is
a breaking change; a DEXTER model embeds :func:`catalogue_hash`, so one
built under another catalogue is refused.

Degenerate (zero-variance) windows map autocorrelation, partial
autocorrelation, and approximate entropy to 0 so every feature vector stays
finite.

A batch takes one of two paths, chosen by its size alone:

- More than ``_PYTHON_PATH_VALUES`` values (windows x W) are computed in
  whole-array passes with no loop over window positions. Approximate entropy
  compares each of a window's W(W-1)/2 pairs i < j with r once and counts
  template matches in boolean pair columns ANDed along the template
  diagonals (``_approx_entropy``); one sort gives the median, and a running
  maximum gives the longest increasing run. Each statistic keeps the
  arithmetic of its plain NumPy formula (``mean``, ``std``, ``median``,
  match fractions), so values are bit-identical to the per-template
  formulation.
- A smaller batch, such as the one window per dimension that online
  monitoring extracts, is computed row by row on Python floats, which skips
  the fixed cost of the whole-array passes' hundred-odd NumPy calls. Every
  sum replays NumPy's pairwise ``add.reduce`` (``_add_reduce``), the median
  comes from ``sorted``, and approximate entropy counts template matches on
  the bit masks of one W x W table |x_i - x_j| <= r. The spectrum and the
  logarithms of the match fractions stay one NumPy call each over the
  batch. A zero minimum or maximum is taken from NumPy's reduction, because
  which signed zero it returns is NumPy's own choice.

Either way a window extracted alone equals its row in any batch, bit for
bit. Callers therefore extract all the windows they have in one call:
``detector.score_stream`` the sliding windows of every dimension of an
episode, ``detector.train`` the non-overlapping windows of every episode
and dimension, and ``DexterStream.push`` the D windows of one step.
"""

import functools
import hashlib
import json
import math

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
# Batches of at most this many values (windows x W) take the plain-Python
# path. Its cost grows with every window (the match table with W^2), while
# the whole-array path's fixed cost of a hundred-odd NumPy calls hardly
# does; the README gives where the two crossed when timed.
_PYTHON_PATH_VALUES = 32


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


def _diagonal_pairs(size: int) -> list:
    """The pairs (a, b) with a < b < size, diagonal by diagonal: first every
    pair with b - a = 1, then every pair with b - a = 2, and so on. Pair
    (a + k, b + k) sits k places after (a, b)."""
    return [(a, a + d) for d in range(1, size) for a in range(size - d)]


@functools.lru_cache(maxsize=16)
def _apen_tables(w: int) -> tuple:
    """Index tables of ``_approx_entropy`` for window size W, read-only:
    - ``first``, ``second``: the values compared by each pair column;
    - ``short_cols``: the pair column of each pair of length-m templates;
    - ``extend_from``, ``extend_cols``: each pair of length-(m + 1)
      templates as its length-m pair and the pair column of its last values;
    - ``partners``: per template, m-templates first and then (m + 1)-
      templates, the match columns of its pairs, padded to a multiple of 8
      with the always-False last column;
    - ``sizes``: the number of templates of each row of ``partners``."""
    m = APEN_EMBEDDING
    count = w - m + 1
    pairs = _diagonal_pairs(w)
    column = {pair: i for i, pair in enumerate(pairs)}
    short, longer = _diagonal_pairs(count), _diagonal_pairs(count - 1)
    short_at = {pair: i for i, pair in enumerate(short)}
    longer_at = {pair: len(short) + i for i, pair in enumerate(longer)}
    width = -(-(count - 1) // 8) * 8
    partners = []
    for size, at in ((count, short_at), (count - 1, longer_at)):
        for a in range(size):
            row = [at[min(a, b), max(a, b)] for b in range(size) if b != a]
            partners.append(row + [len(short) + len(longer)] * (width - len(row)))
    tables = (
        np.array([a for a, _ in pairs]), np.array([b for _, b in pairs]),
        np.array([column[pair] for pair in short]),
        np.array([short_at[pair] for pair in longer]),
        np.array([column[a + m, b + m] for a, b in longer]),
        np.array(partners), np.array([count] * count + [count - 1] * (count - 1), dtype=float),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _approx_entropy(x: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Approximate entropy with embedding m, tolerance r = 0.2 std (floored),
    Chebyshev distance, self-matches included.

    The templates at a and b are within r when |x_{a+k} - x_{b+k}| <= r for
    every k < m, because a maximum is at most r exactly when each of its
    terms is. So each of the W(W-1)/2 pairs i < j is compared with r once,
    and a template pair's match is the AND of m pair columns along one
    diagonal; embedding m + 1 ANDs one more. A template's match count is
    its matching pairs, counted as bytes, plus one for itself: the integers
    the full W x W distance matrices give, so fractions and logarithms keep
    their bits."""
    n, w = x.shape
    m = APEN_EMBEDDING
    first, second, short_cols, extend_from, extend_cols, partners, sizes = _apen_tables(w)
    r = np.maximum(APEN_RADIUS_FACTOR * std, APEN_RADIUS_FLOOR)[:, None]
    dist = x[:, first]
    dist -= x[:, second]
    close = np.abs(dist, out=dist) <= r
    del dist
    # One column per (m)-template pair, then per (m + 1)-template pair, then
    # one that stays False for the padding of ``partners``.
    match = np.zeros((n, len(short_cols) + len(extend_cols) + 1), dtype=bool)
    short = match[:, :len(short_cols)]
    np.take(close, short_cols, axis=1, out=short)
    for k in range(1, m):
        short &= close[:, short_cols + k]
    np.logical_and(short[:, extend_from], close[:, extend_cols], out=match[:, len(short_cols):-1])
    # Each byte of a template's partner row is 0 or 1, so eight of them read
    # as one uint64 and multiplied by 0x0101010101010101 leave their sum in
    # the top byte.
    pairs = np.take(match, partners, axis=1).view(np.uint64)
    counts = ((pairs * np.uint64(0x0101010101010101)) >> np.uint64(56)).sum(axis=2) + 1
    logs = np.log(counts / sizes)
    count = w - m + 1
    return logs[:, :count].sum(axis=1) / count - logs[:, count:].sum(axis=1) / (count - 1)


def _add_reduce(values: list) -> float:
    """NumPy's float ``add.reduce`` over one row of at most 128 values (one
    pairwise block; NumPy halves longer rows first): fewer than eight are
    added in order; more are dealt to eight running sums in blocks of eight,
    combined pairwise, and the remainder is added in order. The result is
    added to the +0.0 identity, so a zero sum is +0.0 (starting from 0.0
    does that for the short case)."""
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    stop = n - n % 8
    for i in range(8, stop, 8):
        r0 += values[i]
        r1 += values[i + 1]
        r2 += values[i + 2]
        r3 += values[i + 3]
        r4 += values[i + 4]
        r5 += values[i + 5]
        r6 += values[i + 6]
        r7 += values[i + 7]
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for value in values[stop:]:
        total += value
    return 0.0 + total


def _row_features(v: list, spectrum: list) -> list:
    """The catalogue but approximate entropy for one window of Python
    floats, given its absolute spectrum, with the arithmetic of
    ``_extract_numpy``: every sum is ``_add_reduce``, every division and
    square root is the same correctly rounded operation."""
    w = len(v)
    mean = _add_reduce(v) / w
    xc = [value - mean for value in v]
    c0 = _add_reduce([value * value for value in xc])
    acf = [
        _add_reduce([a * b for a, b in zip(xc[k:], xc)]) / c0 if k < w and c0 > _ZERO_VAR_EPS else 0.0
        for k in range(1, 5)
    ]
    r1sq = acf[0] * acf[0]
    denom = 1.0 - r1sq
    diffs = [b - a for a, b in zip(v, v[1:])]
    peaks = run = longest = 0
    previous = 0.0
    for diff in diffs:
        if diff > 0:
            run += 1
            longest = max(longest, run)
        else:
            run = 0
            peaks += diff < 0 and previous > 0
        previous = diff
    ordered = sorted(v)
    h = w // 2
    one_sided = spectrum[: h + 1]
    total = _add_reduce(one_sided)
    weighted = _add_reduce([magnitude * k for k, magnitude in enumerate(one_sided)])
    return [
        mean, math.sqrt(c0 / w), ordered[0], ordered[-1],
        ordered[h] + 0.0 if w % 2 else (ordered[h - 1] + ordered[h] + 0.0) / 2,
        float(peaks), _add_reduce([abs(diff) for diff in diffs]) / (w - 1),
        _add_reduce([value * value for value in v]),
        *acf, (acf[1] - r1sq) / denom if abs(denom) > _ZERO_VAR_EPS else 0.0,
        float(sum(value > mean for value in v)), longest + 1.0,
        spectrum[1], spectrum[2], spectrum[3], spectrum[4 % w],
        weighted / total if total > _ZERO_VAR_EPS else 0.0,
    ]


def _template_matches(v: list, r: float) -> tuple:
    """Per template, the number of templates (itself included) within
    Chebyshev distance r, for embedding m and m + 1, as ``_approx_entropy``
    counts them. Bit b of ``close[a]`` marks |x_a - x_b| <= r, so the
    templates matching the one at a are the bits of ``close[a + k] >> k``
    common to every k < m."""
    w = len(v)
    close = [1 << a for a in range(w)]
    for a in range(w):
        xa = v[a]
        for b in range(a + 1, w):
            if abs(xa - v[b]) <= r:
                close[a] |= 1 << b
                close[b] |= 1 << a
    m = APEN_EMBEDDING
    matches = close[:w - m + 1]
    for k in range(1, m):
        matches = [bits & (other >> k) for bits, other in zip(matches, close[k:])]
    longer = [bits & (other >> m) for bits, other in zip(matches, close[m:])]
    return [bits.bit_count() for bits in matches], [bits.bit_count() for bits in longer]


def _extract_small(x: np.ndarray) -> np.ndarray:
    """The features of a checked batch of a few windows, row by row on
    Python floats, which skips the whole-array passes' fixed cost of about a
    hundred NumPy calls. The spectrum and the logarithms of the match
    fractions stay one NumPy call each over the whole batch, so their bits
    cannot drift from the batch path's."""
    rows, fractions = [], []
    for v, spectrum in zip(x.tolist(), np.abs(np.fft.fft(x, axis=1)).tolist()):
        row = _row_features(v, spectrum)
        shorter, longer = _template_matches(v, max(APEN_RADIUS_FACTOR * row[1], APEN_RADIUS_FLOOR))
        fractions += [c / len(shorter) for c in shorter] + [c / len(longer) for c in longer]
        rows.append(row)
    logs = np.log(fractions).tolist()
    count = x.shape[1] - APEN_EMBEDDING + 1
    per_row = 2 * count - 1
    for i, row in enumerate(rows):
        # Which zero a min or max reduction returns when the extreme is a
        # zero of both signs is NumPy's own choice; ask it for that one value.
        if row[2] == 0.0:
            row[2] = float(x.min(axis=1)[i])
        if row[3] == 0.0:
            row[3] = float(x.max(axis=1)[i])
        start = i * per_row
        phi = _add_reduce(logs[start:start + count]) / count
        phi_longer = _add_reduce(logs[start + count:start + per_row]) / (count - 1)
        row.append(phi - phi_longer)
    return np.array(rows).reshape(-1, FEATURE_COUNT)


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
    if n * w <= _PYTHON_PATH_VALUES:
        return _extract_small(x)
    return _extract_numpy(x)


def _extract_numpy(x: np.ndarray) -> np.ndarray:
    """The features of a checked batch in whole-array passes."""
    n, w = x.shape
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
