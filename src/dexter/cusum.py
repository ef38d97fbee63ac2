"""CUSUM calibration and online decision rule, shared by all detectors.

Calibration consumes per-episode anomaly-score streams from clean data:
episodes are shuffled with a seeded permutation and split in half; the first
half provides the reference mean score; on each second-half episode the
clamped recursion ``S_t = max(0, S_{t-1} + A_t - mean)`` is run and its
running maximum recorded; the alert threshold is the (1 - target_fpr)
empirical percentile (linear interpolation) of those maxima.

Online, the identical clamped recursion raises an alert at the first step
with ``S_t > threshold``. Undefined scores (NaN, e.g. during window warm-up)
leave the statistic unchanged. Calibrating on the same statistic the online
rule monitors is what makes the measured episode false-positive rate track
the configured target.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IncompatibleModelError
from .seeding import rng_from


def finite_field(doc, name: str, owner: str, ndim: int = 0):
    """``doc[name]`` of a model document as a finite float (``ndim`` 0) or
    a float array of ``ndim`` dimensions. A missing field, a non-numeric or
    non-finite value and a wrong number of dimensions raise
    :class:`IncompatibleModelError` naming the field."""
    if not isinstance(doc, dict):
        raise IncompatibleModelError(f"{owner} document is not an object")
    if name not in doc:
        raise IncompatibleModelError(f"{owner} is missing {name!r}")
    try:
        value = np.asarray(doc[name])
    except ValueError as exc:  # ragged nested lists
        raise IncompatibleModelError(f"{owner} {name!r} is malformed: {exc}") from exc
    if (value.ndim != ndim or (value.size and value.dtype.kind not in "iuf")
            or not np.isfinite(value).all()):
        shape = "a finite number" if ndim == 0 else f"a {ndim}-D array of finite numbers"
        raise IncompatibleModelError(f"{owner} {name!r} is not {shape}")
    return float(value) if ndim == 0 else np.asarray(value, dtype=float)


@dataclass(frozen=True)
class CusumDetector:
    """Calibrated CUSUM decision rule."""

    mean_score_abar: float
    threshold_tau: float
    target_fpr: float

    def to_json_dict(self) -> dict:
        return {
            "mean_score_abar": float(self.mean_score_abar),
            "threshold_tau": float(self.threshold_tau),
            "target_fpr": float(self.target_fpr),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CusumDetector":
        return cls(**{name: finite_field(d, name, "cusum detector")
                      for name in ("mean_score_abar", "threshold_tau", "target_fpr")})


def _clamped_step(statistic: float, score: float, mean: float) -> float:
    """One step of the clamped recursion; a NaN score leaves it unchanged.
    Calibration and the online rule both advance the statistic only here."""
    if score != score:
        return statistic
    return max(0.0, statistic + score - mean)


def _clamped_walk(scores, mean: float):
    """The statistic S_t after each step of ``scores``, started at 0."""
    statistic = 0.0
    for score in np.asarray(scores, dtype=float).tolist():
        statistic = _clamped_step(statistic, score, mean)
        yield statistic


class CusumMonitor:
    """Single-stream online CUSUM state; one instance per monitored episode."""

    def __init__(self, detector: CusumDetector):
        self.detector = detector
        self.statistic = 0.0
        self.alerted = False

    def update(self, score: float) -> bool:
        """Advance one step; returns True at (and after) the alert. NaN
        scores freeze the statistic."""
        if self.alerted:
            return True
        self.statistic = _clamped_step(self.statistic, score, self.detector.mean_score_abar)
        if self.statistic > self.detector.threshold_tau:
            self.alerted = True
        return self.alerted


def split_halves(num_items: int, seed: int) -> tuple:
    """Seeded shuffle of item indices split into two halves."""
    perm = rng_from(seed, "calibration_split").permutation(num_items)
    half = num_items // 2
    return perm[:half], perm[half:]


def max_clamped_excursion(scores, mean: float) -> float:
    """Running maximum of the clamped recursion S_t = max(0, S_{t-1} + A_t -
    mean), started at 0, ignoring NaN entries; bit for bit the largest
    statistic a :class:`CusumMonitor` reaches on the same stream."""
    return max(_clamped_walk(scores, mean), default=0.0)


def percentile_threshold(maxima, target_fpr: float) -> float:
    """(1 - target_fpr) empirical percentile with linear interpolation."""
    return float(np.percentile(np.asarray(maxima, dtype=float), 100.0 * (1.0 - target_fpr)))


def calibrate_from_streams(score_streams, target_fpr: float, seed: int = 0) -> CusumDetector:
    """Calibrate the decision rule from clean-episode score streams.

    ``score_streams`` is a sequence of per-episode score arrays (NaN marks
    undefined warm-up steps). Requires at least two episodes and a target
    false-positive rate in (0, 1).
    """
    if not 0.0 < target_fpr < 1.0:
        raise ConfigError(f"target_fpr must be in (0, 1), got {target_fpr}")
    streams = [np.asarray(s, dtype=float) for s in score_streams]
    if len(streams) < 2:
        raise ConfigError("calibration requires at least 2 episodes")

    first, second = split_halves(len(streams), seed)
    pooled = np.concatenate([streams[i] for i in first])
    pooled = pooled[~np.isnan(pooled)]
    if pooled.size == 0:
        raise ConfigError("no defined scores in the reference half")
    abar = float(pooled.mean())

    maxima = [max_clamped_excursion(streams[i], abar) for i in second]
    tau = percentile_threshold(maxima, target_fpr)
    return CusumDetector(mean_score_abar=abar, threshold_tau=tau, target_fpr=float(target_fpr))


def first_alert_step(detector: CusumDetector, scores) -> int | None:
    """Index of the first alert when feeding ``scores`` through a fresh
    monitor, or None if the stream ends without an alert."""
    walk = _clamped_walk(scores, detector.mean_score_abar)
    return next((t for t, statistic in enumerate(walk) if statistic > detector.threshold_tau), None)
