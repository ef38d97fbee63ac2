"""The CUSUM core shared by every detector: the clamped recursion, its
split-half calibration and the first-crossing alert rule.

``clamped_step`` is the one implementation of ``S_t = max(0, S_{t-1} + x_t -
k)``; a NaN input (e.g. during window warm-up) leaves the statistic
unchanged. DEXTER+C and PEDM-C run it on anomaly scores with ``k`` the mean
reference score; the mean-shift baseline runs it twice per coordinate, on the
standardized observation and on its negation, with ``k`` the allowance kappa.

Calibration (``calibrate_split_half``) consumes clean episodes: they are
shuffled with a seeded permutation and split in half; the first half fits
the reference; on each second-half episode the statistic is walked and its
running maximum recorded; the alert threshold is the (1 - target_fpr)
empirical percentile (linear interpolation) of those maxima.

Online, the identical walk raises an alert at the first step with ``S_t >
threshold`` (``first_crossing``). Calibrating on the same statistic the
online rule monitors is what makes the measured episode false-positive rate
track the configured target.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IncompatibleModelError, read_field
from .seeding import rng_from


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
        """The rule of a model document. Calibration yields a threshold of at
        least 0 (a percentile of running maxima of a statistic clamped at 0)
        and a target in (0, 1), so a document holding anything else is
        refused."""
        detector = cls(**{name: read_field(d, name, "cusum detector")
                          for name in ("mean_score_abar", "threshold_tau", "target_fpr")})
        check_calibrated("cusum detector", "threshold_tau", detector.threshold_tau, detector.target_fpr)
        return detector


def check_calibrated(owner: str, name: str, threshold: float, target_fpr: float):
    """Refuse a loaded threshold ``name`` below 0 or target outside (0, 1)."""
    if threshold < 0.0:
        raise IncompatibleModelError(f"{owner} {name} {threshold} < 0")
    if not 0.0 < target_fpr < 1.0:
        raise IncompatibleModelError(f"{owner} target_fpr {target_fpr} outside (0, 1)")


def clamped_step(statistic: float, score: float, mean: float) -> float:
    """One step of the clamped recursion; a NaN score leaves it unchanged.
    Every CUSUM of the package, calibrating or monitoring, advances its
    statistic only here."""
    if score != score:
        return statistic
    return max(0.0, statistic + score - mean)


def _clamped_walk(mean: float, scores):
    """The statistic S_t after each step of ``scores``, started at 0."""
    statistic = 0.0
    for score in np.asarray(scores, dtype=float).tolist():
        statistic = clamped_step(statistic, score, mean)
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
        self.statistic = clamped_step(self.statistic, score, self.detector.mean_score_abar)
        if self.statistic > self.detector.threshold_tau:
            self.alerted = True
        return self.alerted


def split_halves(num_items: int, seed: int) -> tuple:
    """Seeded shuffle of item indices split into two halves."""
    perm = rng_from(seed, "calibration_split").permutation(num_items)
    half = num_items // 2
    return perm[:half], perm[half:]


def percentile_threshold(maxima, target_fpr: float) -> float:
    """(1 - target_fpr) empirical percentile with linear interpolation."""
    return float(np.percentile(np.asarray(maxima, dtype=float), 100.0 * (1.0 - target_fpr)))


def calibrate_split_half(items, target_fpr: float, seed: int, reference, walk) -> tuple:
    """The split-half calibration of the module docstring, for any CUSUM:
    ``reference`` fits the reference on the list of first-half ``items``;
    ``walk(ref, item)`` yields the statistic after each step of an item.
    Returns ``(ref, threshold)``. Requires at least two items and a target
    false-positive rate in (0, 1).
    """
    if not 0.0 < target_fpr < 1.0:
        raise ConfigError(f"target_fpr must be in (0, 1), got {target_fpr}")
    items = list(items)
    if len(items) < 2:
        raise ConfigError("calibration requires at least 2 episodes")
    first, second = split_halves(len(items), seed)
    ref = reference([items[i] for i in first])
    maxima = [max(walk(ref, items[i]), default=0.0) for i in second]
    return ref, percentile_threshold(maxima, target_fpr)


def first_crossing(walk, threshold: float) -> int | None:
    """Index of the first statistic of ``walk`` above ``threshold``, or None
    if the walk ends without one."""
    return next((t for t, statistic in enumerate(walk) if statistic > threshold), None)


def _mean_defined_score(streams) -> float:
    pooled = np.concatenate(streams)
    pooled = pooled[~np.isnan(pooled)]
    if pooled.size == 0:
        raise ConfigError("no defined scores in the reference half")
    return float(pooled.mean())


def calibrate_from_streams(score_streams, target_fpr: float, seed: int = 0) -> CusumDetector:
    """Calibrate the decision rule from clean-episode score streams; the
    reference is the mean defined score of the first half.

    ``score_streams`` is a sequence of per-episode score arrays (NaN marks
    undefined warm-up steps). Requires at least two episodes and a target
    false-positive rate in (0, 1).
    """
    streams = [np.asarray(s, dtype=float) for s in score_streams]
    abar, tau = calibrate_split_half(streams, target_fpr, seed, _mean_defined_score, _clamped_walk)
    return CusumDetector(mean_score_abar=abar, threshold_tau=tau, target_fpr=float(target_fpr))


def first_alert_step(detector: CusumDetector, scores) -> int | None:
    """Index of the first alert when feeding ``scores`` through a fresh
    monitor, or None if the stream ends without an alert."""
    return first_crossing(_clamped_walk(detector.mean_score_abar, scores), detector.threshold_tau)
