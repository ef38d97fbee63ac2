"""DEXTER: per-dimension time-series features + isolation-forest scoring,
with a calibrated CUSUM decision rule on top.

Training partitions each clean episode's observation sequence into
consecutive non-overlapping windows of size W, extracts the feature
catalogue per window and dimension, and fits one isolation forest per state
dimension. At test time a window slides by one step; the anomaly score A_t
for step t >= W-1 is the arithmetic mean over dimensions of each forest's
score for the window ending at t. Scores are undefined (NaN) for t < W-1,
and the CUSUM statistic stays frozen during that warm-up. ``score_stream``
scores a whole episode at once; ``DexterStream`` scores it one observation
at a time, as a monitor running beside the system would. Both compute the
mean through one kernel, so they give the same scores and alerts.

A model is always of the running feature catalogue: ``to_json_dict``
writes the catalogue's hash, and ``DexterModel.from_json_dict`` refuses a
document of another catalogue or with forests of another feature count.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import isolation_forest as iforest
from . import ts_features
from .cusum import CusumDetector, CusumMonitor, calibrate_from_streams, first_alert_step
from .errors import ConfigError, DataError, IncompatibleModelError, read_field
from .seeding import child_seed

DEFAULT_WINDOW = 10


@dataclass(frozen=True)
class ScoreSeries:
    """Per-timestep anomaly scores for one episode; NaN marks the undefined
    warm-up steps t < W-1."""

    scores: np.ndarray


@dataclass
class DexterModel:
    """One isolation forest per state dimension, sharing a window size."""

    forests: list
    window_size: int

    @property
    def num_dimensions(self) -> int:
        return len(self.forests)

    def to_json_dict(self) -> dict:
        return {
            "window_size": int(self.window_size),
            "feature_manifest_hash": ts_features.catalogue_hash(),
            "forests": [f.to_json_dict() for f in self.forests],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DexterModel":
        owner = "dexter model"
        forests = read_field(d, "forests", owner, list)
        window_size = read_field(d, "window_size", owner, int)
        if read_field(d, "feature_manifest_hash", owner, str) != ts_features.catalogue_hash():
            raise IncompatibleModelError("dexter model was built with a different feature catalogue")
        if not forests:
            raise IncompatibleModelError("dexter model has no forests")
        if window_size < ts_features.MIN_WINDOW:
            raise IncompatibleModelError(
                f"dexter model window_size {window_size} < minimum {ts_features.MIN_WINDOW}"
            )
        forests = [iforest.IsolationForestModel.from_json_dict(f) for f in forests]
        for forest in forests:
            if forest.feature_count != ts_features.FEATURE_COUNT:
                raise IncompatibleModelError(f"dexter model forest feature_count {forest.feature_count} "
                                             f"!= catalogue's {ts_features.FEATURE_COUNT}")
        return cls(forests=forests, window_size=window_size)


def _observation_matrix(episode) -> np.ndarray:
    obs = np.asarray(getattr(episode, "observations", episode), dtype=float)
    if obs.ndim == 1:
        obs = obs[:, None]
    return obs


def training_windows(observations: np.ndarray, window_size: int) -> np.ndarray:
    """Consecutive non-overlapping windows (remainder discarded): shape
    (num_windows, window_size, num_dimensions)."""
    num = observations.shape[0] // window_size
    return observations[: num * window_size].reshape(num, window_size, observations.shape[1])


def train(dataset, window_size: int = DEFAULT_WINDOW, num_trees: int = iforest.DEFAULT_NUM_TREES,
          subsample: int | None = None, seed: int = 0) -> DexterModel:
    """Fit DEXTER on clean (in-distribution) episodes.

    Every per-dimension forest is trained on that dimension's feature vectors
    pooled over all episodes' non-overlapping windows. Episodes shorter than
    the window yield no window and are skipped; a dataset where every
    episode is that short, observations of no column and observations so
    large that their features overflow are rejected.
    """
    episodes = list(dataset)
    if not episodes:
        raise DataError("training dataset is empty")
    if window_size < ts_features.MIN_WINDOW:
        raise ConfigError(f"window_size must be >= {ts_features.MIN_WINDOW}")

    matrices = [_observation_matrix(ep) for ep in episodes]
    dims = {m.shape[1] for m in matrices}
    if len(dims) != 1:
        raise DataError(f"episodes disagree on state dimension: {sorted(dims)}")
    num_dims = dims.pop()
    if num_dims == 0:
        raise DataError("episode observations have 0 columns; a forest needs at least one")
    matrices = [m for m in matrices if m.shape[0] >= window_size]
    if not matrices:
        raise DataError(f"all {len(episodes)} episodes are shorter than window {window_size}")

    # One extraction call over every window of every dimension: dimension
    # by dimension, and within one, episode by episode in order. The joined
    # (D, windows, W) copy is freed once it is extracted.
    all_features = ts_features.extract_features_batch(np.concatenate(
        [training_windows(m, window_size).transpose(2, 0, 1) for m in matrices], axis=1,
    ).reshape(-1, window_size))
    num_windows = all_features.shape[0] // num_dims

    # All dimensions use one shared sub-seed: forests over identical data are
    # identical, and results stay reproducible from the master seed.
    forest_seed = child_seed(seed, "forest")
    forests = []
    for d in range(num_dims):
        features = all_features[d * num_windows:(d + 1) * num_windows]
        # Finite observations of magnitude above ~1e154 overflow the
        # squared-value features; a forest split on them is meaningless.
        if not np.isfinite(features).all():
            raise DataError(f"dimension {d}: window features overflow; observations are too large")
        forests.append(iforest.fit(
            features,
            num_trees=num_trees,
            subsample=subsample,
            seed=forest_seed,
        ))
    return DexterModel(forests=forests, window_size=window_size)


def _mean_scores(model: DexterModel, windows: np.ndarray) -> np.ndarray:
    """The anomaly score of each of ``count`` windows: ``windows`` holds
    dimension d's windows in rows d * count to (d + 1) * count. One
    extraction call covers them all, forest d scores its dimension's rows,
    and the per-dimension scores are summed in dimension order from 0.0 and
    divided by D."""
    count = windows.shape[0] // model.num_dimensions
    features = ts_features.extract_features_batch(windows)
    total = np.zeros(count)
    for d, forest in enumerate(model.forests):
        total += iforest.score_batch(forest, features[d * count:(d + 1) * count])
    return total / model.num_dimensions


def score_stream(model: DexterModel, episode) -> ScoreSeries:
    """Anomaly score A_t for every timestep of an episode.

    A_t is defined for t >= W-1 as the mean over dimensions of the forest
    scores for the sliding window ending at t; earlier entries are NaN.
    """
    obs = _observation_matrix(episode)
    length, num_dims = obs.shape
    if num_dims != model.num_dimensions:
        raise IncompatibleModelError(
            f"observation dimension {num_dims} != model dimension {model.num_dimensions}"
        )
    scores = np.full(length, np.nan)
    if length >= model.window_size:
        scores[model.window_size - 1 :] = _mean_scores(model, np.concatenate(
            [ts_features.sliding_windows(obs[:, d], model.window_size) for d in range(num_dims)]))
    return ScoreSeries(scores=scores)


def calibrate(model: DexterModel, validation, target_fpr: float, seed: int = 0) -> CusumDetector:
    """Calibrate the CUSUM rule on clean validation episodes (must be
    disjoint from the training data)."""
    episodes = list(validation)
    streams = [score_stream(model, ep).scores for ep in episodes]
    return calibrate_from_streams(streams, target_fpr, seed=seed)


@dataclass(frozen=True)
class DetectorVerdict:
    """Outcome of online monitoring: the alert step (observation index), or
    None when the stream ends without an alert."""

    alert_step: int | None


def detect_online(detector: CusumDetector, model: DexterModel, episode) -> DetectorVerdict:
    """Run the clamped CUSUM over an episode's score stream; alert at the
    first step whose statistic exceeds the calibrated threshold.

    The per-step scores are computed by the same code path as
    :func:`score_stream`, so both views of an episode agree bit-exactly.
    """
    if detector is None:
        raise ConfigError("detector has not been calibrated")
    series = score_stream(model, episode)
    step = first_alert_step(detector, series.scores)
    return DetectorVerdict(alert_step=step)


class DexterStream:
    """Online DEXTER+C over one episode, one observation at a time.

    The stream keeps the last W values of every dimension. ``push`` scores
    the window that ends at the new observation and advances a
    :class:`CusumMonitor` with that score; it returns ``(score, alerted)``.
    The score is NaN until W observations have arrived, and ``alerted``
    stays True from the first alert on. Scores and alerts equal
    :func:`score_stream` and :func:`detect_online` on the same episode bit
    for bit: the D windows go through the kernel that scores a whole
    episode, as a count of one window per dimension, and the features of a
    window do not depend on the batch it is extracted in. The model's
    catalogue was checked when it was read.

    ``push`` checks the observation before it changes any state. One of
    the wrong width raises :class:`IncompatibleModelError`, and one with a
    non-finite or non-numeric value raises :class:`DataError`. After either
    error the stream is as it was, so the next observation continues it.
    """

    def __init__(self, model: DexterModel, decision: CusumDetector):
        if decision is None:
            raise ConfigError("detector has not been calibrated")
        self.model = model
        self.monitor = CusumMonitor(decision)
        self.steps = 0
        self._windows = np.zeros((model.num_dimensions, model.window_size))

    def push(self, observation) -> tuple:
        try:
            obs = np.atleast_1d(np.asarray(observation, dtype=float))
        except (TypeError, ValueError) as exc:
            raise DataError(f"observation is not numeric: {exc}") from exc
        if obs.shape != (self.model.num_dimensions,):
            raise IncompatibleModelError(
                f"observation shape {obs.shape} != model dimension {self.model.num_dimensions}"
            )
        if not np.isfinite(obs).all():
            raise DataError(f"observation contains non-finite values: {obs.tolist()}")
        windows = self._windows
        windows[:, :-1] = windows[:, 1:]
        windows[:, -1] = obs
        self.steps += 1
        score = math.nan
        if self.steps >= self.model.window_size:
            score = float(_mean_scores(self.model, windows)[0])
        return score, self.monitor.update(score)
