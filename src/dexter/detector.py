"""DEXTER: per-dimension time-series features + isolation-forest scoring,
with a calibrated CUSUM decision rule on top.

Training partitions each clean episode's observation sequence into
consecutive non-overlapping windows of size W, extracts the feature
catalogue per window and dimension, and fits one isolation forest per state
dimension. At test time a window slides by one step; the anomaly score A_t
for step t >= W-1 is the arithmetic mean over dimensions of each forest's
score for the window ending at t. Scores are undefined (NaN) for t < W-1,
and the CUSUM statistic stays frozen during that warm-up.
"""

from dataclasses import dataclass

import numpy as np

from . import isolation_forest as iforest
from . import ts_features
from .cusum import CusumDetector, calibrate_from_streams, first_alert_step
from .errors import ConfigError, DataError, IncompatibleModelError
from .seeding import child_seed

DEFAULT_WINDOW = 10


@dataclass(frozen=True)
class ScoreSeries:
    """Per-timestep anomaly scores for one episode; NaN marks the undefined
    warm-up steps t < W-1."""

    scores: np.ndarray

    def defined(self) -> np.ndarray:
        return self.scores[~np.isnan(self.scores)]


@dataclass
class DexterModel:
    """One isolation forest per state dimension, sharing a window size."""

    forests: list
    window_size: int
    feature_manifest_hash: str

    @property
    def num_dimensions(self) -> int:
        return len(self.forests)

    def to_json_dict(self) -> dict:
        return {
            "window_size": int(self.window_size),
            "feature_manifest_hash": self.feature_manifest_hash,
            "forests": [f.to_json_dict() for f in self.forests],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DexterModel":
        return cls(
            forests=[iforest.IsolationForestModel.from_json_dict(f) for f in d["forests"]],
            window_size=int(d["window_size"]),
            feature_manifest_hash=d["feature_manifest_hash"],
        )


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
    the window are rejected.
    """
    episodes = list(dataset)
    if not episodes:
        raise DataError("training dataset is empty")
    if window_size < ts_features.MIN_WINDOW:
        raise ConfigError(f"window_size must be >= {ts_features.MIN_WINDOW}")

    matrices = [_observation_matrix(ep) for ep in episodes]
    too_short = [i for i, m in enumerate(matrices) if m.shape[0] < window_size]
    if too_short:
        raise DataError(f"episodes shorter than window {window_size}: indices {too_short}")
    dims = {m.shape[1] for m in matrices}
    if len(dims) != 1:
        raise DataError(f"episodes disagree on state dimension: {sorted(dims)}")
    num_dims = dims.pop()

    per_dim_features = [[] for _ in range(num_dims)]
    for matrix in matrices:
        windows = training_windows(matrix, window_size)
        for d in range(num_dims):
            per_dim_features[d].append(ts_features.extract_features_batch(windows[:, :, d]))

    # All dimensions use one shared sub-seed: forests over identical data are
    # identical, and results stay reproducible from the master seed.
    forest_seed = child_seed(seed, "forest")
    manifest_hash = ts_features.catalogue_hash()
    forests = []
    for d in range(num_dims):
        model = iforest.fit(
            np.concatenate(per_dim_features[d]),
            num_trees=num_trees,
            subsample=subsample,
            seed=forest_seed,
        )
        model.feature_manifest_hash = manifest_hash
        forests.append(model)
    return DexterModel(forests=forests, window_size=window_size, feature_manifest_hash=manifest_hash)


def _check_compat(model: DexterModel, observations: np.ndarray):
    if observations.shape[1] != model.num_dimensions:
        raise IncompatibleModelError(
            f"observation dimension {observations.shape[1]} != model dimension {model.num_dimensions}"
        )
    if model.feature_manifest_hash != ts_features.catalogue_hash():
        raise IncompatibleModelError("model was built with a different feature catalogue")


def score_stream(model: DexterModel, episode) -> ScoreSeries:
    """Anomaly score A_t for every timestep of an episode.

    A_t is defined for t >= W-1 as the mean over dimensions of the forest
    scores for the sliding window ending at t; earlier entries are NaN.
    """
    obs = _observation_matrix(episode)
    _check_compat(model, obs)
    length, num_dims = obs.shape
    scores = np.full(length, np.nan)
    if length >= model.window_size:
        acc = np.zeros(length - model.window_size + 1)
        for d in range(num_dims):
            windows = ts_features.sliding_windows(obs[:, d], model.window_size)
            feats = ts_features.extract_features_batch(windows)
            acc += iforest.score_batch(model.forests[d], feats)
        scores[model.window_size - 1 :] = acc / num_dims
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
    num_steps: int

    @property
    def alerted(self) -> bool:
        return self.alert_step is not None


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
    return DetectorVerdict(alert_step=step, num_steps=len(series.scores))
