"""Metrics and the experiment orchestrator.

AUROC is the rank statistic (probability that a random anomalous transition
outscores a random in-distribution one, ties counted half) reported
two-sided as max(AUROC, 1 - AUROC). Detection time is the number of steps
from the injection to the alert, capped at the horizon for undetected
episodes; alerts raised before the injection are counted separately as
episode-level false positives and excluded from the mean.

``run_experiment`` reproduces the benchmark protocol for one scenario and
one detector: generate clean training data, train, calibrate the decision
rule on clean validation episodes, then measure AUROC and detection time on
injected test episodes and the false-positive rate on a held-out clean test
set. Everything is a deterministic function of the master seed.
"""

from dataclasses import dataclass, field

import numpy as np

from . import baselines, detector as dexter_detector
from .cusum import CusumDetector
from .environments import BaseEnv, PolicyKind, ScenarioConfig, builtin_policy, estimate_dimension_scales, run_episode
from .errors import ConfigError, IncompatibleModelError, UndefinedMetricError
from .seeding import child_seed

DETECTOR_KINDS = ("dexter", "pedm", "meanshift")

# Harness-level detector defaults. The isolation-forest ensemble is larger
# than the textbook defaults of the fit() operation (100 trees of 256 rows).
# On the ARTS one-step acceptance config (one seed, README "Forest subsample
# size") a cap of 8000 rows gave the highest AUROC (0.976 against 0.968 at
# 256); detection time was not measurably better (40.4 against 41.8 steps).
DEFAULT_DETECTOR_PARAMS = {
    "dexter": {"window_size": 10, "num_trees": 300, "subsample_cap": 8000},
    "pedm": {"ensemble_size": 5},
    "meanshift": {"kappa": 0.5},
}


@dataclass(frozen=True)
class EpisodeCounts:
    num_train: int = 400
    num_validation: int = 200
    num_test: int = 50
    num_clean_test: int = 200

    def to_json_dict(self) -> dict:
        return {
            "num_train": self.num_train,
            "num_validation": self.num_validation,
            "num_test": self.num_test,
            "num_clean_test": self.num_clean_test,
        }


@dataclass(frozen=True)
class LabeledScoreSet:
    """Pooled (score, label) pairs; label True marks anomalous transitions."""

    scores: np.ndarray
    labels: np.ndarray
    episode_ids: tuple = ()


def _tie_averaged_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    boundaries = np.nonzero(np.diff(sorted_vals))[0] + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(values)]])
    group_rank = (starts + ends - 1) / 2.0 + 1.0
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(group_rank, ends - starts)
    return ranks


def auroc_raw(scores, labels) -> float:
    """Rank-statistic AUROC: P(anomalous score > in-distribution score),
    ties counted half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    num_pos = int(labels.sum())
    num_neg = int(labels.size - num_pos)
    if num_pos == 0 or num_neg == 0:
        raise UndefinedMetricError("AUROC requires both anomalous and in-distribution scores")
    ranks = _tie_averaged_ranks(scores)
    return float((ranks[labels].sum() - num_pos * (num_pos + 1) / 2.0) / (num_pos * num_neg))


def auroc(labeled: LabeledScoreSet) -> float:
    """Two-sided AUROC: max(AUROC, 1 - AUROC), in [0.5, 1]."""
    raw = auroc_raw(labeled.scores, labeled.labels)
    return max(raw, 1.0 - raw)


@dataclass(frozen=True)
class DetectionTimeResult:
    mean_detection_time: float | None
    num_detected: int
    num_missed: int
    num_pre_injection_alerts: int

    @property
    def detected_fraction(self) -> float | None:
        denom = self.num_detected + self.num_missed
        return None if denom == 0 else self.num_detected / denom


def detection_time(alert_steps, injection_times, horizon: int) -> DetectionTimeResult:
    """Mean steps-to-detect over injected episodes.

    Per episode: alert at step >= t_a counts (alert - t_a); no alert counts
    the horizon; an alert before t_a is an episode-level false positive,
    reported separately and excluded from the mean.
    """
    times = []
    pre_alerts = 0
    detected = 0
    for alert, t_a in zip(alert_steps, injection_times):
        if alert is None:
            times.append(float(horizon))
        elif alert < t_a:
            pre_alerts += 1
        else:
            times.append(float(alert - t_a))
            detected += 1
    mean = float(np.mean(times)) if times else None
    return DetectionTimeResult(
        mean_detection_time=mean,
        num_detected=detected,
        num_missed=len(times) - detected,
        num_pre_injection_alerts=pre_alerts,
    )


class TrainedDetector:
    """Uniform wrapper around the three detector kinds.

    Exposes per-transition scores (entry i scores the transition into
    observation i+1; NaN where undefined) and online alert steps reported as
    destination observation indices, so all detectors compare on the same
    timeline.
    """

    def __init__(self, kind: str, params: dict, model=None, decision: CusumDetector | None = None):
        if kind not in DETECTOR_KINDS:
            raise ConfigError(f"unknown detector kind {kind!r}; expected one of {DETECTOR_KINDS}")
        self.kind = kind
        self.params = dict(params)
        self.model = model
        self.decision = decision

    def calibrated(self) -> bool:
        if self.kind == "meanshift":
            return self.model is not None
        return self.decision is not None

    def transition_scores(self, episode) -> np.ndarray:
        if self.kind == "dexter":
            series = dexter_detector.score_stream(self.model, episode)
            return series.scores[1:]
        if self.kind == "pedm":
            return baselines.pedm_episode_scores(self.model, episode)
        if self.model is None:
            raise ConfigError("mean-shift detector is not calibrated")
        return baselines.meanshift_episode_scores(self.model, episode)

    def alert_step(self, episode) -> int | None:
        if not self.calibrated():
            raise ConfigError(f"{self.kind} detector is not calibrated")
        if self.kind == "dexter":
            return dexter_detector.detect_online(self.decision, self.model, episode).alert_step
        if self.kind == "pedm":
            return baselines.pedm_detect_online(self.decision, self.model, episode)
        return baselines.meanshift_detect_online(self.model, episode)

    def to_json_dict(self) -> dict:
        doc = {
            "kind": self.kind,
            "params": self.params,
            "model": None if self.model is None else self.model.to_json_dict(),
        }
        if self.kind in ("dexter", "pedm"):
            doc["cusum"] = None if self.decision is None else self.decision.to_json_dict()
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TrainedDetector":
        kind = doc.get("kind") if isinstance(doc, dict) else None
        if kind not in DETECTOR_KINDS:
            raise IncompatibleModelError(
                f"detector document has missing or unknown kind {kind!r}; expected one of {DETECTOR_KINDS}"
            )
        model = None
        decision = None
        if doc.get("model") is not None:
            if kind == "dexter":
                model = dexter_detector.DexterModel.from_json_dict(doc["model"])
            elif kind == "pedm":
                model = baselines.DynamicsModelEnsemble.from_json_dict(doc["model"])
            else:
                model = baselines.MeanShiftDetector.from_json_dict(doc["model"])
        if doc.get("cusum") is not None:
            decision = CusumDetector.from_json_dict(doc["cusum"])
        return cls(kind=kind, params=doc.get("params", {}), model=model, decision=decision)


def detector_params_with_defaults(kind: str, overrides: dict | None = None) -> dict:
    if kind not in DETECTOR_KINDS:
        raise ConfigError(f"unknown detector kind {kind!r}; expected one of {DETECTOR_KINDS}")
    params = dict(DEFAULT_DETECTOR_PARAMS[kind])
    for key, value in (overrides or {}).items():
        if key not in params:
            raise ConfigError(f"unknown {kind} parameter {key!r}; known: {sorted(params)}")
        params[key] = value
    return params


def train_detector(kind: str, train_episodes, params: dict | None = None, seed: int = 0) -> TrainedDetector:
    params = detector_params_with_defaults(kind, params)
    if kind == "dexter":
        num_windows = sum(
            np.asarray(ep.observations).shape[0] // params["window_size"] for ep in train_episodes
        )
        model = dexter_detector.train(
            train_episodes,
            window_size=params["window_size"],
            num_trees=params["num_trees"],
            subsample=min(params["subsample_cap"], num_windows),
            seed=seed,
        )
        return TrainedDetector(kind, params, model=model)
    if kind == "pedm":
        model = baselines.fit_dynamics_from_episodes(
            train_episodes, ensemble_size=params["ensemble_size"], seed=seed
        )
        return TrainedDetector(kind, params, model=model)
    # The mean-shift detector has no training stage separate from
    # calibration: reference statistics come from the validation split.
    return TrainedDetector(kind, params)


def calibrate_detector(trained: TrainedDetector, validation_episodes, target_fpr: float,
                       seed: int = 0) -> TrainedDetector:
    if trained.kind == "meanshift":
        trained.model = baselines.fit_meanshift(
            validation_episodes, target_fpr, kappa=trained.params["kappa"], seed=seed
        )
        return trained
    if trained.kind == "dexter":
        trained.decision = dexter_detector.calibrate(
            trained.model, validation_episodes, target_fpr, seed=seed
        )
        return trained
    trained.decision = baselines.pedm_cusum(
        trained.model, validation_episodes, target_fpr, seed=seed
    )
    return trained


@dataclass
class ExperimentResult:
    scenario_id: str
    detector_id: str
    auroc: float
    auroc_raw: float
    per_episode_auroc: float | None
    mean_detection_time: float | None
    detected_fraction: float | None
    num_pre_injection_alerts: int
    fpr_measured: float
    num_test_episodes: int
    num_unusable_episodes: int
    master_seed: int
    target_fpr: float
    warmup_excluded_transitions: int
    counts: EpisodeCounts
    detector_params: dict
    per_episode: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "detector_id": self.detector_id,
            "auroc": self.auroc,
            "auroc_raw": self.auroc_raw,
            "per_episode_auroc": self.per_episode_auroc,
            "mean_detection_time": self.mean_detection_time,
            "detected_fraction": self.detected_fraction,
            "num_pre_injection_alerts": self.num_pre_injection_alerts,
            "fpr_measured": self.fpr_measured,
            "num_test_episodes": self.num_test_episodes,
            "num_unusable_episodes": self.num_unusable_episodes,
            "master_seed": self.master_seed,
            "target_fpr": self.target_fpr,
            "warmup_excluded_transitions": self.warmup_excluded_transitions,
            "counts": self.counts.to_json_dict(),
            "detector_params": self.detector_params,
            "per_episode": self.per_episode,
        }


def resolve_policy(config: ScenarioConfig, policy_kind=None):
    """Policy for a scenario: heuristic for cartpole by default, random for
    the constant base and for acrobot (whose heuristic ends episodes early at
    the goal, which starves injected episodes of post-injection steps)."""
    if policy_kind is None:
        policy_kind = PolicyKind.RANDOM if config.base_env in (BaseEnv.CONSTANT, BaseEnv.ACROBOT) else PolicyKind.HEURISTIC
    return PolicyKind(policy_kind), builtin_policy(config.base_env, policy_kind)


def resolve_scales(config: ScenarioConfig, policy, master_seed: int) -> ScenarioConfig:
    if config.per_dimension_scale is not None or config.base_env is BaseEnv.CONSTANT:
        return config
    scales = estimate_dimension_scales(
        config.base_env, policy, num_episodes=50, horizon=config.horizon,
        seed=child_seed(master_seed, "dimension_scales"),
    )
    return ScenarioConfig(
        scenario=config.scenario,
        base_env=config.base_env,
        noise_pre=config.noise_pre,
        noise_post=config.noise_post,
        injection_window=config.injection_window,
        horizon=config.horizon,
        per_dimension_scale=tuple(float(s) for s in scales),
    )


def generate_episodes(config: ScenarioConfig, policy, bank: str, count: int, master_seed: int,
                      inject: bool) -> list:
    return [
        run_episode(config, policy, child_seed(master_seed, bank, i), inject=inject)
        for i in range(count)
    ]


def _labeled_transitions(trained: TrainedDetector, episode, warmup: int):
    """One episode's (scores, labels) after its first ``warmup`` transitions,
    with undefined (NaN) scores dropped."""
    scores = trained.transition_scores(episode)[warmup:]
    labels = np.asarray(episode.labels, dtype=bool)[warmup:]
    keep = ~np.isnan(scores)
    return scores[keep], labels[keep]


def _pool(parts) -> LabeledScoreSet:
    return LabeledScoreSet(
        scores=np.concatenate([s for s, _ in parts]) if parts else np.empty(0),
        labels=np.concatenate([l for _, l in parts]) if parts else np.empty(0, dtype=bool),
        episode_ids=tuple(range(len(parts))),
    )


def pooled_scores(trained: TrainedDetector, episodes, warmup: int) -> LabeledScoreSet:
    """Per-transition scores pooled across episodes, excluding the first
    ``warmup`` transitions of each episode (undefined-window region applied
    symmetrically to every detector)."""
    return _pool([_labeled_transitions(trained, ep, warmup) for ep in episodes])


def measure_detector(trained: TrainedDetector, test_episodes, clean_episodes, horizon: int,
                     warmup: int, scenario_id: str, master_seed: int, target_fpr: float,
                     counts: EpisodeCounts, num_unusable: int = 0) -> ExperimentResult:
    """Metric bundle for an already trained and calibrated detector: pooled
    and per-episode AUROC on injected episodes, detection time, and the
    clean-episode false-positive rate."""
    usable = [ep for ep in test_episodes if ep.usable]
    num_unusable += len(test_episodes) - len(usable)

    # Each episode is scored once for both AUROCs; alert_step below repeats
    # the scoring because it is the full online decision.
    parts = [_labeled_transitions(trained, ep, warmup) for ep in usable]
    pooled = _pool(parts)
    raw = auroc_raw(pooled.scores, pooled.labels)

    per_ep_vals = []
    for scores, labels in parts:
        if labels.any() and not labels.all():
            r = auroc_raw(scores, labels)
            per_ep_vals.append(max(r, 1.0 - r))

    alert_steps = [trained.alert_step(ep) for ep in usable]
    injections = [ep.injection_time for ep in usable]
    dt = detection_time(alert_steps, injections, horizon)

    false_alerts = sum(trained.alert_step(ep) is not None for ep in clean_episodes)
    fpr_measured = false_alerts / len(clean_episodes) if clean_episodes else 0.0

    per_episode = [
        {
            "seed": int(ep.seed),
            "injection_time": ep.injection_time,
            "length": int(ep.length),
            "alert_step": alert,
            "usable": bool(ep.usable),
        }
        for ep, alert in zip(usable, alert_steps)
    ]

    return ExperimentResult(
        scenario_id=scenario_id,
        detector_id=trained.kind,
        auroc=float(max(raw, 1.0 - raw)),
        auroc_raw=float(raw),
        per_episode_auroc=float(np.mean(per_ep_vals)) if per_ep_vals else None,
        mean_detection_time=dt.mean_detection_time,
        detected_fraction=dt.detected_fraction,
        num_pre_injection_alerts=dt.num_pre_injection_alerts,
        fpr_measured=float(fpr_measured),
        num_test_episodes=len(usable),
        num_unusable_episodes=num_unusable,
        master_seed=int(master_seed),
        target_fpr=float(target_fpr),
        warmup_excluded_transitions=warmup,
        counts=counts,
        detector_params=dict(trained.params),
        per_episode=per_episode,
    )


def run_experiment(config: ScenarioConfig, detector_kind: str, master_seed: int,
                   counts: EpisodeCounts = EpisodeCounts(), target_fpr: float = 0.01,
                   policy_kind=None, detector_params: dict | None = None,
                   scenario_id: str | None = None) -> ExperimentResult:
    """Full train/calibrate/evaluate cycle for one scenario and detector."""
    params = detector_params_with_defaults(detector_kind, detector_params)
    policy_kind, policy = resolve_policy(config, policy_kind)
    config = resolve_scales(config, policy, master_seed)
    warmup = params.get("window_size", DEFAULT_DETECTOR_PARAMS["dexter"]["window_size"]) - 1

    train_eps = generate_episodes(config, policy, "train", counts.num_train, master_seed, inject=False)
    val_eps = generate_episodes(config, policy, "validation", counts.num_validation, master_seed, inject=False)
    test_eps = generate_episodes(config, policy, "test", counts.num_test, master_seed, inject=True)
    clean_test_eps = generate_episodes(config, policy, "clean_test", counts.num_clean_test, master_seed, inject=False)

    trained = train_detector(detector_kind, train_eps, params, seed=child_seed(master_seed, "detector"))
    calibrate_detector(trained, val_eps, target_fpr, seed=child_seed(master_seed, "calibration"))

    return measure_detector(
        trained, test_eps, clean_test_eps, config.horizon, warmup,
        scenario_id=scenario_id or f"{config.scenario.value}/{config.noise_post.correlation_mode.value}",
        master_seed=master_seed, target_fpr=target_fpr, counts=counts,
    )
