"""Metrics and the experiment orchestrator.

AUROC is the rank statistic (probability that a random anomalous transition
outscores a random in-distribution one, ties counted half) reported
two-sided as max(AUROC, 1 - AUROC). Detection time is the number of steps
from the injection to the alert, capped at the horizon for undetected
episodes; alerts raised before the injection are counted separately as
episode-level false positives and excluded from the mean.

``run_experiments`` reproduces the benchmark protocol for one scenario and
several detectors: generate clean training data, train, calibrate the
decision rule on clean validation episodes, then measure AUROC and detection
time on injected test episodes and the false-positive rate on a held-out
clean test set. The banks are generated once and every detector is fitted
and measured on them, so the detectors are compared on the same episodes;
``run_experiment`` is its one-detector case, and ``bench`` runs it once per
correlation mode. Everything is a deterministic function of the master seed.
The stages are ``generate_banks``, ``fit_detector`` and
``measure_detector``; the CLI's ``generate``/``train``/``evaluate`` commands
run the same three.
"""

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import baselines, cusum, detector as dexter_detector
from .environments import BaseEnv, PolicyKind, ScenarioConfig, builtin_policy, estimate_dimension_scales, run_episode
from .errors import (ConfigError, DataError, DexterError, IncompatibleModelError, UndefinedMetricError,
                     is_number, read_field, require)
from .seeding import child_seed


@dataclass(frozen=True)
class EpisodeCounts:
    """The episodes of each bank, non-negative integers; anything else
    raises :class:`ConfigError` naming its field."""

    num_train: int = 400
    num_validation: int = 200
    num_test: int = 50
    num_clean_test: int = 200

    def __post_init__(self):
        for name, count in asdict(self).items():
            require(is_number(count, integer=True) and count >= 0, name, "a non-negative integer", count)
            object.__setattr__(self, name, int(count))


# The episode banks of one experiment, in generation order, and whether their
# episodes are injected. A bank's name is also its seed path and, after
# ``num_``, its ``EpisodeCounts`` field.
BANKS = (("train", False), ("validation", False), ("test", True), ("clean_test", False))


@dataclass(frozen=True)
class LabeledScoreSet:
    """Pooled (score, label) pairs; label True marks anomalous transitions."""

    scores: np.ndarray
    labels: np.ndarray


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


class _Dexter:
    """DEXTER: per-dimension isolation forests over window features, with
    the shared CUSUM decision rule."""

    # Harness-level forest size, larger than the textbook defaults of
    # isolation_forest.fit (100 trees of 256 rows). On the ARTS one-step
    # acceptance config (one seed, README "Forest subsample size") a cap of
    # 8000 rows gave the highest AUROC (0.976 against 0.968 at 256);
    # detection time was not measurably better (40.4 against 41.8 steps).
    defaults = {"window_size": dexter_detector.DEFAULT_WINDOW, "num_trees": 300, "subsample_cap": 8000}
    cusum = True

    def fit(self, episodes, params, seed):
        num_windows = sum(np.asarray(ep.observations).shape[0] // params["window_size"] for ep in episodes)
        return dexter_detector.train(
            episodes,
            window_size=params["window_size"],
            num_trees=params["num_trees"],
            subsample=min(params["subsample_cap"], num_windows),
            seed=seed,
        )

    def load(self, doc):
        return dexter_detector.DexterModel.from_json_dict(doc)

    def scores(self, model, episode):
        return dexter_detector.score_stream(model, episode).scores[1:]

    def window_size(self, model):
        return model.window_size


class _Pedm:
    """PEDM-lite: a dynamics-model ensemble, with the shared CUSUM decision
    rule (PEDM-C-lite)."""

    defaults = {"ensemble_size": baselines.DEFAULT_ENSEMBLE_SIZE}
    cusum = True

    def fit(self, episodes, params, seed):
        return baselines.fit_dynamics_from_episodes(episodes, ensemble_size=params["ensemble_size"], seed=seed)

    def load(self, doc):
        return baselines.DynamicsModelEnsemble.from_json_dict(doc)

    def scores(self, model, episode):
        return baselines.pedm_episode_scores(model, episode)

    def window_size(self, model):
        return dexter_detector.DEFAULT_WINDOW


class _MeanShift:
    """Mean-shift CUSUM: its own sequential test, so the calibrated model is
    the whole detector."""

    defaults = {"kappa": baselines.DEFAULT_KAPPA}
    cusum = False

    def fit(self, episodes, params, seed):
        # No training stage separate from calibration: the reference
        # statistics come from the validation split.
        return None

    def load(self, doc):
        return baselines.MeanShiftDetector.from_json_dict(doc)

    def calibrate(self, trained, episodes, target_fpr, seed):
        trained.model = baselines.fit_meanshift(episodes, target_fpr, kappa=trained.params["kappa"], seed=seed)

    def scores(self, model, episode):
        return baselines.meanshift_episode_scores(model, episode)

    def alert_step(self, trained, episode):
        return baselines.meanshift_detect_online(trained.model, episode)

    def window_size(self, model):
        return dexter_detector.DEFAULT_WINDOW


# The detector kinds by name. ``cusum`` marks the kinds decided by the shared
# CUSUM rule over their transition scores, which ``TrainedDetector`` runs;
# the other kinds bring their own ``calibrate`` and ``alert_step``.
DETECTORS = {"dexter": _Dexter(), "pedm": _Pedm(), "meanshift": _MeanShift()}


def _detector(kind):
    require(isinstance(kind, str) and kind in DETECTORS, "detector kind", f"one of {list(DETECTORS)}", kind)
    return DETECTORS[kind]


class TrainedDetector:
    """Uniform wrapper around the detector kinds of ``DETECTORS``.

    Exposes per-transition scores (entry i scores the transition into
    observation i+1; NaN where undefined) and online alert steps reported as
    destination observation indices, so all detectors compare on the same
    timeline. A CUSUM kind is calibrated and alerts on those scores alone.
    """

    def __init__(self, kind: str, params: dict, model=None, decision: cusum.CusumDetector | None = None):
        self.impl = _detector(kind)
        self.kind = kind
        self.params = dict(params)
        self.model = model
        self.decision = decision

    def calibrated(self) -> bool:
        return (self.decision if self.impl.cusum else self.model) is not None

    @property
    def warmup(self) -> int:
        """Leading transitions of an episode that the AUROCs leave out:
        those before the first full DEXTER window (the model's own window
        for dexter, the default window for the other kinds), so every kind
        is scored on the same transitions."""
        return self.impl.window_size(self.model) - 1

    def transition_scores(self, episode) -> np.ndarray:
        if self.model is None:
            raise ConfigError(f"{self.kind} detector has no model")
        return self.impl.scores(self.model, episode)

    def alert_step(self, episode) -> int | None:
        if not self.calibrated():
            raise ConfigError(f"{self.kind} detector is not calibrated")
        if self.impl.cusum:
            return self.cusum_alert(self.transition_scores(episode))
        return self.impl.alert_step(self, episode)

    def cusum_alert(self, scores) -> int | None:
        """A calibrated CUSUM kind's alert step on an episode's transition
        ``scores``: the destination of the first crossing, or None."""
        step = cusum.first_alert_step(self.decision, scores)
        return None if step is None else step + 1

    def to_json_dict(self) -> dict:
        doc = {
            "kind": self.kind,
            "params": self.params,
            "model": None if self.model is None else self.model.to_json_dict(),
        }
        if self.impl.cusum:
            doc["cusum"] = None if self.decision is None else self.decision.to_json_dict()
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TrainedDetector":
        kind = read_field(doc, "kind", "detector document", str)
        try:
            params = detector_params_with_defaults(kind, doc.get("params", {}))
        except ConfigError as exc:
            raise IncompatibleModelError(f"malformed detector document: {exc}") from None
        model = None if doc.get("model") is None else DETECTORS[kind].load(doc["model"])
        decision = None if doc.get("cusum") is None else cusum.CusumDetector.from_json_dict(doc["cusum"])
        return cls(kind, params, model=model, decision=decision)


def detector_params_with_defaults(kind: str, overrides: dict | None = None) -> dict:
    """The kind's default parameters with ``overrides`` applied. Each
    override must name a known parameter and hold a number of its default's
    type (an int where the default is an int, an int or a finite float where
    it is a float; a bool is neither)."""
    params = dict(_detector(kind).defaults)
    overrides = {} if overrides is None else overrides
    if not isinstance(overrides, dict):
        raise ConfigError(f"{kind} parameters must be a JSON object, got {overrides!r}")
    for key in overrides:
        if key not in params:
            raise ConfigError(f"unknown {kind} parameter {key!r}; known: {sorted(params)}")
        read_field(overrides, key, f"{kind} parameters", type(params[key]), error=ConfigError)
    params.update(overrides)
    return params


def train_detector(kind: str, train_episodes, params: dict | None = None, seed: int = 0) -> TrainedDetector:
    params = detector_params_with_defaults(kind, params)
    return TrainedDetector(kind, params, model=DETECTORS[kind].fit(train_episodes, params, seed))


def calibrate_detector(trained: TrainedDetector, validation_episodes, target_fpr: float,
                       seed: int = 0) -> TrainedDetector:
    """Calibrate ``trained`` in place on clean validation episodes; returns it."""
    if trained.impl.cusum:
        trained.decision = cusum.calibrate_from_streams(
            [trained.transition_scores(ep) for ep in validation_episodes], target_fpr, seed=seed)
    else:
        trained.impl.calibrate(trained, validation_episodes, target_fpr, seed)
    return trained


def fit_detector(kind: str, params: dict | None, banks: dict, master_seed: int,
                 target_fpr: float) -> TrainedDetector:
    """Train a ``kind`` detector on the ``train`` bank and calibrate it on the
    ``validation`` bank, each from its own sub-seed of ``master_seed``."""
    trained = train_detector(kind, banks["train"], params, seed=child_seed(master_seed, "detector"))
    return calibrate_detector(trained, banks["validation"], target_fpr,
                              seed=child_seed(master_seed, "calibration"))


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
        return asdict(self)


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
    return replace(config, per_dimension_scale=tuple(float(s) for s in scales))


def generate_episodes(config: ScenarioConfig, policy, bank: str, count: int, master_seed: int,
                      inject: bool) -> list:
    return [
        run_episode(config, policy, child_seed(master_seed, bank, i), inject=inject)
        for i in range(count)
    ]


def generate_banks(config: ScenarioConfig, policy, counts: EpisodeCounts, master_seed: int) -> dict:
    """The episodes of every bank of ``BANKS``, keyed by bank name."""
    return {bank: generate_episodes(config, policy, bank, getattr(counts, f"num_{bank}"), master_seed, inject)
            for bank, inject in BANKS}


def _labeled_transitions(scores: np.ndarray, episode, warmup: int):
    """One episode's transition (scores, labels) after its first ``warmup``
    transitions, with undefined (NaN) scores dropped."""
    scores = scores[warmup:]
    labels = np.asarray(episode.labels, dtype=bool)[warmup:]
    keep = ~np.isnan(scores)
    return scores[keep], labels[keep]


def _pool(parts) -> LabeledScoreSet:
    return LabeledScoreSet(
        scores=np.concatenate([s for s, _ in parts]) if parts else np.empty(0),
        labels=np.concatenate([l for _, l in parts]) if parts else np.empty(0, dtype=bool),
    )


def pooled_scores(trained: TrainedDetector, episodes, warmup: int) -> LabeledScoreSet:
    """Per-transition scores pooled across episodes, excluding the first
    ``warmup`` transitions of each episode (undefined-window region applied
    symmetrically to every detector)."""
    return _pool([_labeled_transitions(trained.transition_scores(ep), ep, warmup) for ep in episodes])


def measure_detector(trained: TrainedDetector, test_episodes, clean_episodes, config: ScenarioConfig,
                     master_seed: int, target_fpr: float, counts: EpisodeCounts) -> tuple:
    """Metric bundle for a trained and calibrated detector: pooled and
    per-episode AUROC after the first ``trained.warmup`` transitions and
    detection time on the usable injected episodes, and the false-positive
    rate on the clean ones. Each injected episode is scored once; a CUSUM
    kind alerts on the scores the AUROCs use. A usable test episode without
    an injection time raises :class:`DataError`, and no clean episodes, which
    leave the false-positive rate undefined, :class:`UndefinedMetricError`.

    Returns ``(result, streams)``: ``streams`` holds the transition scores of
    the usable injected episodes, in order."""
    if not trained.calibrated():
        raise ConfigError(f"{trained.kind} detector is not calibrated")
    if not clean_episodes:
        raise UndefinedMetricError("the false-positive rate requires clean test episodes")
    usable = [ep for ep in test_episodes if ep.usable]
    clean = [ep.seed for ep in usable if ep.injection_time is None]
    if clean:
        raise DataError(f"usable test episode with seed {clean[0]} has no injection time")
    streams = [trained.transition_scores(ep) for ep in usable]
    parts = [_labeled_transitions(s, ep, trained.warmup) for s, ep in zip(streams, usable)]
    pooled = _pool(parts)
    raw = auroc_raw(pooled.scores, pooled.labels)

    per_ep_vals = []
    for scores, labels in parts:
        if labels.any() and not labels.all():
            r = auroc_raw(scores, labels)
            per_ep_vals.append(max(r, 1.0 - r))

    alert_steps = [trained.cusum_alert(s) if trained.impl.cusum else trained.alert_step(ep)
                   for s, ep in zip(streams, usable)]
    injections = [ep.injection_time for ep in usable]
    dt = detection_time(alert_steps, injections, config.horizon)

    false_alerts = sum(trained.alert_step(ep) is not None for ep in clean_episodes)
    fpr_measured = false_alerts / len(clean_episodes)

    per_episode = [
        {
            "seed": int(ep.seed),
            "injection_time": ep.injection_time,
            "length": int(ep.length),
            "alert_step": alert,
        }
        for ep, alert in zip(usable, alert_steps)
    ]

    result = ExperimentResult(
        scenario_id=f"{config.scenario.value}/{config.noise.correlation_mode.value}",
        detector_id=trained.kind,
        auroc=float(max(raw, 1.0 - raw)),
        auroc_raw=float(raw),
        per_episode_auroc=float(np.mean(per_ep_vals)) if per_ep_vals else None,
        mean_detection_time=dt.mean_detection_time,
        detected_fraction=dt.detected_fraction,
        num_pre_injection_alerts=dt.num_pre_injection_alerts,
        fpr_measured=float(fpr_measured),
        num_test_episodes=len(usable),
        num_unusable_episodes=len(test_episodes) - len(usable),
        master_seed=int(master_seed),
        target_fpr=float(target_fpr),
        warmup_excluded_transitions=trained.warmup,
        counts=counts,
        detector_params=dict(trained.params),
        per_episode=per_episode,
    )
    return result, streams


def run_experiments(config: ScenarioConfig, detectors: dict, master_seed: int,
                    counts: EpisodeCounts = EpisodeCounts(), target_fpr: float = 0.01,
                    policy_kind=None) -> dict:
    """Full train/calibrate/evaluate cycle for one scenario and several
    detector kinds on one set of banks. ``detectors`` maps each kind to its
    parameter overrides (None for the defaults), which are all checked
    before any episode is generated. The scales and banks are drawn once
    from ``master_seed``, and every kind is fitted and measured on them with
    the same sub-seeds, so each kind's outcome is what ``run_experiment``
    gives it at ``master_seed``.

    Returns kind -> :class:`ExperimentResult`, or the :class:`DexterError`
    that kind's fit or measurement raised; an error while resolving the
    scales or generating the banks is raised, since it fails every kind."""
    params = {kind: detector_params_with_defaults(kind, p) for kind, p in detectors.items()}
    _, policy = resolve_policy(config, policy_kind)
    config = resolve_scales(config, policy, master_seed)
    banks = generate_banks(config, policy, counts, master_seed)
    outcomes = {}
    for kind, kind_params in params.items():
        try:
            trained = fit_detector(kind, kind_params, banks, master_seed, target_fpr)
            outcomes[kind], _ = measure_detector(trained, banks["test"], banks["clean_test"], config,
                                                 master_seed, target_fpr, counts)
        except DexterError as exc:
            outcomes[kind] = exc
    return outcomes


def run_experiment(config: ScenarioConfig, detector_kind: str, master_seed: int,
                   counts: EpisodeCounts = EpisodeCounts(), target_fpr: float = 0.01,
                   policy_kind=None, detector_params: dict | None = None) -> ExperimentResult:
    """Full train/calibrate/evaluate cycle for one scenario and detector:
    the one-kind case of ``run_experiments``."""
    outcome = run_experiments(config, {detector_kind: detector_params}, master_seed, counts,
                              target_fpr, policy_kind)[detector_kind]
    if isinstance(outcome, DexterError):
        raise outcome
    return outcome
