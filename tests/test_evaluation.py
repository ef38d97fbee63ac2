import dataclasses

import numpy as np
import pytest

import simulation_oracle as oracle
from dexter.ar_noise import ARProcessSpec
from dexter.environments import BaseEnv, Scenario, ScenarioConfig
from dexter.errors import ConfigError, DataError, IncompatibleModelError, UndefinedMetricError
from dexter.evaluation import (
    BANKS,
    EpisodeCounts,
    LabeledScoreSet,
    auroc,
    auroc_raw,
    calibrate_detector,
    detection_time,
    detector_params_with_defaults,
    generate_banks,
    pooled_scores,
    resolve_policy,
    resolve_scales,
    run_experiment,
    train_detector,
    TrainedDetector,
)
from dexter.seeding import child_seed
from dexter.ts_features import catalogue_hash


def brute_force_auroc(scores, labels):
    """O(n^2) pairwise rank statistic with half-weight ties."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_auroc_matches_brute_force_on_random_inputs():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        labels = np.zeros(n, dtype=bool)
        labels[rng.integers(0, n)] = True
        extra = rng.random(n) < 0.4
        labels |= extra
        if labels.all():
            labels[rng.integers(0, n)] = False
        scores = np.round(rng.normal(size=n), 1)  # rounding forces ties
        assert auroc_raw(scores, labels) == pytest.approx(
            brute_force_auroc(scores, labels), abs=1e-12
        )


def test_auroc_documented_example():
    scores = [0.1, 0.4, 0.35, 0.8]
    labels = [False, False, True, True]
    assert auroc_raw(scores, labels) == pytest.approx(0.75, abs=1e-12)
    assert auroc(LabeledScoreSet(np.array(scores), np.array(labels))) == pytest.approx(0.75)


def test_auroc_edge_cases():
    assert auroc_raw([1, 2, 3, 10, 11], [False, False, False, True, True]) == 1.0
    assert auroc_raw([5, 5, 5, 5], [True, False, True, False]) == 0.5
    with pytest.raises(UndefinedMetricError):
        auroc_raw([1, 2], [True, True])
    with pytest.raises(UndefinedMetricError):
        auroc_raw([1, 2], [False, False])


def test_auroc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=200)
    labels = rng.random(200) < 0.3
    labels[0] = True
    labels[1] = False
    base = auroc_raw(scores, labels)
    assert auroc_raw(np.exp(2.0 * scores + 1.0), labels) == base
    assert auroc_raw(np.tanh(scores), labels) == base


def test_two_sided_auroc_range():
    rng = np.random.default_rng(2)
    for _ in range(100):
        scores = rng.normal(size=50)
        labels = rng.random(50) < 0.5
        if labels.all() or not labels.any():
            continue
        value = auroc(LabeledScoreSet(scores, labels))
        assert 0.5 <= value <= 1.0


def test_detection_time_cases():
    # never alerted -> horizon
    r = detection_time([None], [100], horizon=200)
    assert r.mean_detection_time == 200.0 and r.num_missed == 1

    # alert exactly at t_a -> 0
    r = detection_time([100], [100], horizon=200)
    assert r.mean_detection_time == 0.0 and r.num_detected == 1

    # mean over two detected episodes
    r = detection_time([110, 130], [100, 100], horizon=200)
    assert r.mean_detection_time == pytest.approx(20.0)

    # pre-injection alert is excluded and reported separately
    r = detection_time([50, 120], [100, 100], horizon=200)
    assert r.num_pre_injection_alerts == 1
    assert r.mean_detection_time == pytest.approx(20.0)
    assert r.detected_fraction == 1.0

    # all pre-injection: mean undefined
    r = detection_time([10], [100], horizon=200)
    assert r.mean_detection_time is None and r.detected_fraction is None


def test_detector_params_validation():
    for kind, overrides in (
        ("nope", None), (None, None), (["dexter"], None),
        ("dexter", {"bogus_param": 1}), ("dexter", 5), ("dexter", ["num_trees"]),
        ("dexter", {"num_trees": "abc"}), ("dexter", {"num_trees": True}),
        ("dexter", {"window_size": 10.5}), ("dexter", {"subsample_cap": None}),
        ("pedm", {"ensemble_size": 5.0}), ("meanshift", {"kappa": "x"}),
        ("meanshift", {"kappa": False}), ("meanshift", {"kappa": float("nan")}),
        ("meanshift", {"kappa": float("inf")}),
    ):
        with pytest.raises(ConfigError):
            detector_params_with_defaults(kind, overrides)
    params = detector_params_with_defaults("dexter", {"num_trees": 10})
    assert params == {"window_size": 10, "num_trees": 10, "subsample_cap": 8000}
    assert detector_params_with_defaults("meanshift", {"kappa": 1})["kappa"] == 1
    assert detector_params_with_defaults("meanshift", {"kappa": 0.25})["kappa"] == 0.25


def test_default_target_fpr_is_one_percent():
    import inspect

    assert inspect.signature(run_experiment).parameters["target_fpr"].default == 0.01


def arts_cfg():
    return ScenarioConfig(
        scenario=Scenario.ARTS,
        base_env=BaseEnv.CONSTANT,
        noise=ARProcessSpec.one_step(0.95),
    )


SMALL = EpisodeCounts(num_train=20, num_validation=12, num_test=8, num_clean_test=8)


def test_pooled_scores_bookkeeping():
    from dexter.evaluation import generate_episodes
    from dexter.environments import builtin_policy

    cfg = arts_cfg()
    policy = builtin_policy(cfg.base_env, "random")
    train = generate_episodes(cfg, policy, "train", 20, 0, inject=False)
    val = generate_episodes(cfg, policy, "validation", 10, 0, inject=False)
    test = generate_episodes(cfg, policy, "test", 6, 0, inject=True)

    trained = train_detector("pedm", train, seed=0)
    calibrate_detector(trained, val, 0.05, seed=0)
    warmup = 9
    pooled = pooled_scores(trained, test, warmup)
    expected = sum(ep.length - 1 - warmup for ep in test)
    assert len(pooled.scores) == expected
    assert len(pooled.labels) == expected


def test_run_experiment_is_deterministic():
    cfg = arts_cfg()
    kwargs = dict(
        counts=SMALL,
        target_fpr=0.05,
        detector_params={"num_trees": 20, "subsample_cap": 200},
    )
    r1 = run_experiment(cfg, "dexter", master_seed=5, **kwargs)
    r2 = run_experiment(cfg, "dexter", master_seed=5, **kwargs)
    assert r1.to_json_dict() == r2.to_json_dict()
    r3 = run_experiment(cfg, "dexter", master_seed=6, **kwargs)
    assert r3.to_json_dict() != r1.to_json_dict()


def test_run_experiment_result_contract():
    cfg = arts_cfg()
    result = run_experiment(
        cfg, "dexter", master_seed=1, counts=SMALL, target_fpr=0.05,
        detector_params={"num_trees": 30, "subsample_cap": 400},
    )
    assert result.scenario_id == "arts/one_step"
    assert result.detector_id == "dexter"
    assert 0.5 <= result.auroc <= 1.0
    assert result.auroc == pytest.approx(max(result.auroc_raw, 1 - result.auroc_raw))
    assert result.mean_detection_time is None or result.mean_detection_time <= cfg.horizon
    assert 0.0 <= result.fpr_measured <= 1.0
    assert result.num_test_episodes == len(result.per_episode)
    assert result.warmup_excluded_transitions == 9
    doc = result.to_json_dict()
    assert doc["counts"]["num_train"] == SMALL.num_train


def test_run_experiment_meanshift_and_pedm_smoke():
    cfg = arts_cfg()
    for kind in ("pedm", "meanshift"):
        result = run_experiment(cfg, kind, master_seed=2, counts=SMALL, target_fpr=0.05)
        assert 0.5 <= result.auroc <= 1.0
        assert result.detector_id == kind


def test_trained_detector_roundtrip_via_json():
    from dexter.evaluation import generate_episodes
    from dexter.environments import builtin_policy

    cfg = arts_cfg()
    policy = builtin_policy(cfg.base_env, "random")
    train = generate_episodes(cfg, policy, "train", 15, 3, inject=False)
    val = generate_episodes(cfg, policy, "validation", 10, 3, inject=False)
    test_ep = generate_episodes(cfg, policy, "probe", 1, 3, inject=True)[0]

    for kind in ("dexter", "pedm", "meanshift"):
        params = {"num_trees": 10, "subsample_cap": 100} if kind == "dexter" else None
        trained = train_detector(kind, train, params, seed=1)
        calibrate_detector(trained, val, 0.05, seed=1)
        back = TrainedDetector.from_json_dict(trained.to_json_dict())
        a = trained.transition_scores(test_ep)
        b = back.transition_scores(test_ep)
        assert np.array_equal(a[~np.isnan(a)], b[~np.isnan(b)])
        assert trained.alert_step(test_ep) == back.alert_step(test_ep)


def test_malformed_detector_documents_are_rejected():
    for doc in ({"model": None}, {"kind": "forest", "model": None}, None, [],
                {"kind": ["dexter"], "model": None},
                {"kind": "dexter", "params": 5, "model": None},
                {"kind": "dexter", "params": {"num_trees": "abc"}, "model": None},
                {"kind": "dexter", "params": {"window_size": 10.5}, "model": None},
                {"kind": "pedm", "params": {"bogus_param": 1}, "model": None},
                {"kind": "meanshift", "params": {"kappa": True}, "model": None},
                {"kind": "dexter", "model": {"window_size": 10}},
                {"kind": "dexter", "model": {"window_size": 10, "feature_manifest_hash": catalogue_hash(),
                                             "forests": []}}):
        with pytest.raises(IncompatibleModelError):
            TrainedDetector.from_json_dict(doc)


def _truncated(episode, length):
    return dataclasses.replace(episode, observations=episode.observations[:length],
                               actions=episode.actions[:length - 1])


@pytest.mark.parametrize("kind", ["dexter", "pedm"])
def test_cusum_kinds_decide_like_their_reference_functions_bit_for_bit(kind):
    """The harness calibrates and alerts both CUSUM kinds on their transition
    scores; ``detector.calibrate``/``detect_online`` and, for PEDM,
    ``cusum.calibrate_from_streams``/``first_alert_step`` over
    ``baselines.pedm_episode_scores`` (whose transition i ends at
    observation i + 1) are the references."""
    from dexter import baselines, detector
    from dexter.cusum import CusumDetector, calibrate_from_streams, first_alert_step
    from dexter.environments import builtin_policy
    from dexter.evaluation import generate_episodes, measure_detector

    cfg = arts_cfg()
    policy = builtin_policy(cfg.base_env, "random")
    train = generate_episodes(cfg, policy, "train", 12, 4, inject=False)
    injected = generate_episodes(cfg, policy, "test", 6, 4, inject=True)
    clean = generate_episodes(cfg, policy, "clean_test", 6, 4, inject=False)
    # Shorter than the window (no defined dexter score) and one observation
    # (no transition at all); cut from clean episodes, which stay usable at
    # any length.
    odd = [_truncated(ep, n) for ep in clean[:2] for n in (9, 5, 1)]
    assert all(ep.usable for ep in odd)
    episodes = injected + clean + odd

    params = {"num_trees": 10, "subsample_cap": 100} if kind == "dexter" else None
    trained = train_detector(kind, train, params, seed=2)
    if kind == "dexter":
        def reference_calibration(eps, seed):
            return detector.calibrate(trained.model, eps, 0.2, seed=seed)

        def reference_alert(decision, ep):
            return detector.detect_online(decision, trained.model, ep).alert_step
    else:
        def reference_calibration(eps, seed):
            return calibrate_from_streams([baselines.pedm_episode_scores(trained.model, ep) for ep in eps],
                                          0.2, seed=seed)

        def reference_alert(decision, ep):
            step = first_alert_step(decision, baselines.pedm_episode_scores(trained.model, ep))
            return None if step is None else step + 1

    for validation in (clean + injected, clean + odd, episodes):
        for seed in (0, 1):
            calibrate_detector(trained, validation, 0.2, seed=seed)
            expected = reference_calibration(validation, seed)
            assert trained.decision.mean_score_abar.hex() == expected.mean_score_abar.hex()
            assert trained.decision.threshold_tau.hex() == expected.threshold_tau.hex()

    calibrated = trained.decision
    # A zero threshold alerts at the first score above the reference, which
    # pins the shift from transition index to destination observation.
    seen = set()
    for decision in (calibrated, CusumDetector(calibrated.mean_score_abar, 0.0, 0.2),
                     CusumDetector(calibrated.mean_score_abar, 10.0 * calibrated.threshold_tau, 0.2)):
        trained.decision = decision
        alerts = [trained.alert_step(ep) for ep in episodes]
        assert alerts == [reference_alert(decision, ep) for ep in episodes]
        assert alerts[:len(injected)] == [trained.cusum_alert(trained.transition_scores(ep))
                                          for ep in injected]
        assert all(alert is None for alert in alerts[-len(odd):][2::3])  # one observation
        seen.update(alert is None for alert in alerts)
    assert seen == {True, False}

    trained.decision = calibrated
    result, streams = measure_detector(trained, injected, clean, cfg, master_seed=4, target_fpr=0.2,
                                       counts=SMALL)
    assert result.scenario_id == "arts/one_step"
    assert all(np.array_equal(s, trained.transition_scores(ep), equal_nan=True)
               for s, ep in zip(streams, injected, strict=True))
    assert [row["alert_step"] for row in result.per_episode] == [reference_alert(calibrated, ep)
                                                                 for ep in injected]
    assert result.fpr_measured == sum(reference_alert(calibrated, ep) is not None for ep in clean) / len(clean)


@pytest.mark.parametrize("counts", [{"num_train": -1}, {"num_clean_test": -3}, {"num_test": 2.5},
                                    {"num_validation": True}, {"num_train": "10"}, {"num_test": None}])
def test_episode_counts_are_non_negative_integers(counts):
    (name, count), = counts.items()
    with pytest.raises(ConfigError, match=f"^{name} must be a non-negative integer"):
        EpisodeCounts(**counts)


def test_episode_counts_take_numpy_integers_as_ints():
    counts = EpisodeCounts(num_train=np.int64(3), num_clean_test=0)
    assert type(counts.num_train) is int and counts == EpisodeCounts(num_train=3, num_clean_test=0)


def test_measure_detector_refuses_an_empty_clean_bank():
    from dexter.environments import builtin_policy
    from dexter.evaluation import generate_episodes, measure_detector

    cfg = arts_cfg()
    policy = builtin_policy(cfg.base_env, "random")
    clean = generate_episodes(cfg, policy, "clean_test", 3, 4, inject=False)
    injected = generate_episodes(cfg, policy, "test", 2, 4, inject=True)
    trained = train_detector("meanshift", clean, seed=0)
    calibrate_detector(trained, clean, 0.2, seed=0)
    with pytest.raises(UndefinedMetricError, match="false-positive rate"):
        measure_detector(trained, injected, [], cfg, master_seed=4, target_fpr=0.2, counts=SMALL)


def test_measure_detector_refuses_a_usable_test_episode_without_injection_time():
    from dexter.environments import builtin_policy
    from dexter.evaluation import generate_episodes, measure_detector

    cfg = arts_cfg()
    policy = builtin_policy(cfg.base_env, "random")
    clean = generate_episodes(cfg, policy, "clean_test", 3, 4, inject=False)
    injected = generate_episodes(cfg, policy, "test", 2, 4, inject=True)
    trained = train_detector("meanshift", clean, seed=0)
    calibrate_detector(trained, clean, 0.2, seed=0)
    with pytest.raises(DataError, match=f"seed {clean[1].seed} has no injection time"):
        measure_detector(trained, injected + clean[1:], clean, cfg, master_seed=4,
                         target_fpr=0.2, counts=SMALL)
    # An injection time past the last observation leaves an episode without
    # anomalous transitions: unusable, so skipped.
    unusable = [dataclasses.replace(ep, injection_time=ep.length) for ep in clean[1:]]
    assert not any(ep.usable for ep in unusable)
    result, _ = measure_detector(trained, injected + unusable, clean, cfg, master_seed=4,
                                 target_fpr=0.2, counts=SMALL)
    assert result.num_test_episodes == 2 and result.num_unusable_episodes == 2


# The scenario shapes of the ``arts_cli`` and ``arno_bench`` benchmark
# workloads: ARTS on the constant env, and ARNO Cartpole at magnitude 0.5
# with its dimension scales estimated as the CLI does.
BENCH_SCENARIOS = [
    ScenarioConfig(Scenario.ARTS, BaseEnv.CONSTANT, ARProcessSpec.one_step(0.95)),
    ScenarioConfig(Scenario.ARNO, BaseEnv.CARTPOLE, ARProcessSpec.one_step(0.95, scale=0.5)),
]


@pytest.mark.parametrize("master_seed", [3, 40])
@pytest.mark.parametrize("config", BENCH_SCENARIOS, ids=lambda c: c.scenario.value)
def test_generated_banks_equal_the_simulation_oracle_bit_for_bit(config, master_seed):
    _, policy = resolve_policy(config)
    config = resolve_scales(config, policy, master_seed)
    counts = EpisodeCounts(3, 3, 2, 2)
    banks = generate_banks(config, policy, counts, master_seed)
    for bank, inject in BANKS:
        want = [oracle.run_episode(config, policy, child_seed(master_seed, bank, i), inject=inject)[0]
                for i in range(getattr(counts, f"num_{bank}"))]
        assert len(banks[bank]) == len(want)
        for got, ref in zip(banks[bank], want):
            assert got.observations.dtype == ref.observations.dtype == np.float64
            assert got.observations.shape == ref.observations.shape and got.observations.flags.c_contiguous
            assert got.observations.tobytes() == ref.observations.tobytes()
            assert got.actions.dtype == ref.actions.dtype and got.actions.tobytes() == ref.actions.tobytes()
            assert got.labels.tobytes() == ref.labels.tobytes()
            assert np.float64(got.reward_sum).tobytes() == np.float64(ref.reward_sum).tobytes()
            assert (got.injection_time, got.usable, got.seed) == (ref.injection_time, ref.usable, ref.seed)
