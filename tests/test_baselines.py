import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import simulation_oracle as oracle
from dexter.ar_noise import ARProcessSpec, spliced_series
from dexter.baselines import (
    DynamicsModelEnsemble,
    MeanShiftDetector,
    fit_dynamics,
    fit_dynamics_from_episodes,
    fit_meanshift,
    meanshift_detect_online,
    meanshift_episode_scores,
    meanshift_walk,
    pedm_cusum,
    pedm_detect_online,
    pedm_episode_scores,
    pedm_score_batch,
)
from dexter.cusum import CusumDetector
from dexter.environments import (
    BaseEnv,
    PolicyKind,
    Scenario,
    ScenarioConfig,
    builtin_policy,
    run_episode,
)
from dexter.errors import ConfigError, DataError, IncompatibleModelError


class FakeEpisode:
    def __init__(self, observations, actions=None, labels=None, injection_time=None):
        self.observations = np.asarray(observations, dtype=float)
        n = self.observations.shape[0]
        self.actions = np.zeros(n - 1, dtype=int) if actions is None else np.asarray(actions)
        self.labels = np.zeros(n - 1, dtype=bool) if labels is None else np.asarray(labels)
        self.injection_time = injection_time
        self.usable = True


def linear_system_transitions(n, seed):
    rng = np.random.default_rng(seed)
    M = np.array([[0.9, 0.1], [0.0, 0.8]])
    states = rng.normal(size=(n, 2))
    actions = rng.integers(0, 2, size=n)
    next_states = states @ M.T
    return states, actions, next_states


def brute_auroc(scores, labels):
    """Every (positive, negative) pair compared directly, ties counting
    half; positives are taken in chunks to bound the comparison matrix."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    pos, neg = scores[labels], scores[~labels]
    chunk = max(1, (1 << 22) // max(len(neg), 1))
    wins = 0.0
    for start in range(0, len(pos), chunk):
        p = pos[start:start + chunk, None]
        wins += np.count_nonzero(p > neg) + 0.5 * np.count_nonzero(p == neg)
    return wins / (len(pos) * len(neg))


def test_linear_system_is_learned_exactly():
    from dexter.baselines import predict

    states, actions, next_states = linear_system_transitions(400, 0)
    ensemble = fit_dynamics(states, actions, next_states, ensemble_size=3, seed=1)
    held_s, held_a, held_next = linear_system_transitions(200, 99)
    means = predict(ensemble, held_s, held_a).mean(axis=0)
    assert np.max(np.abs(means - held_next)) <= 1e-6


def test_bootstrap_members_differ_on_noisy_data():
    rng = np.random.default_rng(2)
    states = rng.normal(size=(300, 2))
    actions = rng.integers(0, 2, size=300)
    next_states = states * 0.5 + rng.normal(scale=0.3, size=(300, 2))
    ensemble = fit_dynamics(states, actions, next_states, ensemble_size=5, seed=3)
    assert ensemble.ensemble_size == 5
    diffs = np.abs(ensemble.coefficients - ensemble.coefficients[0]).max(axis=(1, 2))
    assert (diffs[1:] > 0).all()


def test_clean_cartpole_one_step_error_is_small():
    cfg = ScenarioConfig(
        scenario=Scenario.ARNO,
        base_env=BaseEnv.CARTPOLE,
        noise=ARProcessSpec.one_step(0.9, scale=1e-6),
        per_dimension_scale=(0.0, 0.0, 0.0, 0.0),
    )
    policy = builtin_policy(BaseEnv.CARTPOLE, PolicyKind.HEURISTIC)
    episodes = [run_episode(cfg, policy, seed=i, inject=False) for i in range(30)]
    train, held = episodes[:20], episodes[20:]
    ensemble = fit_dynamics_from_episodes(train, ensemble_size=5, seed=0)

    from dexter.baselines import episode_transitions, predict

    errors = []
    stds = np.concatenate([ep.observations for ep in train]).std(axis=0)
    for ep in held:
        s, a, s_next = episode_transitions(ep)
        mean_pred = predict(ensemble, s, a).mean(axis=0)
        errors.append(np.abs(mean_pred - s_next) / np.maximum(stds, 1e-9))
    median_err = np.median(np.concatenate(errors), axis=0)
    assert (median_err < 0.2).all()


def test_score_is_minimal_at_predicted_mean_and_monotone():
    states, actions, next_states = linear_system_transitions(300, 5)
    ensemble = fit_dynamics(states, actions, next_states, ensemble_size=3, seed=2)
    from dexter.baselines import predict

    s = states[0]
    a = int(actions[0])
    mu = predict(ensemble, s[None, :], [a]).mean(axis=0)[0]
    shifts = [[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.4, 0.0], [0.8, 0.0], [0.0, 0.5]]
    scores = pedm_score_batch(ensemble, np.repeat(s[None, :], len(shifts), axis=0),
                              [a] * len(shifts), mu + np.array(shifts))
    assert np.all(np.diff(scores[:5]) > 0)
    assert scores[5] > scores[0]


def test_pedm_scores_rise_when_strong_observation_noise_appears():
    # Sensory anomaly in the "noise appears at t_a" sense: the ensemble is
    # trained on clean transitions, and large observation noise starting at
    # t_a inflates the one-step prediction error.
    from dexter.baselines import episode_transitions

    cfg_clean = ScenarioConfig(
        scenario=Scenario.ARNO,
        base_env=BaseEnv.CARTPOLE,
        noise=ARProcessSpec.one_step(0.9, scale=1e-9),
        per_dimension_scale=(0.0, 0.0, 0.0, 0.0),
    )
    policy = builtin_policy(BaseEnv.CARTPOLE, PolicyKind.HEURISTIC)
    train = [run_episode(cfg_clean, policy, seed=i, inject=False) for i in range(40)]
    ensemble = fit_dynamics_from_episodes(train, seed=0)

    rng = np.random.default_rng(77)
    pre_means, post_means = [], []
    for i in range(20):
        ep = run_episode(cfg_clean, policy, seed=500 + i, inject=False)
        obs = ep.observations.copy()
        t_a = 100
        obs[t_a:] += rng.normal(scale=0.2, size=obs[t_a:].shape)
        scores = pedm_episode_scores(ensemble, FakeEpisode(obs, actions=ep.actions))
        pre_means.append(scores[: t_a - 1].mean())
        post_means.append(scores[t_a - 1 :].mean())
    assert np.mean(post_means) > np.mean(pre_means)


def test_pedm_distribution_shifts_under_constant_magnitude_correlation_switch():
    # Under the benchmark protocol the noise level never changes, only its
    # correlation; the one-step residuals then shrink rather than grow, which
    # is why AUROC is evaluated two-sided.
    cfg = ScenarioConfig(
        scenario=Scenario.ARNO,
        base_env=BaseEnv.CARTPOLE,
        noise=ARProcessSpec.one_step(0.95, scale=0.5),
        per_dimension_scale=(0.23, 0.17, 0.008, 0.2),
    )
    policy = builtin_policy(BaseEnv.CARTPOLE, PolicyKind.HEURISTIC)
    train = [run_episode(cfg, policy, seed=i, inject=False) for i in range(40)]
    ensemble = fit_dynamics_from_episodes(train, seed=0)
    pre_means, post_means = [], []
    for i in range(20):
        ep = run_episode(cfg, policy, seed=500 + i)
        scores = pedm_episode_scores(ensemble, ep)
        t_a = ep.injection_time
        if t_a + 10 < len(scores):
            pre_means.append(scores[:t_a].mean())
            post_means.append(scores[t_a:].mean())
    assert abs(np.mean(post_means) - np.mean(pre_means)) > 1e-3


def test_pedm_cusum_trivial_cases():
    det = CusumDetector(mean_score_abar=1.0, threshold_tau=0.0, target_fpr=0.01)
    states, actions, next_states = linear_system_transitions(200, 7)
    ensemble = fit_dynamics(states, actions, next_states, ensemble_size=2, seed=0)

    flat = FakeEpisode(np.zeros((30, 2)))
    scores = pedm_episode_scores(ensemble, flat)
    constant_det = CusumDetector(mean_score_abar=float(scores.mean()), threshold_tau=1e9,
                                 target_fpr=0.01)
    assert pedm_detect_online(constant_det, ensemble, flat) is None

    eager = CusumDetector(mean_score_abar=float(scores.min()) - 1.0, threshold_tau=0.0,
                          target_fpr=0.01)
    assert pedm_detect_online(eager, ensemble, flat) == 1


def test_pedm_cusum_calibration_and_fpr():
    cfg = ScenarioConfig(
        scenario=Scenario.ARTS,
        base_env=BaseEnv.CONSTANT,
        noise=ARProcessSpec.one_step(0.95),
    )
    policy = builtin_policy(BaseEnv.CONSTANT, PolicyKind.RANDOM)
    train = [run_episode(cfg, policy, seed=i, inject=False) for i in range(100)]
    val = [run_episode(cfg, policy, seed=1000 + i, inject=False) for i in range(200)]
    ensemble = fit_dynamics_from_episodes(train, seed=0)
    det = pedm_cusum(ensemble, val, target_fpr=0.01, seed=0)

    false_alerts = 0
    for i in range(500):
        ep = run_episode(cfg, policy, seed=10_000 + i, inject=False)
        if pedm_detect_online(det, ensemble, ep) is not None:
            false_alerts += 1
    assert false_alerts / 500 <= 3 * 0.01


def test_fit_dynamics_validation():
    rng = np.random.default_rng(8)
    with pytest.raises(DataError):
        fit_dynamics(rng.normal(size=(50, 2)), rng.integers(0, 2, 50), rng.normal(size=(50, 2)))
    constant = np.zeros((200, 2))
    with pytest.raises(DataError):
        fit_dynamics(constant, np.zeros(200), constant)
    states = rng.normal(size=(200, 2))
    with pytest.raises(ConfigError):
        fit_dynamics(states, np.zeros(200), states, ensemble_size=1)
    ensemble = fit_dynamics(states, rng.integers(0, 2, 200), states, seed=0)
    with pytest.raises(IncompatibleModelError):
        pedm_score_batch(ensemble, np.zeros((1, 3)), [0], np.zeros((1, 3)))


def test_dynamics_ensemble_json_roundtrip():
    states, actions, next_states = linear_system_transitions(300, 9)
    ensemble = fit_dynamics(states, actions, next_states, ensemble_size=3, seed=4)
    back = DynamicsModelEnsemble.from_json_dict(ensemble.to_json_dict())
    s, a, s_next = states[:10], actions[:10], next_states[:10]
    assert np.array_equal(
        pedm_score_batch(ensemble, s, a, s_next), pedm_score_batch(back, s, a, s_next)
    )


@pytest.mark.parametrize("field, value", [
    ("coefficients", None), ("variances", "1.0"), ("input_std", [1.0, float("nan")]),
    ("state_dim", 2.5), ("coefficients", [[[1.0]]]), ("variances", [[0.0, 1.0]] * 3),
])
def test_dynamics_ensemble_rejects_malformed_fields(field, value):
    states, actions, next_states = linear_system_transitions(300, 9)
    doc = fit_dynamics(states, actions, next_states, ensemble_size=3, seed=4).to_json_dict()
    with pytest.raises(IncompatibleModelError, match=field):
        DynamicsModelEnsemble.from_json_dict({**doc, field: value})
    missing = {k: v for k, v in doc.items() if k != field}
    with pytest.raises(IncompatibleModelError, match=field):
        DynamicsModelEnsemble.from_json_dict(missing)


def test_meanshift_reference_stream_stays_quiet():
    det = MeanShiftDetector(
        reference_mean=np.zeros(3), reference_std=np.ones(3), threshold=5.0
    )
    obs = np.zeros((51, 3))
    assert list(meanshift_walk((det.reference_mean, det.reference_std), det.kappa, obs)) == [0.0] * 50
    assert meanshift_detect_online(det, FakeEpisode(obs)) is None


def test_meanshift_statistics_decay_after_excursion():
    reference = (np.zeros(2), np.ones(2))
    obs = np.zeros((17, 2))
    obs[1, 0] = 4.0
    trace = list(meanshift_walk(reference, 0.5, obs))
    peak = trace[0]
    assert peak == pytest.approx(3.5)
    assert trace[4] < peak
    assert trace[-1] == 0.0


def test_meanshift_detects_mean_step_quickly():
    rng = np.random.default_rng(10)
    clean = [FakeEpisode(rng.normal(size=(200, 3))) for _ in range(100)]
    det = fit_meanshift(clean, target_fpr=0.01, seed=0)

    delays = []
    for seed in range(100):
        rng2 = np.random.default_rng(1000 + seed)
        obs = rng2.normal(size=(200, 3))
        obs[50:, 1] += 3.0  # +3 sigma step well after monitoring starts
        alert = meanshift_detect_online(det, FakeEpisode(obs))
        delays.append(np.inf if alert is None or alert < 50 else alert - 50)
    assert np.median(delays) <= 30


def test_meanshift_blind_to_pure_correlation_change():
    # Variance-matched white -> AR(0.95) splice: the marginal distribution of
    # each observation is unchanged, so per-transition standardized
    # deviations carry no signal and AUROC sits near chance.
    spec = ARProcessSpec.one_step(0.95)
    rng = np.random.default_rng(11)
    clean = [FakeEpisode(rng.normal(size=(200, 1))) for _ in range(60)]
    det = fit_meanshift(clean, target_fpr=0.01, seed=0)

    scores, labels = [], []
    for seed in range(60):
        t_a = int(np.random.default_rng(seed).integers(50, 150))
        series = spliced_series(spec, t_a, 200, seed=seed)
        ep = FakeEpisode(series[:, None], labels=np.arange(1, 200) >= t_a, injection_time=t_a)
        scores.append(meanshift_episode_scores(det, ep))
        labels.append(ep.labels)
    raw = brute_auroc(np.concatenate(scores), np.concatenate(labels))
    assert abs(max(raw, 1 - raw) - 0.5) < 0.1


def test_meanshift_monotone_response_to_shift_size():
    rng = np.random.default_rng(12)
    clean = [FakeEpisode(rng.normal(size=(200, 2))) for _ in range(80)]
    det = fit_meanshift(clean, target_fpr=0.01, seed=0)

    def median_delay(shift):
        delays = []
        for seed in range(60):
            rng2 = np.random.default_rng(5000 + seed)
            obs = rng2.normal(size=(200, 2))
            obs[40:, 0] += shift
            alert = meanshift_detect_online(det, FakeEpisode(obs))
            delays.append(200.0 if alert is None or alert < 40 else float(alert - 40))
        return np.median(delays)

    assert median_delay(3.0) <= median_delay(1.0)


def test_meanshift_statistic_trace_nonnegative_and_aligned():
    rng = np.random.default_rng(13)
    det = MeanShiftDetector(reference_mean=np.zeros(2), reference_std=np.ones(2), threshold=1e9)
    obs = rng.normal(size=(100, 2))
    trace = list(meanshift_walk((det.reference_mean, det.reference_std), det.kappa, obs))
    assert len(trace) == 99
    assert min(trace) >= 0.0
    scores = meanshift_episode_scores(det, FakeEpisode(obs))
    assert scores.shape == (99,)


@st.composite
def meanshift_cases(draw):
    dim = draw(st.integers(1, 6))
    values = st.floats(-1e3, 1e3, allow_nan=False)
    episodes = [draw(hnp.arrays(float, (draw(st.integers(1, 300)), dim), elements=values))
                for _ in range(draw(st.integers(2, 6)))]
    probe = draw(hnp.arrays(float, (draw(st.integers(1, 300)), dim), elements=values))
    kappa = draw(st.sampled_from([0.0, -0.1, 0.5, 2.0]) | st.floats(-1.0, 3.0))
    fpr = draw(st.sampled_from([0.01, 0.2, 0.5]))
    return episodes, probe, kappa, fpr, draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(meanshift_cases())
def test_meanshift_walk_matches_numpy_oracle_bit_for_bit(case):
    episodes, probe, kappa, fpr, seed = case
    clean = [FakeEpisode(obs) for obs in episodes]
    det = fit_meanshift(clean, target_fpr=fpr, kappa=kappa, seed=seed)
    expected = oracle.fit_meanshift(clean, target_fpr=fpr, kappa=kappa, seed=seed)
    assert np.float64(det.threshold).view(np.int64) == np.float64(expected.threshold).view(np.int64)
    assert np.array_equal(det.reference_mean, expected.reference_mean)
    assert np.array_equal(det.reference_std, expected.reference_std)

    walk = np.array(list(meanshift_walk((det.reference_mean, det.reference_std), kappa, probe)))
    trace = oracle.meanshift_statistic_trace(det, probe)
    assert np.array_equal(walk.view(np.int64), trace.view(np.int64))
    episode = FakeEpisode(probe)
    assert meanshift_detect_online(det, episode) == oracle.meanshift_detect_online(det, episode)


def test_meanshift_refuses_observations_of_another_width():
    det = MeanShiftDetector(reference_mean=np.zeros(1), reference_std=np.ones(1), threshold=1.0)
    wide = FakeEpisode(np.zeros((50, 4)))
    for call in (meanshift_detect_online, meanshift_episode_scores):
        with pytest.raises(IncompatibleModelError, match="dimensions"):
            call(det, wide)
    narrow = MeanShiftDetector(reference_mean=np.zeros(4), reference_std=np.ones(4), threshold=1.0)
    for call in (meanshift_detect_online, meanshift_episode_scores):
        with pytest.raises(IncompatibleModelError, match="dimensions"):
            call(narrow, FakeEpisode(np.zeros((50, 2))))


def test_meanshift_validation_and_roundtrip():
    rng = np.random.default_rng(14)
    episodes = [FakeEpisode(rng.normal(size=(50, 2))) for _ in range(10)]
    with pytest.raises(ConfigError):
        fit_meanshift(episodes, target_fpr=0.0)
    with pytest.raises(ConfigError):
        fit_meanshift(episodes[:1], target_fpr=0.01)
    det = fit_meanshift(episodes, target_fpr=0.05, seed=1)
    back = MeanShiftDetector.from_json_dict(det.to_json_dict())
    probe = FakeEpisode(rng.normal(size=(60, 2)))
    assert meanshift_detect_online(det, probe) == meanshift_detect_online(back, probe)
    assert np.array_equal(meanshift_episode_scores(det, probe),
                          meanshift_episode_scores(back, probe))


@pytest.mark.parametrize("field, value", [
    ("reference_mean", [[0.0, 1.0]]), ("reference_std", [1.0, -1.0]), ("threshold", "2"),
    ("kappa", float("inf")), ("target_fpr", True),
])
def test_meanshift_rejects_malformed_fields(field, value):
    doc = MeanShiftDetector(np.zeros(2), np.ones(2), threshold=3.0).to_json_dict()
    with pytest.raises(IncompatibleModelError, match=field):
        MeanShiftDetector.from_json_dict({**doc, field: value})
    with pytest.raises(IncompatibleModelError, match=field):
        MeanShiftDetector.from_json_dict({k: v for k, v in doc.items() if k != field})
