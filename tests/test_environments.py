import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simulation_oracle as oracle
from dexter import environments
from dexter.ar_noise import ARProcessSpec, CorrelationMode
from dexter.environments import (
    AcrobotEnv,
    BaseEnv,
    CartpoleEnv,
    ConstantEnv,
    Episode,
    PolicyKind,
    Scenario,
    ScenarioConfig,
    _simulate,
    builtin_policy,
    estimate_dimension_scales,
    make_env,
    run_episode,
)
from dexter.errors import ConfigError, DataError, SimulationDivergedError
from dexter.seeding import rng_from
from recorded_states import hidden_states, recorded_episode, recording


def cartpole_oracle(vector, action):
    """Fresh transcription of the textbook Euler-integrated cartpole update."""
    gravity, mass_cart, mass_pole = 9.8, 1.0, 0.1
    total = mass_cart + mass_pole
    half_len = 0.5
    pml = mass_pole * half_len
    force_mag, dt = 10.0, 0.02
    x, x_dot, theta, theta_dot = vector
    force = force_mag if action == 1 else -force_mag
    ct, st = math.cos(theta), math.sin(theta)
    temp = (force + pml * theta_dot * theta_dot * st) / total
    theta_acc = (gravity * st - ct * temp) / (half_len * (4.0 / 3.0 - mass_pole * ct * ct / total))
    x_acc = temp - pml * theta_acc * ct / total
    return np.array([
        x + dt * x_dot,
        x_dot + dt * x_acc,
        theta + dt * theta_dot,
        theta_dot + dt * theta_acc,
    ])


def acrobot_oracle_rk4(angles, torque, dt=0.2):
    """Fresh transcription of the standard two-link underactuated dynamics
    integrated with one RK4 step."""
    m, l1, lc, inertia, g = 1.0, 1.0, 0.5, 1.0, 9.8

    def derivs(y):
        th1, th2, w1, w2 = y
        d1 = m * lc * lc + m * (l1 * l1 + lc * lc + 2 * l1 * lc * math.cos(th2)) + 2 * inertia
        d2 = m * (lc * lc + l1 * lc * math.cos(th2)) + inertia
        phi2 = m * lc * g * math.cos(th1 + th2 - math.pi / 2)
        phi1 = (
            -m * l1 * lc * w2 * w2 * math.sin(th2)
            - 2 * m * l1 * lc * w2 * w1 * math.sin(th2)
            + (m * lc + m * l1) * g * math.cos(th1 - math.pi / 2)
            + phi2
        )
        a2 = (torque + d2 / d1 * phi1 - m * l1 * lc * w1 * w1 * math.sin(th2) - phi2) / (
            m * lc * lc + inertia - d2 * d2 / d1
        )
        a1 = -(d2 * a2 + phi1) / d1
        return np.array([w1, w2, a1, a2])

    k1 = derivs(angles)
    k2 = derivs(angles + dt / 2 * k1)
    k3 = derivs(angles + dt / 2 * k2)
    k4 = derivs(angles + dt * k3)
    return angles + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def alternating_policy():
    """Actions 0, 1, 0, 1, ... whatever the observation."""
    calls = itertools.count()
    return lambda observation, rng: next(calls) % 2


def noise_config(scenario, base_env=BaseEnv.CARTPOLE, horizon=60, scales=None):
    return ScenarioConfig(
        scenario=scenario,
        base_env=base_env,
        noise=ARProcessSpec.no_correlation(),
        injection_window=(6, horizon - 7),
        horizon=horizon,
        per_dimension_scale=scales,
    )


def simulate_recorded(config, policy, noise, seed):
    """``_simulate``'s (observations, actions, reward sum) and the hidden
    states of the roll-out."""
    with recording() as runs:
        observations, actions, reward_sum = _simulate(config, policy, noise, seed)
    return observations, actions, reward_sum, hidden_states(config, runs, len(observations))


def oracle_simulate(config, policy, noise, seed):
    """The oracle's roll-out on the generators ``_simulate`` derives from
    ``seed``."""
    return oracle.simulate(config, policy, noise, rng_from(seed, "env"), rng_from(seed, "policy"))


def simulate(config, noise, policy=None, seed=0):
    """(observations, actions, reward sum, hidden states) of one roll-out on
    the given noise matrix."""
    return simulate_recorded(config, policy or alternating_policy(), noise, seed)


def replay(env, start, actions):
    """The states the environment passes through from ``start`` under
    ``actions``, as a matrix."""
    states = [np.asarray(start, dtype=float).tolist()]
    for action in actions:
        states.append(env.step(states[-1], int(action))[0])
    return np.array(states)


def test_cartpole_step_matches_oracle():
    env = CartpoleEnv()
    state = [0.0, 0.0, 0.05, 0.0]
    nxt, reward, terminal = env.step(state, 1)
    assert np.max(np.abs(np.array(nxt) - cartpole_oracle(state, 1))) < 1e-12
    assert reward == 1.0 and not terminal

    rng = np.random.default_rng(0)
    for _ in range(200):
        vec = rng.uniform(-0.2, 0.2, size=4)
        action = int(rng.integers(2))
        got = np.array(env.step(vec.tolist(), action)[0])
        assert np.max(np.abs(got - cartpole_oracle(vec, action))) < 1e-12


def test_cartpole_alternating_forces_stay_upright():
    env = CartpoleEnv()
    state = [0.0, 0.0, 0.0, 0.0]
    for i in range(20):
        state, _, terminal = env.step(state, i % 2)
        assert abs(state[2]) < env.THETA_LIMIT
        assert not terminal


def test_cartpole_horizon_cap():
    cfg = noise_config(Scenario.ARNO, horizon=20, scales=(0.0, 0.0, 0.0, 0.0))
    obs, actions, reward_sum, hidden = simulate(cfg, np.zeros((4, 20)))
    assert obs.shape == hidden.shape == (20, 4)
    assert len(actions) == 19 and reward_sum == 19.0


def test_cartpole_bounds_and_divergence():
    env = CartpoleEnv()
    _, _, terminal = env.step([0.0, 0.0, 0.3, 0.0], 0)
    assert terminal  # beyond the 12 degree limit
    with pytest.raises(SimulationDivergedError):
        env.step([np.inf, 0.0, 0.0, 0.0], 0)
    with pytest.raises(SimulationDivergedError):
        env.step([0.0, 0.0, 0.0, np.nan], 0)
    with pytest.raises(SimulationDivergedError):  # the squared velocity overflows
        env.step([0.0, 0.0, 0.1, 1e200], 0)


def test_acrobot_hanging_rest_is_fixed_point():
    env = AcrobotEnv()
    rest = [1.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    nxt, reward, terminal = env.step(rest, 1)  # zero torque
    assert np.max(np.abs(np.array(nxt) - rest)) < 1e-12
    assert reward == -1.0 and not terminal


def test_acrobot_cos_sin_invariant():
    env = AcrobotEnv()
    rng = np.random.default_rng(1)
    for _ in range(100):
        angles = rng.uniform(-np.pi, np.pi, size=2)
        vels = rng.uniform(-4, 4, size=2)
        vec = np.array([
            math.cos(angles[0]), math.sin(angles[0]),
            math.cos(angles[1]), math.sin(angles[1]),
            vels[0], vels[1],
        ])
        nxt = env.step(vec.tolist(), int(rng.integers(3)))[0]
        assert abs(nxt[0] ** 2 + nxt[1] ** 2 - 1.0) < 1e-9
        assert abs(nxt[2] ** 2 + nxt[3] ** 2 - 1.0) < 1e-9


def test_acrobot_positive_torque_spins_up_second_link():
    env = AcrobotEnv()
    state = [1.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    for _ in range(5):
        state, _, _ = env.step(state, 2)  # +1 torque
    assert state[5] > 0.0

    # independent RK4 oracle agrees on the trajectory
    angles = np.zeros(4)
    for _ in range(5):
        angles = acrobot_oracle_rk4(angles, 1.0)
    assert angles[3] > 0.0
    assert abs(state[5] - angles[3]) < 1e-9


def test_acrobot_step_matches_oracle_on_random_states():
    env = AcrobotEnv()
    rng = np.random.default_rng(2)
    for _ in range(50):
        angles = np.concatenate([rng.uniform(-1.0, 1.0, 2), rng.uniform(-2.0, 2.0, 2)])
        action = int(rng.integers(3))
        vec = np.array([
            math.cos(angles[0]), math.sin(angles[0]),
            math.cos(angles[1]), math.sin(angles[1]),
            angles[2], angles[3],
        ])
        got = env.step(vec.tolist(), action)[0]
        expected = acrobot_oracle_rk4(angles, env.TORQUES[action])
        assert abs(got[4] - np.clip(expected[2], -env.MAX_VEL_1, env.MAX_VEL_1)) < 1e-9
        assert abs(got[5] - np.clip(expected[3], -env.MAX_VEL_2, env.MAX_VEL_2)) < 1e-9
        assert abs(got[0] - math.cos(expected[0])) < 1e-9
        assert abs(got[1] - math.sin(expected[0])) < 1e-9


def never_called(observation, rng):
    raise AssertionError("the policy was called")


def test_arts_step_direct_lookup(monkeypatch):
    # The ARTS observation at step t is the noise row's entry t, unscaled,
    # and no policy is asked for the constant environment's one action.
    values = np.random.default_rng(3).normal(size=(1, 30))
    cfg = noise_config(Scenario.ARTS, BaseEnv.CONSTANT, horizon=30, scales=(4.0,))
    obs, actions, reward_sum, hidden = simulate(cfg, values, policy=never_called)
    assert np.array_equal(obs, values.T) and obs.flags.c_contiguous and obs.dtype == np.float64
    assert not np.shares_memory(obs, values)
    assert np.array_equal(hidden, np.zeros((30, 1)))
    assert reward_sum == 0.0 and np.array_equal(actions, np.zeros(29, dtype=int))
    # An ARTS episode derives only its injection time's generator, none for
    # the environment or the policy.
    derived = []
    monkeypatch.setattr(environments, "rng_from",
                        lambda seed, *path: derived.append(path) or rng_from(seed, *path))
    run_episode(cfg, never_called, seed=3)
    assert derived == [("t_a",)]


def test_arts_episode_observations_carry_the_configured_correlation():
    cfg = ScenarioConfig(
        scenario=Scenario.ARTS,
        base_env=BaseEnv.CONSTANT,
        noise=ARProcessSpec.one_step(0.95),
        injection_window=(6, 6),
    )
    policy = builtin_policy(cfg.base_env, PolicyKind.RANDOM)
    ep = run_episode(cfg, policy, seed=3)
    x = ep.observations[6:, 0]
    xc = x - x.mean()
    acf1 = np.sum(xc[1:] * xc[:-1]) / np.sum(xc * xc)
    assert abs(acf1 - 0.95) < 0.08

    ep2 = run_episode(cfg, policy, seed=3)
    assert np.array_equal(ep.observations, ep2.observations)


def test_arno_zero_noise_is_identity():
    cfg = noise_config(Scenario.ARNO, horizon=20)
    obs, actions, _, hidden = simulate(cfg, np.zeros((4, 20)))
    assert np.array_equal(obs, hidden)
    assert np.array_equal(hidden, replay(CartpoleEnv(), hidden[0], actions))


def test_arno_observation_is_state_plus_scaled_noise_column():
    rng = np.random.default_rng(4)
    noise = rng.normal(size=(4, 50))
    scales = np.array([1.0, 2.0, 0.5, 3.0])
    cfg = noise_config(Scenario.ARNO, horizon=50, scales=tuple(scales))
    obs, _, _, hidden = simulate(cfg, noise)
    columns = noise[:, : len(obs)].T
    assert np.array_equal(obs, hidden + columns * scales)
    assert np.allclose(obs - hidden, columns * scales, atol=1e-12)


def test_arno_hidden_dynamics_equal_clean_run_bit_exact():
    cfg = ScenarioConfig(
        scenario=Scenario.ARNO,
        base_env=BaseEnv.CARTPOLE,
        noise=ARProcessSpec.one_step(0.95, scale=0.5),
        per_dimension_scale=(0.2, 0.2, 0.01, 0.2),
    )
    policy = builtin_policy(cfg.base_env, PolicyKind.HEURISTIC)
    ep, hidden = recorded_episode(cfg, policy, seed=11)
    replayed = replay(CartpoleEnv(), hidden[0], ep.actions)
    assert np.array_equal(replayed, hidden)


def test_arno_noise_std_scales_with_dimension_std():
    cfg = ScenarioConfig(
        scenario=Scenario.ARNO,
        base_env=BaseEnv.CARTPOLE,
        noise=ARProcessSpec.one_step(0.95, scale=0.5),
        per_dimension_scale=(0.23, 0.17, 0.008, 0.2),
    )
    policy = builtin_policy(cfg.base_env, PolicyKind.HEURISTIC)
    added = []
    for i in range(50):
        ep, hidden = recorded_episode(cfg, policy, seed=1000 + i, inject=False)
        added.append(ep.observations - hidden)
    added = np.concatenate(added, axis=0)
    assert added.shape[0] >= 9000
    for d, scale_d in enumerate(cfg.per_dimension_scale):
        assert abs(added[:, d].std() - 0.5 * scale_d) / (0.5 * scale_d) < 0.1


def test_arns_zero_noise_bit_equal_to_clean_env():
    cfg = noise_config(Scenario.ARNS)
    obs, actions, _, hidden = simulate(cfg, np.zeros((4, 60)))
    assert np.array_equal(obs, hidden)
    assert np.array_equal(hidden, replay(CartpoleEnv(), hidden[0], actions))


def test_arns_noise_at_single_step_preserves_prefix():
    cfg = noise_config(Scenario.ARNS)
    blank = np.zeros((4, 60))
    bump = np.zeros((4, 60))
    bump[2, 25] = 0.2  # angle noise consumed by the transition into obs 25
    _, _, _, a = simulate(cfg, blank)
    _, _, _, b = simulate(cfg, bump)
    assert len(a) > 25 and len(b) > 25
    assert np.array_equal(a[:25], b[:25])
    assert not np.array_equal(a[25], b[25])


def test_arns_strong_angle_noise_shortens_episodes():
    base = dict(
        scenario=Scenario.ARNS,
        base_env=BaseEnv.CARTPOLE,
        per_dimension_scale=(0.0, 0.0, 0.05, 0.0),
    )
    noisy_cfg = ScenarioConfig(
        noise=ARProcessSpec.one_step(0.9),
        **base,
    )
    policy = builtin_policy(BaseEnv.CARTPOLE, PolicyKind.HEURISTIC)
    noisy_lens, clean_lens = [], []
    for i in range(100):
        noisy_lens.append(run_episode(noisy_cfg, policy, seed=i, inject=True).length)
        clean_env = CartpoleEnv()
        state = clean_env.reset(rng_from(i, "clean_env"))
        n = 1
        terminated = False
        prng = rng_from(i, "clean_policy")
        while n < 200 and not terminated:
            state, _, terminated = clean_env.step(state, policy(np.array(state), prng))
            n += 1
        clean_lens.append(n)
    assert np.mean(noisy_lens) < np.mean(clean_lens)


def test_run_episode_clean_mode_labels():
    cfg = ScenarioConfig(
        scenario=Scenario.ARTS,
        base_env=BaseEnv.CONSTANT,
        noise=ARProcessSpec.one_step(0.95),
    )
    policy = builtin_policy(cfg.base_env, PolicyKind.RANDOM)
    ep = run_episode(cfg, policy, seed=0, inject=False)
    assert ep.injection_time is None
    assert not ep.labels.any()
    assert len(ep.labels) == ep.length - 1


def test_run_episode_label_arithmetic():
    cfg = ScenarioConfig(
        scenario=Scenario.ARTS,
        base_env=BaseEnv.CONSTANT,
        noise=ARProcessSpec.one_step(0.95),
        injection_window=(100, 100),
    )
    policy = builtin_policy(cfg.base_env, PolicyKind.RANDOM)
    ep = run_episode(cfg, policy, seed=0)
    assert ep.length == 200 and ep.injection_time == 100
    assert int((~ep.labels).sum()) == 99
    assert int(ep.labels.sum()) == 100
    assert np.array_equal(ep.labels, np.arange(1, 200) >= 100)


def test_run_episode_balanced_labels_in_expectation():
    cfg = ScenarioConfig(
        scenario=Scenario.ARTS,
        base_env=BaseEnv.CONSTANT,
        noise=ARProcessSpec.two_step(0.95),
    )
    policy = builtin_policy(cfg.base_env, PolicyKind.RANDOM)
    fractions = [
        run_episode(cfg, policy, seed=i).labels.mean() for i in range(200)
    ]
    assert abs(np.mean(fractions) - 0.5) < 0.05


def test_run_episode_determinism_and_horizon():
    cfg = ScenarioConfig(
        scenario=Scenario.ARNO,
        base_env=BaseEnv.CARTPOLE,
        noise=ARProcessSpec.one_step(0.95, scale=0.3),
        per_dimension_scale=(0.2, 0.2, 0.01, 0.2),
    )
    policy = builtin_policy(cfg.base_env, PolicyKind.HEURISTIC)
    a = run_episode(cfg, policy, seed=17)
    b = run_episode(cfg, policy, seed=17)
    assert np.array_equal(a.observations, b.observations)
    assert np.array_equal(a.actions, b.actions)
    assert a.injection_time == b.injection_time
    assert a.length <= cfg.horizon


def test_run_episode_unusable_after_retry_cap():
    # Random-policy cartpole rarely survives past ~60 steps, so a late
    # injection window exhausts the retry cap.
    cfg = ScenarioConfig(
        scenario=Scenario.ARNS,
        base_env=BaseEnv.CARTPOLE,
        noise=ARProcessSpec.one_step(0.9, scale=0.1),
        injection_window=(180, 190),
        per_dimension_scale=(0.1, 0.1, 0.01, 0.1),
    )
    policy = builtin_policy(cfg.base_env, PolicyKind.RANDOM)
    ep = run_episode(cfg, policy, seed=1)
    assert not ep.usable
    assert ep.length < ep.injection_time + 1


def test_scenario_config_validation():
    noise = ARProcessSpec.one_step(0.9)
    with pytest.raises(ConfigError):
        ScenarioConfig(Scenario.ARTS, BaseEnv.CARTPOLE, noise)
    with pytest.raises(ConfigError):
        ScenarioConfig(Scenario.ARNO, BaseEnv.CONSTANT, noise)
    with pytest.raises(ConfigError):
        ScenarioConfig(Scenario.ARNS, BaseEnv.ACROBOT, noise)
    with pytest.raises(ConfigError, match="injection_window"):
        ScenarioConfig(Scenario.ARTS, BaseEnv.CONSTANT, noise, injection_window=(3, 100))
    with pytest.raises(ConfigError, match="injection_window"):
        ScenarioConfig(Scenario.ARTS, BaseEnv.CONSTANT, noise, injection_window=(6, 195))


@pytest.mark.parametrize("changes, field", [
    ({"scenario": "bogus"}, "scenario"), ({"base_env": None}, "base_env"),
    ({"base_env": "cartpole"}, "base_env"), ({"horizon": 200.5}, "horizon"),
    ({"horizon": True}, "horizon"), ({"horizon": 19}, "horizon"),
    ({"injection_window": (6.7, 20)}, "injection_window"), ({"injection_window": (6, 20, 30)}, "injection_window"),
    ({"injection_window": "6,20"}, "injection_window"), ({"per_dimension_scale": (float("nan"),)}, "per_dimension_scale"),
    ({"per_dimension_scale": (1.0, 1.0)}, "per_dimension_scale"), ({"per_dimension_scale": ()}, "per_dimension_scale"),
    ({"per_dimension_scale": ("1",)}, "per_dimension_scale"), ({"per_dimension_scale": 1.0}, "per_dimension_scale"),
])
def test_scenario_values_are_checked_by_the_scenario_config(changes, field):
    values = {"scenario": "arts", "base_env": "constant", "noise": ARProcessSpec.one_step(0.9), **changes}
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        ScenarioConfig(**values)


def test_scenario_config_defaults_its_window_from_the_horizon_and_takes_numpy_values():
    noise = ARProcessSpec.one_step(0.9)
    assert ScenarioConfig("arts", "constant", noise, horizon=100).injection_window == (6, 93)
    assert ScenarioConfig(Scenario.ARTS, BaseEnv.CONSTANT, noise).injection_window == (6, 193)
    cfg = ScenarioConfig("arno", "cartpole", noise, injection_window=[np.int64(10), 20],
                         horizon=np.int64(60), per_dimension_scale=np.array([0.5, 0, 1, 2]))
    assert cfg == ScenarioConfig(Scenario.ARNO, BaseEnv.CARTPOLE, noise, (10, 20), 60, (0.5, 0.0, 1.0, 2.0))
    assert type(cfg.horizon) is int and type(cfg.per_dimension_scale[1]) is float
    assert cfg.scales().tolist() == [0.5, 0.0, 1.0, 2.0]


@pytest.mark.parametrize("horizon", [20, 60, 200])
def test_injection_window_ends_at_horizon_minus_7(horizon):
    noise = ARProcessSpec.one_step(0.9)
    cfg = ScenarioConfig(Scenario.ARTS, BaseEnv.CONSTANT, noise, (6, horizon - 7), horizon)
    assert cfg.injection_window == (6, horizon - 7)
    with pytest.raises(ConfigError, match=f"high <= {horizon - 7}"):
        ScenarioConfig(Scenario.ARTS, BaseEnv.CONSTANT, noise, (6, horizon - 6), horizon)


def test_builtin_policies():
    rng = np.random.default_rng(5)
    random_pol = builtin_policy(BaseEnv.CARTPOLE, PolicyKind.RANDOM)
    draws = np.array([random_pol(np.zeros(4), rng) for _ in range(10_000)])
    assert abs((draws == 1).mean() - 0.5) < 0.05

    heuristic = builtin_policy(BaseEnv.CARTPOLE, PolicyKind.HEURISTIC)
    env = CartpoleEnv()
    lengths = []
    for seed in range(100):
        state = env.reset(rng_from(seed, "env"))
        n, terminated = 1, False
        while n < 200 and not terminated:
            state, _, terminated = env.step(state, heuristic(np.array(state), rng))
            n += 1
        lengths.append(n)
    assert np.mean(lengths) >= 150


def test_acrobot_heuristic_beats_random():
    env = AcrobotEnv()

    def goals(policy, tag):
        count = 0
        for seed in range(100):
            state = env.reset(rng_from(seed, tag))
            prng = rng_from(seed, tag + "_policy")
            n, terminated = 1, False
            while n < 200 and not terminated:
                state, _, terminated = env.step(state, policy(np.array(state), prng))
                n += 1
            count += terminated and env.at_goal(state)
        return count

    heuristic_goals = goals(builtin_policy(BaseEnv.ACROBOT, PolicyKind.HEURISTIC), "h")
    random_goals = goals(builtin_policy(BaseEnv.ACROBOT, PolicyKind.RANDOM), "r")
    assert heuristic_goals > random_goals


def test_estimate_dimension_scales():
    policy = builtin_policy(BaseEnv.CARTPOLE, PolicyKind.HEURISTIC)
    scales = estimate_dimension_scales(BaseEnv.CARTPOLE, policy, num_episodes=20, seed=0)
    assert scales.shape == (4,)
    assert np.all(scales > 0)


def test_episode_json_roundtrip():
    cfg = ScenarioConfig(
        scenario=Scenario.ARTS,
        base_env=BaseEnv.CONSTANT,
        noise=ARProcessSpec.one_step(0.95),
    )
    policy = builtin_policy(cfg.base_env, PolicyKind.RANDOM)
    ep = run_episode(cfg, policy, seed=12)
    back = Episode.from_json_dict(ep.to_json_dict())
    assert np.array_equal(back.observations, ep.observations)
    assert np.array_equal(back.labels, ep.labels) and back.usable
    assert back.injection_time == ep.injection_time


def test_episode_json_text_equals_the_per_value_conversion():
    observations = np.array([[-0.0, 5e-324, 1.7976931348623157e308],
                             [2.2250738585072014e-308, -1e300, 0.1],
                             [1e-310, -123456.789, 3.0]])
    ep = Episode(observations=observations, actions=np.array([1, 0]), injection_time=1,
                 reward_sum=-2.5, seed=4)
    per_value = {
        **ep.to_json_dict(),
        "observations": [[float(v) for v in row] for row in ep.observations],
        "actions": [int(a) for a in ep.actions],
    }
    assert json.dumps(ep.to_json_dict()) == json.dumps(per_value)
    assert sorted(per_value) == ["actions", "injection_time", "observations", "reward_sum", "seed"]


@pytest.mark.parametrize("length, injection_time, labels, usable", [
    (1, None, [], True),
    (4, None, [False] * 3, True),
    (4, 1, [True] * 3, True),
    (4, 2, [False, True, True], True),
    (4, 3, [False, False, True], True),
    (4, 4, [False] * 3, False),
    (4, 9, [False] * 3, False),
])
def test_episode_labels_and_usability_follow_length_and_injection_time(length, injection_time, labels,
                                                                         usable):
    ep = Episode(observations=np.zeros((length, 1)), actions=np.zeros(length - 1, dtype=int),
                 injection_time=injection_time, reward_sum=0.0, seed=0)
    assert ep.labels.dtype == bool and ep.labels.tolist() == labels
    assert ep.usable is usable


def test_episode_json_ignores_the_stored_labels_and_usability_of_older_records():
    """Records written before labels and usability were derived also hold
    ``labels`` and ``usable``, and records written before the scenario was
    left to the dataset's config hold ``scenario``; loading ignores all
    three, even when they are wrong."""
    cfg = noise_config(Scenario.ARTS, BaseEnv.CONSTANT, horizon=20, scales=(1.0,))
    ep = run_episode(cfg, builtin_policy(cfg.base_env, PolicyKind.RANDOM), seed=2)
    for stored in ({"labels": ep.labels.tolist(), "usable": True, "scenario": "arts"},
                   {"labels": [1, "x"], "usable": "no", "scenario": 5}):
        back = Episode.from_json_dict({**ep.to_json_dict(), **stored})
        assert back.to_json_dict() == ep.to_json_dict()
        assert np.array_equal(back.labels, ep.labels) and back.usable


@pytest.mark.parametrize("edit, field", [
    (lambda d: d.pop("observations"), "observations"),
    (lambda d: d.update(observations=[1.0, 2.0]), "2-D"),
    (lambda d: d.update(observations=[[float("nan")]] * 3), "finite"),
    (lambda d: d.update(actions=d["actions"][:-1]), "actions"),
    (lambda d: d.update(reward_sum="lots"), "malformed"),
])
def test_episode_json_rejects_malformed_records(edit, field):
    cfg = noise_config(Scenario.ARTS, BaseEnv.CONSTANT, horizon=20, scales=(1.0,))
    policy = builtin_policy(cfg.base_env, PolicyKind.RANDOM)
    doc = run_episode(cfg, policy, seed=2).to_json_dict()
    edit(doc)
    with pytest.raises(DataError, match=field):
        Episode.from_json_dict(doc)


def test_make_env_constant():
    env = make_env(BaseEnv.CONSTANT)
    assert isinstance(env, ConstantEnv)
    state = env.reset(np.random.default_rng(0))
    nxt, reward, terminal = env.step(state, 0)
    assert nxt == state == [0.0]
    assert reward == 0.0 and not terminal


# Bit-for-bit equality with the simulation as first written
# (tests/simulation_oracle.py).

SCENARIO_BASES = [
    (Scenario.ARTS, BaseEnv.CONSTANT),
    (Scenario.ARNO, BaseEnv.CARTPOLE),
    (Scenario.ARNO, BaseEnv.ACROBOT),
    (Scenario.ARNS, BaseEnv.CARTPOLE),
]


def ar_spec(mode, phi, magnitude):
    if mode is CorrelationMode.NO_CORRELATION:
        return ARProcessSpec.no_correlation(scale=magnitude)
    if mode is CorrelationMode.ONE_STEP:
        return ARProcessSpec.one_step(phi, scale=magnitude)
    return ARProcessSpec.two_step(phi, scale=magnitude)


@st.composite
def episode_configs(draw):
    scenario, base_env = draw(st.sampled_from(SCENARIO_BASES))
    magnitude = 10.0 ** draw(st.floats(-3.0, 1.0))
    noise = ar_spec(draw(st.sampled_from(CorrelationMode)), draw(st.floats(-0.99, 0.99)), magnitude)
    horizon = draw(st.integers(20, 120))
    low = draw(st.integers(6, horizon - 7))
    dim = {BaseEnv.CONSTANT: 1, BaseEnv.CARTPOLE: 4, BaseEnv.ACROBOT: 6}[base_env]
    scales = draw(st.none() | st.tuples(*[st.floats(0.0, 2.0)] * dim))
    return ScenarioConfig(
        scenario=scenario, base_env=base_env, noise=noise,
        injection_window=(low, draw(st.integers(low, horizon - 7))), horizon=horizon,
        per_dimension_scale=scales,
    )


def watched(policy, dim, given=list):
    """``policy`` plus the list of observations it was given: each a list of
    ``dim`` Python floats, or with ``given=np.ndarray`` (the oracle's) a 1-D
    array of ``dim`` floats."""
    seen = []

    def wrapped(observation, rng):
        assert type(observation) is given and len(observation) == dim
        if given is list:
            assert all(type(v) is float for v in observation)
        else:
            assert observation.shape == (dim,) and observation.dtype == np.float64
        seen.append(np.array(observation))
        return policy(observation, rng)

    return wrapped, seen


def bits(array):
    return np.asarray(array, dtype=float).view(np.int64)


def assert_same_episode(got, want, got_hidden, want_hidden):
    assert np.array_equal(bits(got.observations), bits(want.observations))
    assert got.observations.shape == want.observations.shape
    assert got.observations.dtype == want.observations.dtype
    assert got.observations.flags.c_contiguous
    assert got.actions.dtype == want.actions.dtype
    assert got.actions.shape == want.actions.shape
    assert np.array_equal(got.actions, want.actions)
    assert np.array_equal(got.labels, want.labels)
    assert bits(got.reward_sum) == bits(want.reward_sum)
    assert got.injection_time == want.injection_time
    assert got.usable == want.usable
    assert got_hidden.shape == want_hidden.shape
    assert np.array_equal(bits(got_hidden), bits(want_hidden))


@settings(max_examples=80, deadline=None)
@given(
    config=episode_configs(),
    kind=st.sampled_from(PolicyKind),
    inject=st.booleans(),
    seed=st.integers(0, 2**63 - 1),
)
def test_run_episode_equals_oracle_bit_for_bit(config, kind, inject, seed):
    dim = config.num_dimensions
    policy, seen = watched(builtin_policy(config.base_env, kind), dim)
    got, got_hidden = recorded_episode(config, policy, seed, inject=inject)
    oracle_policy, oracle_seen = watched(builtin_policy(config.base_env, kind), dim, np.ndarray)
    want, want_hidden = oracle.run_episode(config, oracle_policy, seed, inject=inject)
    assert_same_episode(got, want, got_hidden, want_hidden)
    if config.scenario is Scenario.ARTS:
        # The constant environment's one action is 0: ARTS asks no policy.
        assert seen == [] and len(oracle_seen) == len(want.observations) - 1 and not want.actions.any()
    else:
        assert len(seen) == len(oracle_seen)
        assert all(np.array_equal(bits(a), bits(b)) for a, b in zip(seen, oracle_seen))


@pytest.mark.parametrize("scenario", [Scenario.ARNO, Scenario.ARNS])
@pytest.mark.parametrize("dim", range(4))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e160, -1e200, 1e300])
@settings(max_examples=5, deadline=None)
@given(step=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_divergence_raises_at_the_oracle_step(scenario, dim, bad, step, seed):
    # A non-finite or huge noise entry: ARNS feeds it into the transition,
    # ARNO only into the observation.
    values = np.random.default_rng(seed).normal(size=(4, 60)) * 0.01
    values[dim, step] = bad
    cfg = noise_config(scenario)

    def outcome(simulate_fn, given):
        policy, seen = watched(builtin_policy(BaseEnv.CARTPOLE, PolicyKind.HEURISTIC), 4, given)
        try:
            with np.errstate(all="ignore"):
                result = simulate_fn(cfg, policy, values, seed)
        except SimulationDivergedError:
            return "diverged", len(seen), None
        return "finished", len(seen), result

    got, want = outcome(simulate_recorded, list), outcome(oracle_simulate, np.ndarray)
    assert got[:2] == want[:2]
    if want[2] is not None:
        for a, b in zip(got[2], want[2]):
            assert np.array_equal(bits(a), bits(b))


@settings(max_examples=30, deadline=None)
@given(
    base_env=st.sampled_from(BaseEnv),
    kind=st.sampled_from(PolicyKind),
    num_episodes=st.integers(1, 4),
    horizon=st.integers(20, 100),
    seed=st.integers(0, 2**63 - 1),
)
def test_estimate_dimension_scales_equals_oracle(base_env, kind, num_episodes, horizon, seed):
    policy = builtin_policy(base_env, kind)
    got = estimate_dimension_scales(base_env, policy, num_episodes, horizon, seed)
    want = oracle.estimate_dimension_scales(base_env, policy, num_episodes, horizon, seed)
    assert np.array_equal(bits(got), bits(want))
