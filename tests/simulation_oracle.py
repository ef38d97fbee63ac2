"""The episode simulation, the AR recursion and the mean-shift CUSUM as
first written, kept as the bit-for-bit oracles for ``dexter.environments``,
``dexter.ar_noise`` and the mean-shift baseline of ``dexter.baselines``.

Every step here runs on NumPy arrays: each transition builds its state
array, checks it with ``np.isfinite(...).all()`` and wraps it in an
``EnvState``; the noise column is sliced and scaled per step; the AR
recursion indexes NumPy scalars. The library now runs one loop on Python
floats and must reproduce these results bit for bit, errors included.

The mean-shift CUSUM here keeps its per-coordinate statistics in NumPy
arrays advanced with ``np.maximum``, and calibrates with its own copy of
the split-half protocol; the library walks Python floats through the shared
``cusum.clamped_step`` and ``cusum.calibrate_split_half``.
"""

import math
from dataclasses import dataclass

import numpy as np

from dexter.ar_noise import CorrelationMode
from dexter.baselines import DEFAULT_KAPPA, MeanShiftDetector
from dexter.cusum import percentile_threshold, split_halves
from dexter.environments import (
    DEFAULT_HORIZON,
    EPISODE_RETRY_CAP,
    BaseEnv,
    Scenario,
    ScenarioConfig,
)
from dexter.errors import ConfigError, SimulationDivergedError
from dexter.seeding import child_seed, rng_from


def recurse(out, phi, mu, innovations, start):
    """In-place AR recursion out[t] = mu + sum phi_i out[t-i] + innovations[t]
    for t >= start; indices before the series start count as zero lags."""
    p = len(phi)
    if p == 0:
        out[start:] = mu + innovations[start:]
        return
    for t in range(start, len(out)):
        acc = mu + innovations[t]
        for i in range(1, p + 1):
            if phi[i - 1] != 0.0 and t - i >= 0:
                acc += phi[i - 1] * out[t - i]
        out[t] = acc


def coefficients(mode, phi):
    """The AR coefficients (phi_1, ..., phi_p) of a correlation mode."""
    return {CorrelationMode.NO_CORRELATION: (), CorrelationMode.ONE_STEP: (phi,),
            CorrelationMode.TWO_STEP: (0.0, phi)}[CorrelationMode(mode)]


def spliced_series(spec, injection_step, length, seed):
    """``ar_noise.spliced_series`` as first written, with a white AR(0)
    process of mean 0 before the injection: the white recursion runs to the
    end of the series, then the correlated one overwrites everything from
    the injection step on. The burn-in was max(50, 10 p) of the white
    process, 50."""
    burn = 50
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    eps = rng.normal(0.0, 1.0, burn + length)
    y = np.zeros(burn + length)
    recurse(y, (), 0.0, eps * spec.innovation_sigma, 0)
    if injection_step is not None:
        phi = coefficients(spec.correlation_mode, spec.phi)
        phi_last = phi[-1] if phi else 0.0
        post_inn_sigma = spec.innovation_sigma * np.sqrt(1.0 - phi_last * phi_last)
        recurse(y, phi, 0.0, eps * post_inn_sigma, burn + injection_step)
    return y[burn:] * spec.magnitude_scale


def spliced_matrix(spec, injection_step, num_dimensions, max_steps, seed):
    """One :func:`spliced_series` per row, row i on the sub-seed
    ``child_seed(seed, "noise_row", i)``."""
    return np.stack([
        spliced_series(spec, injection_step, max_steps, child_seed(seed, "noise_row", d))
        for d in range(num_dimensions)
    ])


@dataclass(frozen=True)
class EnvState:
    """Environment state vector plus the number of completed transitions."""

    vector: np.ndarray
    step_index: int = 0


def _require_finite(vector: np.ndarray, env_name: str):
    if not np.isfinite(vector).all():
        raise SimulationDivergedError(f"{env_name} state became non-finite: {vector}")


class CartpoleEnv:
    GRAVITY = 9.8
    MASS_CART = 1.0
    MASS_POLE = 0.1
    TOTAL_MASS = MASS_CART + MASS_POLE
    HALF_LENGTH = 0.5
    POLEMASS_LENGTH = MASS_POLE * HALF_LENGTH
    FORCE_MAG = 10.0
    DT = 0.02
    THETA_LIMIT = 12.0 * math.pi / 180.0
    X_LIMIT = 2.4

    dim = 4
    num_actions = 2

    def __init__(self, horizon: int = DEFAULT_HORIZON):
        self.horizon = horizon

    def reset(self, rng: np.random.Generator) -> EnvState:
        return EnvState(vector=rng.uniform(-0.05, 0.05, size=4), step_index=0)

    def transition(self, vector: np.ndarray, action: int) -> np.ndarray:
        _require_finite(vector, "cartpole")
        x, x_dot, theta, theta_dot = vector
        force = self.FORCE_MAG if action == 1 else -self.FORCE_MAG
        cos_t = math.cos(theta)
        sin_t = math.sin(theta)
        temp = (force + self.POLEMASS_LENGTH * theta_dot**2 * sin_t) / self.TOTAL_MASS
        theta_acc = (self.GRAVITY * sin_t - cos_t * temp) / (
            self.HALF_LENGTH * (4.0 / 3.0 - self.MASS_POLE * cos_t**2 / self.TOTAL_MASS)
        )
        x_acc = temp - self.POLEMASS_LENGTH * theta_acc * cos_t / self.TOTAL_MASS
        nxt = np.array([
            x + self.DT * x_dot,
            x_dot + self.DT * x_acc,
            theta + self.DT * theta_dot,
            theta_dot + self.DT * theta_acc,
        ])
        _require_finite(nxt, "cartpole")
        return nxt

    def out_of_bounds(self, vector: np.ndarray) -> bool:
        return abs(vector[0]) > self.X_LIMIT or abs(vector[2]) > self.THETA_LIMIT

    def step(self, state: EnvState, action: int):
        nxt = self.transition(state.vector, action)
        new_index = state.step_index + 1
        terminated = self.out_of_bounds(nxt) or new_index >= self.horizon
        return EnvState(vector=nxt, step_index=new_index), 1.0, terminated


class AcrobotEnv:
    DT = 0.2
    LINK_MASS = 1.0
    LINK_LENGTH = 1.0
    LINK_COM = 0.5
    LINK_INERTIA = 1.0
    GRAVITY = 9.8
    MAX_VEL_1 = 4.0 * math.pi
    MAX_VEL_2 = 9.0 * math.pi
    TORQUES = (-1.0, 0.0, 1.0)

    dim = 6
    num_actions = 3

    def __init__(self, horizon: int = DEFAULT_HORIZON):
        self.horizon = horizon

    def reset(self, rng: np.random.Generator) -> EnvState:
        angles = rng.uniform(-0.1, 0.1, size=4)
        return EnvState(vector=self._embed(angles), step_index=0)

    @staticmethod
    def _embed(angles: np.ndarray) -> np.ndarray:
        th1, th2, w1, w2 = angles
        return np.array([math.cos(th1), math.sin(th1), math.cos(th2), math.sin(th2), w1, w2])

    @staticmethod
    def _angles(vector: np.ndarray) -> np.ndarray:
        return np.array([
            math.atan2(vector[1], vector[0]),
            math.atan2(vector[3], vector[2]),
            vector[4],
            vector[5],
        ])

    def _derivs(self, y: np.ndarray, torque: float) -> np.ndarray:
        m, l1, lc, inertia, g = (
            self.LINK_MASS, self.LINK_LENGTH, self.LINK_COM, self.LINK_INERTIA, self.GRAVITY,
        )
        th1, th2, w1, w2 = y
        d1 = m * lc**2 + m * (l1**2 + lc**2 + 2 * l1 * lc * math.cos(th2)) + 2 * inertia
        d2 = m * (lc**2 + l1 * lc * math.cos(th2)) + inertia
        phi2 = m * lc * g * math.cos(th1 + th2 - math.pi / 2.0)
        phi1 = (
            -m * l1 * lc * w2**2 * math.sin(th2)
            - 2 * m * l1 * lc * w2 * w1 * math.sin(th2)
            + (m * lc + m * l1) * g * math.cos(th1 - math.pi / 2.0)
            + phi2
        )
        a2 = (torque + d2 / d1 * phi1 - m * l1 * lc * w1**2 * math.sin(th2) - phi2) / (
            m * lc**2 + inertia - d2**2 / d1
        )
        a1 = -(d2 * a2 + phi1) / d1
        return np.array([w1, w2, a1, a2])

    def _rk4(self, y: np.ndarray, torque: float) -> np.ndarray:
        dt = self.DT
        k1 = self._derivs(y, torque)
        k2 = self._derivs(y + dt / 2.0 * k1, torque)
        k3 = self._derivs(y + dt / 2.0 * k2, torque)
        k4 = self._derivs(y + dt * k3, torque)
        return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def transition(self, vector: np.ndarray, action: int) -> np.ndarray:
        _require_finite(vector, "acrobot")
        y = self._rk4(self._angles(vector), self.TORQUES[action])
        th1 = math.atan2(math.sin(y[0]), math.cos(y[0]))
        th2 = math.atan2(math.sin(y[1]), math.cos(y[1]))
        w1 = min(max(y[2], -self.MAX_VEL_1), self.MAX_VEL_1)
        w2 = min(max(y[3], -self.MAX_VEL_2), self.MAX_VEL_2)
        nxt = self._embed(np.array([th1, th2, w1, w2]))
        _require_finite(nxt, "acrobot")
        return nxt

    def at_goal(self, vector: np.ndarray) -> bool:
        th1, th2 = self._angles(vector)[:2]
        return -math.cos(th1) - math.cos(th1 + th2) > 1.0

    def step(self, state: EnvState, action: int):
        nxt = self.transition(state.vector, action)
        new_index = state.step_index + 1
        goal = self.at_goal(nxt)
        terminated = goal or new_index >= self.horizon
        reward = 0.0 if goal else -1.0
        return EnvState(vector=nxt, step_index=new_index), reward, terminated


class ConstantEnv:
    dim = 1
    num_actions = 1

    def __init__(self, horizon: int = DEFAULT_HORIZON):
        self.horizon = horizon

    def reset(self, rng: np.random.Generator) -> EnvState:
        return EnvState(vector=np.zeros(1), step_index=0)

    def step(self, state: EnvState, action: int):
        new_index = state.step_index + 1
        return (
            EnvState(vector=state.vector.copy(), step_index=new_index),
            0.0,
            new_index >= self.horizon,
        )


_ENV_CLASSES = {
    BaseEnv.CARTPOLE: CartpoleEnv,
    BaseEnv.ACROBOT: AcrobotEnv,
    BaseEnv.CONSTANT: ConstantEnv,
}


def make_env(base_env: BaseEnv, horizon: int = DEFAULT_HORIZON):
    return _ENV_CLASSES[BaseEnv(base_env)](horizon=horizon)


def arts_step(t: int, noise: np.ndarray) -> float:
    if noise.shape[0] != 1:
        raise ConfigError("ARTS noise matrix must have exactly 1 row")
    if not 0 <= t < noise.shape[1]:
        raise IndexError(f"step {t} outside noise horizon {noise.shape[1]}")
    return float(noise[0, t])


def _noise_column(noise: np.ndarray, per_dim_scale: np.ndarray, t: int, dim: int) -> np.ndarray:
    if noise.shape[0] != dim:
        raise ConfigError(
            f"noise matrix has {noise.shape[0]} rows, environment needs {dim}"
        )
    return noise[:, t] * per_dim_scale


def arno_step(env, state: EnvState, action: int, noise: np.ndarray, per_dim_scale, t: int):
    next_state, reward, terminated = env.step(state, action)
    column = _noise_column(noise, np.asarray(per_dim_scale, dtype=float), t + 1, env.dim)
    observation = next_state.vector + column
    return next_state, observation, reward, terminated


def arns_step(env, state: EnvState, action: int, noise: np.ndarray, per_dim_scale, t: int):
    column = _noise_column(noise, np.asarray(per_dim_scale, dtype=float), t + 1, env.dim)
    perturbed = EnvState(vector=state.vector + column, step_index=state.step_index)
    _require_finite(perturbed.vector, "arns-perturbed")
    return env.step(perturbed, action)


def simulate(config: ScenarioConfig, policy, noise: np.ndarray, env_rng, policy_rng):
    """(observations, actions, reward sum, hidden states) of one roll-out."""
    env = make_env(config.base_env, config.horizon)
    scales = config.scales()
    state = env.reset(env_rng)

    if config.scenario is Scenario.ARTS:
        first_obs = np.array([arts_step(0, noise)])
    elif config.scenario is Scenario.ARNO:
        first_obs = state.vector + _noise_column(noise, scales, 0, env.dim)
    else:
        first_obs = state.vector.copy()

    observations = [first_obs]
    hidden = [state.vector.copy()]
    actions = []
    reward_sum = 0.0
    terminated = False
    t = 0
    while len(observations) < config.horizon and not terminated:
        action = policy(observations[-1], policy_rng)
        if config.scenario is Scenario.ARTS:
            state, reward, terminated = env.step(state, action)
            obs = np.array([arts_step(t + 1, noise)])
        elif config.scenario is Scenario.ARNO:
            state, obs, reward, terminated = arno_step(env, state, action, noise, scales, t)
        else:
            state, reward, terminated = arns_step(env, state, action, noise, scales, t)
            obs = state.vector.copy()
        observations.append(obs)
        actions.append(action)
        reward_sum += reward
        hidden.append(state.vector.copy())
        t += 1

    return (
        np.asarray(observations),
        np.asarray(actions, dtype=int),
        reward_sum,
        np.asarray(hidden),
    )


@dataclass
class RecordedEpisode:
    """An episode as first written: the library's ``Episode`` fields plus
    the labels and the usability, which the library now derives and this
    oracle still computes itself."""

    observations: np.ndarray
    actions: np.ndarray
    injection_time: int | None
    labels: np.ndarray
    reward_sum: float
    seed: int
    usable: bool = True


def run_episode(config: ScenarioConfig, policy, seed: int, inject: bool = True):
    """The episode roll-out as first written, as a :class:`RecordedEpisode`,
    and its hidden states; its noise comes from :func:`spliced_matrix`."""
    low, high = config.injection_window
    last = None
    for attempt in range(EPISODE_RETRY_CAP + 1):
        attempt_seed = child_seed(seed, "attempt", attempt)
        noise_seed = child_seed(attempt_seed, "noise")
        t_a = int(rng_from(attempt_seed, "t_a").integers(low, high + 1)) if inject else None
        noise = spliced_matrix(config.noise, t_a, config.num_dimensions, config.horizon, noise_seed)

        observations, actions, reward_sum, hidden = simulate(
            config, policy, noise,
            rng_from(attempt_seed, "env"), rng_from(attempt_seed, "policy"),
        )
        length = observations.shape[0]
        if inject:
            labels = np.arange(1, length) >= t_a
        else:
            labels = np.zeros(max(length - 1, 0), dtype=bool)

        episode = RecordedEpisode(
            observations=observations,
            actions=actions,
            injection_time=t_a,
            labels=labels,
            reward_sum=reward_sum,
            seed=int(seed),
            usable=True,
        )
        if not inject or length >= t_a + 1:
            return episode, hidden
        last = episode, hidden
    last[0].usable = False
    return last


def estimate_dimension_scales(base_env: BaseEnv, policy, num_episodes: int = 50,
                              horizon: int = DEFAULT_HORIZON, seed: int = 0) -> np.ndarray:
    env = make_env(base_env, horizon)
    pooled = []
    for i in range(num_episodes):
        env_rng = rng_from(seed, "scale_env", i)
        policy_rng = rng_from(seed, "scale_policy", i)
        state = env.reset(env_rng)
        vectors = [state.vector.copy()]
        terminated = False
        while len(vectors) < horizon and not terminated:
            action = policy(vectors[-1], policy_rng)
            state, _, terminated = env.step(state, action)
            vectors.append(state.vector.copy())
        pooled.append(np.asarray(vectors))
    stds = np.concatenate(pooled, axis=0).std(axis=0)
    return np.maximum(stds, 1e-8)


class MeanShiftCusum:
    """Per-coordinate two-sided CUSUM for mean shifts in a standardized
    multivariate stream. One instance per monitored episode."""

    def __init__(self, reference_mean, reference_std, threshold: float | None,
                 kappa: float = DEFAULT_KAPPA):
        self.reference_mean = np.asarray(reference_mean, dtype=float)
        self.reference_std = np.asarray(reference_std, dtype=float)
        self.threshold = threshold
        self.kappa = float(kappa)
        dim = self.reference_mean.shape[0]
        self.upper = np.zeros(dim)
        self.lower = np.zeros(dim)

    def statistic(self) -> float:
        return float(np.maximum(self.upper, self.lower).max())

    def step(self, observation) -> bool:
        """Consume one observation; returns the alert flag."""
        if self.threshold is None:
            raise ConfigError("mean-shift CUSUM is not calibrated (no threshold)")
        z = (np.asarray(observation, dtype=float) - self.reference_mean) / self.reference_std
        self.upper = np.maximum(0.0, self.upper + z - self.kappa)
        self.lower = np.maximum(0.0, self.lower - z - self.kappa)
        return self.statistic() > self.threshold


def meanshift_monitor(detector: MeanShiftDetector) -> MeanShiftCusum:
    return MeanShiftCusum(detector.reference_mean, detector.reference_std, detector.threshold,
                          detector.kappa)


def meanshift_statistic_trace(detector: MeanShiftDetector, observations) -> np.ndarray:
    """Accumulated statistic after consuming each observation j >= 1; entry i
    corresponds to the transition into observation i+1."""
    obs = np.asarray(observations, dtype=float)
    monitor = meanshift_monitor(detector)
    trace = np.empty(obs.shape[0] - 1)
    for j in range(1, obs.shape[0]):
        monitor.step(obs[j])
        trace[j - 1] = monitor.statistic()
    return trace


def fit_meanshift(calibration_episodes, target_fpr: float, kappa: float = DEFAULT_KAPPA,
                  seed: int = 0) -> MeanShiftDetector:
    episodes = list(calibration_episodes)
    if len(episodes) < 2:
        raise ConfigError("calibration requires at least 2 episodes")
    if not 0.0 < target_fpr < 1.0:
        raise ConfigError(f"target_fpr must be in (0, 1), got {target_fpr}")
    first, second = split_halves(len(episodes), seed)
    pooled = np.concatenate([np.asarray(episodes[i].observations, dtype=float) for i in first])
    ref_mean = pooled.mean(axis=0)
    ref_std = np.maximum(pooled.std(axis=0), 1e-12)

    probe = MeanShiftDetector(ref_mean, ref_std, threshold=np.inf, kappa=kappa, target_fpr=target_fpr)
    maxima = [
        meanshift_statistic_trace(probe, episodes[i].observations).max()
        if len(episodes[i].observations) > 1 else 0.0
        for i in second
    ]
    threshold = percentile_threshold(maxima, target_fpr)
    return MeanShiftDetector(ref_mean, ref_std, threshold, kappa=kappa, target_fpr=target_fpr)


def meanshift_detect_online(detector: MeanShiftDetector, episode):
    obs = np.asarray(episode.observations, dtype=float)
    monitor = meanshift_monitor(detector)
    for j in range(1, obs.shape[0]):
        if monitor.step(obs[j]):
            return j
    return None
