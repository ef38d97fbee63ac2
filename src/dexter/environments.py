"""Natively implemented control environments and the noise-injection
scenarios built on them.

Three base environments (classic Cartpole with Euler integration, classic
Acrobot with RK4, and a trivial constant-state environment) are wrapped by
three scenario families. Each environment is a plain class:
``reset(rng)`` returns the initial state as a list of Python floats, and
``step(state, action)`` returns ``(next_state, reward, terminal)`` with the
next state a new list of floats; a state that is or becomes non-finite
raises :class:`SimulationDivergedError`.

* ARTS -- the observation *is* a 1-D noise series; the state is constant.
* ARNO -- sensory anomaly: dynamics run on the true state, and the
  per-dimension-scaled noise column is added to the observation only.
* ARNS -- semantic anomaly: the noise perturbs the state passed to
  ``step``, so it changes the dynamics themselves; the recorded
  observation is the true next state.

Episodes label every transition by whether its destination observation index
has reached the injection time t_a, so an episode of length L carries L-1
labels and, with L = 200 and t_a = 100, exactly 99 in-distribution and 100
anomalous transitions.
"""

import math
from dataclasses import dataclass
from enum import Enum
from math import isfinite

import numpy as np

from .ar_noise import ARProcessSpec, spliced_matrix
from .errors import ConfigError, DataError, SimulationDivergedError, is_number, member, read_field, require
from .seeding import child_seed, rng_from

DEFAULT_HORIZON = 200
EPISODE_RETRY_CAP = 10


class Scenario(str, Enum):
    ARTS = "arts"
    ARNO = "arno"
    ARNS = "arns"


class BaseEnv(str, Enum):
    CARTPOLE = "cartpole"
    ACROBOT = "acrobot"
    CONSTANT = "constant"


class PolicyKind(str, Enum):
    RANDOM = "random"
    HEURISTIC = "heuristic"


def _diverged(env_name: str, state) -> SimulationDivergedError:
    return SimulationDivergedError(f"{env_name} state became non-finite: {state}")


class CartpoleEnv:
    """Classic cart-pole balancing with the standard constants and explicit
    Euler integration; binary force direction actions (0 = left, 1 = right)."""

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

    def reset(self, rng: np.random.Generator) -> list:
        return rng.uniform(-0.05, 0.05, size=4).tolist()

    def step(self, state: list, action: int):
        """(next state, reward 1.0, whether the cart or pole left its bounds)."""
        x, x_dot, theta, theta_dot = state
        if not (isfinite(x) and isfinite(x_dot) and isfinite(theta) and isfinite(theta_dot)):
            raise _diverged("cartpole", state)
        force = self.FORCE_MAG if action == 1 else -self.FORCE_MAG
        cos_t = math.cos(theta)
        sin_t = math.sin(theta)
        try:
            temp = (force + self.POLEMASS_LENGTH * theta_dot**2 * sin_t) / self.TOTAL_MASS
        except OverflowError:  # a float power raises where an array's gives inf
            raise _diverged("cartpole", state) from None
        theta_acc = (self.GRAVITY * sin_t - cos_t * temp) / (
            self.HALF_LENGTH * (4.0 / 3.0 - self.MASS_POLE * cos_t**2 / self.TOTAL_MASS)
        )
        x_acc = temp - self.POLEMASS_LENGTH * theta_acc * cos_t / self.TOTAL_MASS
        x = x + self.DT * x_dot
        x_dot = x_dot + self.DT * x_acc
        theta = theta + self.DT * theta_dot
        theta_dot = theta_dot + self.DT * theta_acc
        nxt = [x, x_dot, theta, theta_dot]
        if not (isfinite(x) and isfinite(x_dot) and isfinite(theta) and isfinite(theta_dot)):
            raise _diverged("cartpole", nxt)
        return nxt, 1.0, abs(x) > self.X_LIMIT or abs(theta) > self.THETA_LIMIT


class AcrobotEnv:
    """Classic two-link acrobot with RK4 integration.

    Observations are [cos th1, sin th1, cos th2, sin th2, w1, w2]; actions
    {0, 1, 2} apply torque {-1, 0, +1} at the second joint. Reward is -1 per
    step until the free end reaches the target height.
    """

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

    def reset(self, rng: np.random.Generator) -> list:
        return self._embed(*rng.uniform(-0.1, 0.1, size=4).tolist())

    @staticmethod
    def _embed(th1, th2, w1, w2) -> list:
        return [math.cos(th1), math.sin(th1), math.cos(th2), math.sin(th2), w1, w2]

    def _derivs(self, y, torque: float) -> tuple:
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
        return w1, w2, a1, a2

    def _rk4(self, y, torque: float) -> list:
        # The operation order below fixes the bits of every episode; the
        # simulation oracle in the tests holds it to the array form.
        dt = self.DT
        half, sixth = dt / 2.0, dt / 6.0
        k1 = self._derivs(y, torque)
        k2 = self._derivs([a + half * k for a, k in zip(y, k1)], torque)
        k3 = self._derivs([a + half * k for a, k in zip(y, k2)], torque)
        k4 = self._derivs([a + dt * k for a, k in zip(y, k3)], torque)
        return [a + sixth * (p + 2.0 * q + 2.0 * r + s) for a, p, q, r, s in zip(y, k1, k2, k3, k4)]

    def at_goal(self, state) -> bool:
        th1, th2 = math.atan2(state[1], state[0]), math.atan2(state[3], state[2])
        return -math.cos(th1) - math.cos(th1 + th2) > 1.0

    def step(self, state: list, action: int):
        """(next state, reward, whether the free end reached the goal height)."""
        if not all(map(isfinite, state)):
            raise _diverged("acrobot", state)
        angles = (math.atan2(state[1], state[0]), math.atan2(state[3], state[2]), state[4], state[5])
        try:
            y = self._rk4(angles, self.TORQUES[action])
            th1 = math.atan2(math.sin(y[0]), math.cos(y[0]))
            th2 = math.atan2(math.sin(y[1]), math.cos(y[1]))
        except (OverflowError, ValueError):  # float power overflow; sin or cos of inf
            raise _diverged("acrobot", state) from None
        w1 = min(max(y[2], -self.MAX_VEL_1), self.MAX_VEL_1)
        w2 = min(max(y[3], -self.MAX_VEL_2), self.MAX_VEL_2)
        nxt = self._embed(th1, th2, w1, w2)
        if not all(map(isfinite, nxt)):
            raise _diverged("acrobot", nxt)
        goal = self.at_goal(nxt)
        return nxt, 0.0 if goal else -1.0, goal


class ConstantEnv:
    """1-D environment whose state never changes; the ARTS base."""

    dim = 1
    num_actions = 1

    def reset(self, rng: np.random.Generator) -> list:
        return [0.0]

    def step(self, state: list, action: int):
        return list(state), 0.0, False


_ENV_CLASSES = {
    BaseEnv.CARTPOLE: CartpoleEnv,
    BaseEnv.ACROBOT: AcrobotEnv,
    BaseEnv.CONSTANT: ConstantEnv,
}


def make_env(base_env: BaseEnv):
    return _ENV_CLASSES[BaseEnv(base_env)]()


# The base environments of each scenario. ARNS leaves out Acrobot, where state
# noise perversely helps the agent.
_SCENARIO_ENVS = {Scenario.ARTS: ["constant"], Scenario.ARNO: ["cartpole", "acrobot"],
                  Scenario.ARNS: ["cartpole"]}


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one benchmark scenario.

    ``noise`` is white until the injection time t_a and then follows its
    correlation mode at the same level; t_a is drawn from
    ``injection_window``, integers ``(low, high)`` with 5 < low <= high <=
    horizon - 7, by default (6, horizon - 7). ``horizon`` is an integer of at
    least 20 and ``per_dimension_scale`` one finite, non-negative number per
    dimension, or None for ones. Anything else raises :class:`ConfigError`
    naming its field, as does a scenario on a base environment it lacks.
    """

    scenario: Scenario
    base_env: BaseEnv
    noise: ARProcessSpec
    injection_window: tuple | None = None
    horizon: int = DEFAULT_HORIZON
    per_dimension_scale: tuple | None = None

    def __post_init__(self):
        scenario = member(Scenario, self.scenario, "scenario")
        base_env, envs = member(BaseEnv, self.base_env, "base_env"), _SCENARIO_ENVS[scenario]
        require(base_env in envs, "base_env", f"one of {envs} under {scenario.value}", base_env.value)
        horizon, window, scales = self.horizon, self.injection_window, self.per_dimension_scale
        require(is_number(horizon, integer=True) and horizon >= 20, "horizon",
                "an integer of at least 20", horizon)
        window = (6, horizon - 7) if window is None else window
        require(isinstance(window, (list, tuple)) and len(window) == 2
                and all(is_number(v, integer=True) for v in window),
                "injection_window", "null or a pair of integers", window)
        low, high = window
        require(5 < low <= high <= horizon - 7, "injection_window",
                f"strictly inside (t0+5, t_H-5): 5 < low <= high <= {horizon - 7}", window)
        dims = _ENV_CLASSES[base_env].dim
        require(scales is None or (isinstance(scales, (list, tuple, np.ndarray)) and len(scales) == dims
                                   and all(is_number(v) and v >= 0 for v in scales)),
                "per_dimension_scale", f"null or one finite non-negative number per dimension ({dims})", scales)
        for name, value in (("scenario", scenario), ("base_env", base_env), ("horizon", int(horizon)),
                            ("injection_window", (int(low), int(high))), ("per_dimension_scale",
                             None if scales is None else tuple(float(v) for v in scales))):
            object.__setattr__(self, name, value)

    @property
    def num_dimensions(self) -> int:
        return _ENV_CLASSES[self.base_env].dim

    def scales(self) -> np.ndarray:
        """The noise scale of each dimension; a zero silences its noise."""
        scales = self.per_dimension_scale
        return np.ones(self.num_dimensions) if scales is None else np.array(scales)


@dataclass
class Episode:
    """One recorded trajectory. Its ``labels`` and ``usable`` follow from
    its length and injection time, and its scenario from the dataset's
    config, so none of them is stored."""

    observations: np.ndarray
    actions: np.ndarray
    injection_time: int | None
    reward_sum: float
    seed: int

    @property
    def length(self) -> int:
        return self.observations.shape[0]

    @property
    def num_dimensions(self) -> int:
        return self.observations.shape[1]

    @property
    def labels(self) -> np.ndarray:
        """``labels[i]`` is True when transition i's destination i+1 has
        reached the injection time; a clean episode has none."""
        if self.injection_time is None:
            return np.zeros(self.length - 1, dtype=bool)
        return np.arange(1, self.length) >= self.injection_time

    @property
    def usable(self) -> bool:
        """Whether the episode is clean or has an anomalous transition."""
        return self.injection_time is None or self.length > self.injection_time

    def to_json_dict(self) -> dict:
        return {
            "seed": int(self.seed),
            "injection_time": None if self.injection_time is None else int(self.injection_time),
            "observations": np.asarray(self.observations, dtype=float).tolist(),
            "actions": np.asarray(self.actions, dtype=int).tolist(),
            "reward_sum": float(self.reward_sum),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Episode":
        """The episode of one dataset record. A record that is not an
        object, a missing key, a field of the wrong JSON type, observations
        that are not a finite 2-D matrix, actions that are not integers, one
        per transition, and an ``injection_time`` that is neither null nor an
        integer >= 1 raise :class:`DataError`. Other keys are ignored."""
        def read(name, kind=float, ndim=0, nullable=False):
            return read_field(d, name, "episode record", kind, ndim, DataError, nullable)

        episode = cls(
            observations=read("observations", ndim=2),
            actions=read("actions", int, 1),
            injection_time=read("injection_time", int, nullable=True),
            reward_sum=read("reward_sum"),
            seed=read("seed", int),
        )
        if episode.injection_time is not None and episode.injection_time < 1:
            raise DataError(f"episode injection_time {episode.injection_time} < 1")
        if episode.actions.shape != (episode.length - 1,):
            raise DataError(f"episode with {episode.length} observations needs {episode.length - 1} "
                            f"actions, got {episode.actions.shape[0]}")
        return episode


def random_policy(num_actions: int):
    def policy(observation, rng):
        return int(rng.integers(num_actions))

    return policy


def cartpole_heuristic_policy():
    """PD rule on pole angle and angular velocity: push toward the side the
    pole leans."""

    def policy(observation, rng):
        theta, theta_dot = observation[2], observation[3]
        return 1 if theta + 0.5 * theta_dot > 0.0 else 0

    return policy


def acrobot_heuristic_policy():
    """Bang-bang torque aligned with the second link's angular velocity sign
    (monotone energy pumping at the actuated joint)."""

    def policy(observation, rng):
        w2 = observation[5]
        if w2 > 0.0:
            return 2
        if w2 < 0.0:
            return 0
        return 1

    return policy


def builtin_policy(base_env: BaseEnv, kind: PolicyKind):
    base_env = BaseEnv(base_env)
    kind = PolicyKind(kind)
    if kind is PolicyKind.RANDOM or base_env is BaseEnv.CONSTANT:
        return random_policy(_ENV_CLASSES[base_env].num_actions)
    if base_env is BaseEnv.CARTPOLE:
        return cartpole_heuristic_policy()
    return acrobot_heuristic_policy()


def _observe(scenario, state: list, columns, t: int) -> list:
    if scenario is Scenario.ARNO:
        return [v + n for v, n in zip(state, columns[t])]
    return state


def _rollout(env, state: list, policy, policy_rng, horizon: int, scenario=None, columns=()):
    """The simulation loop: step ``env`` from ``state`` until it terminates
    or ``horizon`` observations exist.

    ``columns[t]`` is the noise of observation t. Under ARNO it is added to
    the observed state; under ARNS it is added to the state that the
    transition into t starts from. With ``scenario=None`` the clean state is
    observed. Returns the observations (the lists of floats the policy was
    given, which it must not change), the actions and the reward sum.
    """
    observations = [_observe(scenario, state, columns, 0)]
    actions = []
    reward_sum = 0.0
    for t in range(1, horizon):
        action = policy(observations[-1], policy_rng)
        if scenario is Scenario.ARNS:
            state = [v + n for v, n in zip(state, columns[t])]
        state, reward, terminal = env.step(state, action)
        observations.append(_observe(scenario, state, columns, t))
        actions.append(action)
        reward_sum += reward
        if terminal:
            break
    return observations, actions, reward_sum


def _simulate(config: ScenarioConfig, policy, noise: np.ndarray, seed: int):
    """(observations, actions, reward sum) of one roll-out of ``config``'s
    scenario on ``noise``, the (num_dimensions, horizon) noise matrix; the
    environment and the policy draw from ``rng_from(seed, "env")`` and
    ``rng_from(seed, "policy")``.

    ARTS observes its noise unscaled and steps nothing: its constant
    environment never terminates and has the one action 0, which is all a
    policy can return there, so the policy is not called and neither
    generator is derived.
    """
    if config.scenario is Scenario.ARTS:
        return noise.T.astype(float, order="C"), np.zeros(config.horizon - 1, dtype=int), 0.0
    env = make_env(config.base_env)
    observations, actions, reward_sum = _rollout(
        env, env.reset(rng_from(seed, "env")), policy, rng_from(seed, "policy"), config.horizon,
        config.scenario, (noise * config.scales()[:, None]).T.tolist(),
    )
    return np.array(observations), np.array(actions, dtype=int), reward_sum


def run_episode(config: ScenarioConfig, policy, seed: int, inject: bool = True) -> Episode:
    """Roll out one episode, deterministic in (config, policy, seed).

    ``policy(observation, rng)`` returns the action for each observation, a
    list of Python floats; ARTS has one action and does not call it.
    Injected episodes draw t_a uniformly from the injection window, and
    their noise turns from white to ``config.noise``'s correlation mode at
    t_a; clean episodes have no t_a and all-white noise. An injected
    episode that terminates before producing any anomalous transition is
    unusable and is re-rolled with a fresh sub-seed; the first usable
    attempt is returned, else the last of ``EPISODE_RETRY_CAP + 1``.
    """
    low, high = config.injection_window
    for attempt in range(EPISODE_RETRY_CAP + 1):
        attempt_seed = child_seed(seed, "attempt", attempt)
        t_a = int(rng_from(attempt_seed, "t_a").integers(low, high + 1)) if inject else None
        noise = spliced_matrix(config.noise, t_a, config.num_dimensions, config.horizon,
                               child_seed(attempt_seed, "noise"))
        observations, actions, reward_sum = _simulate(config, policy, noise, attempt_seed)
        episode = Episode(observations, actions, t_a, reward_sum, int(seed))
        if episode.usable:
            break
    return episode


def estimate_dimension_scales(base_env: BaseEnv, policy, num_episodes: int = 50,
                              horizon: int = DEFAULT_HORIZON, seed: int = 0) -> np.ndarray:
    """Per-dimension observation std over clean, noise-free rollouts; the
    normalization factors for noise magnitudes."""
    if num_episodes < 1:
        raise ConfigError("num_episodes must be >= 1")
    env = make_env(base_env)
    pooled = []
    for i in range(num_episodes):
        observations, _, _ = _rollout(
            env, env.reset(rng_from(seed, "scale_env", i)), policy,
            rng_from(seed, "scale_policy", i), horizon,
        )
        pooled.append(np.array(observations))
    stds = np.concatenate(pooled, axis=0).std(axis=0)
    return np.maximum(stds, 1e-8)
