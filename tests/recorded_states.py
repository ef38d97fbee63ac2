"""The hidden states of simulated episodes, recorded from outside the
library: within :func:`recording`, each environment that
``environments.make_env`` returns records its state at every ``reset`` and
then the state each ``step`` returns. Under ARNS the noise-perturbed state
passed to ``step`` is not recorded, only the state it returns. An ARTS
episode makes no environment; its hidden state is the constant 0.0."""

import contextlib
from unittest import mock

import numpy as np

from dexter import environments


@contextlib.contextmanager
def recording():
    """Yields a list that gains one list of states per ``reset``; the
    hidden states of the last roll-out are ``np.array(runs[-1])``."""
    runs = []
    make_env = environments.make_env

    def recording_env(base_env):
        env = make_env(base_env)
        reset, step = env.reset, env.step

        def recorded_reset(rng):
            state = reset(rng)
            runs.append([list(state)])
            return state

        def recorded_step(state, action):
            result = step(state, action)
            runs[-1].append(list(result[0]))
            return result

        env.reset, env.step = recorded_reset, recorded_step
        return env

    with mock.patch.object(environments, "make_env", recording_env):
        yield runs


def hidden_states(config, runs: list, length: int) -> np.ndarray:
    """The hidden states of the last roll-out of ``config`` that ``runs``
    recorded; ``length`` is its number of observations."""
    if config.scenario is environments.Scenario.ARTS:
        assert runs == []  # no environment is made, reset or stepped
        return np.zeros((length, 1))
    return np.array(runs[-1])


def recorded_episode(config, policy, seed: int, inject: bool = True):
    """The episode of ``environments.run_episode`` and its hidden states."""
    with recording() as runs:
        episode = environments.run_episode(config, policy, seed, inject=inject)
    return episode, hidden_states(config, runs, episode.length)
