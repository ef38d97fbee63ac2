"""Simplified comparison detectors.

Two stand-ins accompany the main detector:

* PEDM-lite -- an ensemble of probabilistic one-step dynamics regressors
  (per-dimension linear models on a degree-2 polynomial basis of state and
  action, residual variance per dimension), scoring each transition by the
  mean negative Gaussian log-density of the observed next state. Its CUSUM
  variant (PEDM-C-lite) reuses the exact calibration and online recursion of
  the main detector.
* Mean-shift CUSUM -- a per-coordinate two-sided CUSUM with allowance
  kappa = 0.5 on standardized observations, the classic test for changes in
  the mean of a multivariate stream. Its per-transition anomaly score is the
  largest standardized deviation across coordinates; the online alert uses
  the accumulated statistic, advanced by the shared ``cusum.clamped_step`` on
  Python floats and calibrated by the shared split-half protocol.
"""

from dataclasses import dataclass

import numpy as np

from .cusum import (
    CusumDetector, calibrate_from_streams, calibrate_split_half, check_calibrated, clamped_step,
    first_alert_step, first_crossing,
)
from .errors import ConfigError, DataError, IncompatibleModelError, read_field
from .seeding import rng_from

DEFAULT_ENSEMBLE_SIZE = 5
DEFAULT_KAPPA = 0.5
_VAR_FLOOR = 1e-12
_LOG_2PI = float(np.log(2.0 * np.pi))


def _poly_basis(z: np.ndarray) -> np.ndarray:
    """[1, z_i, z_i z_j (i <= j)] for standardized inputs z of shape (n, k)."""
    n, k = z.shape
    cols = [np.ones(n)]
    cols.extend(z[:, i] for i in range(k))
    for i in range(k):
        for j in range(i, k):
            cols.append(z[:, i] * z[:, j])
    return np.column_stack(cols)


@dataclass
class DynamicsModelEnsemble:
    """Bootstrap ensemble of probabilistic one-step regressors."""

    coefficients: np.ndarray   # (members, basis, state_dim)
    variances: np.ndarray      # (members, state_dim), strictly positive
    input_mean: np.ndarray     # (state_dim + 1,), action appended as a scalar
    input_std: np.ndarray
    state_dim: int

    @property
    def ensemble_size(self) -> int:
        return self.coefficients.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "coefficients": self.coefficients.tolist(),
            "variances": self.variances.tolist(),
            "input_mean": self.input_mean.tolist(),
            "input_std": self.input_std.tolist(),
            "state_dim": int(self.state_dim),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DynamicsModelEnsemble":
        owner = "pedm model"
        arrays = {name: read_field(d, name, owner, ndim=ndim)
                  for name, ndim in (("coefficients", 3), ("variances", 2),
                                     ("input_mean", 1), ("input_std", 1))}
        state_dim = read_field(d, "state_dim", owner, int)
        if state_dim < 1:
            raise IncompatibleModelError(f"{owner} 'state_dim' must be a positive integer")
        model = cls(**arrays, state_dim=state_dim)
        inputs = model.state_dim + 1  # the action is the last input
        members = max(model.ensemble_size, 1)  # so that an empty ensemble fails below
        expected = {
            "coefficients": (members, 1 + inputs + inputs * (inputs + 1) // 2, model.state_dim),
            "variances": (members, model.state_dim),
            "input_mean": (inputs,),
            "input_std": (inputs,),
        }
        for name, shape in expected.items():
            if getattr(model, name).shape != shape:
                raise IncompatibleModelError(
                    f"{owner} {name!r} has shape {getattr(model, name).shape}, expected {shape}"
                )
        for name in ("variances", "input_std"):
            if not (getattr(model, name) > 0).all():
                raise IncompatibleModelError(f"{owner} {name!r} must be positive")
        return model


def _standardize_inputs(states: np.ndarray, actions: np.ndarray, mean, std) -> np.ndarray:
    raw = np.column_stack([states, actions.astype(float)])
    return (raw - mean) / std


def fit_dynamics(states, actions, next_states, ensemble_size: int = DEFAULT_ENSEMBLE_SIZE,
                 seed: int = 0) -> DynamicsModelEnsemble:
    """Fit the ensemble on (s, a, s') transition triples.

    Each member trains on its own bootstrap resample; inputs are standardized
    by the stored normalization. Constant input columns (e.g. the action in a
    single-action environment) are centered and left with unit scale rather
    than rejected, so degenerate-but-valid inputs stay usable.
    """
    states = np.asarray(states, dtype=float)
    actions = np.asarray(actions)
    next_states = np.asarray(next_states, dtype=float)
    n = states.shape[0]
    if n < 100:
        raise DataError(f"need at least 100 transitions, got {n}")
    if ensemble_size < 2:
        raise ConfigError("ensemble_size must be >= 2")
    if not (np.isfinite(states).all() and np.isfinite(next_states).all()):
        raise DataError("transitions contain non-finite values")

    raw = np.column_stack([states, actions.astype(float)])
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    if (std < 1e-12).all():
        raise DataError("all input columns have zero variance; nothing to fit")
    std = np.where(std < 1e-12, 1.0, std)

    z = (raw - mean) / std
    basis = _poly_basis(z)
    coefs, variances = [], []
    for member in range(ensemble_size):
        rng = rng_from(seed, "member", member)
        rows = rng.choice(n, size=n, replace=True)
        phi, y = basis[rows], next_states[rows]
        coef, *_ = np.linalg.lstsq(phi, y, rcond=None)
        resid = y - phi @ coef
        variances.append(np.maximum(resid.var(axis=0), _VAR_FLOOR))
        coefs.append(coef)
    return DynamicsModelEnsemble(
        coefficients=np.stack(coefs),
        variances=np.stack(variances),
        input_mean=mean,
        input_std=std,
        state_dim=states.shape[1],
    )


def predict(ensemble: DynamicsModelEnsemble, states, actions):
    """Per-member predictive means for a batch: shape (members, n, state_dim)."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    actions = np.atleast_1d(np.asarray(actions))
    if states.shape[1] != ensemble.state_dim:
        raise IncompatibleModelError(
            f"state dimension {states.shape[1]} != model dimension {ensemble.state_dim}"
        )
    basis = _poly_basis(_standardize_inputs(states, actions, ensemble.input_mean, ensemble.input_std))
    return np.einsum("nb,ebd->end", basis, ensemble.coefficients)


def pedm_score_batch(ensemble: DynamicsModelEnsemble, states, actions, next_states) -> np.ndarray:
    """Mean over members of the negative Gaussian log-density of each
    observed next state; higher is more anomalous."""
    next_states = np.atleast_2d(np.asarray(next_states, dtype=float))
    means = predict(ensemble, states, actions)
    var = ensemble.variances[:, None, :]
    nll = 0.5 * (_LOG_2PI + np.log(var) + (next_states[None] - means) ** 2 / var).sum(axis=2)
    return nll.mean(axis=0)


def episode_transitions(episode):
    obs = np.asarray(episode.observations, dtype=float)
    actions = np.asarray(episode.actions)
    return obs[:-1], actions, obs[1:]


def pedm_episode_scores(ensemble: DynamicsModelEnsemble, episode) -> np.ndarray:
    """Per-transition scores for one episode (no window warm-up)."""
    s, a, s_next = episode_transitions(episode)
    if len(a) == 0:
        return np.empty(0)
    return pedm_score_batch(ensemble, s, a, s_next)


def fit_dynamics_from_episodes(episodes, ensemble_size: int = DEFAULT_ENSEMBLE_SIZE,
                               seed: int = 0) -> DynamicsModelEnsemble:
    parts = [episode_transitions(ep) for ep in episodes]
    return fit_dynamics(
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
        np.concatenate([p[2] for p in parts]),
        ensemble_size=ensemble_size,
        seed=seed,
    )


def pedm_cusum(ensemble: DynamicsModelEnsemble, calibration_episodes, target_fpr: float,
               seed: int = 0) -> CusumDetector:
    """Calibrate the shared CUSUM rule on PEDM transition scores."""
    streams = [pedm_episode_scores(ensemble, ep) for ep in calibration_episodes]
    return calibrate_from_streams(streams, target_fpr, seed=seed)


def pedm_detect_online(detector: CusumDetector, ensemble: DynamicsModelEnsemble, episode):
    """Alert step (destination observation index) or None."""
    scores = pedm_episode_scores(ensemble, episode)
    step = first_alert_step(detector, scores)
    return None if step is None else step + 1


@dataclass
class MeanShiftDetector:
    """Calibrated reference statistics plus alert threshold."""

    reference_mean: np.ndarray
    reference_std: np.ndarray
    threshold: float
    kappa: float = DEFAULT_KAPPA
    target_fpr: float = 0.01

    def to_json_dict(self) -> dict:
        return {
            "reference_mean": self.reference_mean.tolist(),
            "reference_std": self.reference_std.tolist(),
            "threshold": float(self.threshold),
            "kappa": float(self.kappa),
            "target_fpr": float(self.target_fpr),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "MeanShiftDetector":
        owner = "meanshift model"
        model = cls(
            reference_mean=read_field(d, "reference_mean", owner, ndim=1),
            reference_std=read_field(d, "reference_std", owner, ndim=1),
            **{name: read_field(d, name, owner) for name in ("threshold", "kappa", "target_fpr")},
        )
        if model.reference_mean.size == 0 or model.reference_std.shape != model.reference_mean.shape:
            raise IncompatibleModelError(f"{owner} reference_mean and reference_std differ in shape")
        if not (model.reference_std > 0).all():
            raise IncompatibleModelError(f"{owner} reference_std must be positive")
        check_calibrated(owner, "threshold", model.threshold, model.target_fpr)
        return model


def _standardized(reference, observations) -> np.ndarray:
    """The destination observation of every transition, ``obs[1:]``, in
    units of the reference ``(mean, std)``."""
    mean, std = reference
    obs = np.asarray(observations, dtype=float)
    if obs.shape[1:] != mean.shape:
        raise IncompatibleModelError(
            f"observations of shape {obs.shape} do not match the model's {mean.size} dimensions"
        )
    return (obs[1:] - mean) / std


def meanshift_walk(reference, kappa: float, observations):
    """The accumulated statistic after each transition of an episode: per
    coordinate an upper and a lower clamped CUSUM of the standardized
    destination observation, and the largest of them over coordinates.
    ``reference`` is the ``(mean, std)`` pair of the standardization."""
    rows = _standardized(reference, observations).tolist()
    upper = lower = [0.0] * len(reference[0])
    for z in rows:
        upper = [clamped_step(u, x, kappa) for u, x in zip(upper, z)]
        lower = [clamped_step(l, -x, kappa) for l, x in zip(lower, z)]
        yield max(upper + lower)


def meanshift_episode_scores(detector: MeanShiftDetector, episode) -> np.ndarray:
    """Per-transition anomaly score: the largest standardized deviation of
    the destination observation across coordinates."""
    z = _standardized((detector.reference_mean, detector.reference_std), episode.observations)
    return np.abs(z).max(axis=1)


def _meanshift_reference(episodes) -> tuple:
    pooled = np.concatenate([np.asarray(ep.observations, dtype=float) for ep in episodes])
    return pooled.mean(axis=0), np.maximum(pooled.std(axis=0), 1e-12)


def fit_meanshift(calibration_episodes, target_fpr: float, kappa: float = DEFAULT_KAPPA,
                  seed: int = 0) -> MeanShiftDetector:
    """Reference statistics from the first half of the clean episodes; alert
    threshold from the (1 - FPR) percentile of per-episode maxima of the
    accumulated statistic on the second half."""
    (ref_mean, ref_std), threshold = calibrate_split_half(
        calibration_episodes, target_fpr, seed, _meanshift_reference,
        lambda reference, ep: meanshift_walk(reference, kappa, ep.observations),
    )
    return MeanShiftDetector(ref_mean, ref_std, threshold, kappa=kappa, target_fpr=target_fpr)


def meanshift_detect_online(detector: MeanShiftDetector, episode):
    """Alert step (destination observation index) or None."""
    walk = meanshift_walk((detector.reference_mean, detector.reference_std), detector.kappa,
                          episode.observations)
    step = first_crossing(walk, detector.threshold)
    return None if step is None else step + 1
