"""Temporally correlated noise from an AR(p) model.

Generates series following

    Y_t = mu + phi_1 Y_{t-1} + ... + phi_p Y_{t-p} + eps_t

with standard-Gaussian innovations scaled by ``innovation_sigma``. Three
correlation structures are supported:

* ``no_correlation`` -- white noise, Y_t = mu + eps_t
* ``one_step``       -- Y_t = mu + phi_1 Y_{t-1} + eps_t
* ``two_step``       -- Y_t = mu + phi_2 Y_{t-2} + eps_t

The first ``max(50, 10 p)`` samples of every series are burned in so the
output is a draw from the stationary distribution. Series are deterministic
functions of (spec, length, seed).
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import SpliceError, StationarityError
from .seeding import child_seed


class CorrelationMode(str, Enum):
    NO_CORRELATION = "no_correlation"
    ONE_STEP = "one_step"
    TWO_STEP = "two_step"


@dataclass(frozen=True)
class ARProcessSpec:
    """Parameters of the AR(p) disturbance process.

    ``magnitude_scale`` multiplies the generated series after the recursion;
    it is the knob used to express noise levels as a fraction of each state
    dimension's clean standard deviation.
    """

    correlation_mode: CorrelationMode
    coefficients_phi: tuple = ()
    mean_mu: float = 0.0
    innovation_sigma: float = 1.0
    magnitude_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "correlation_mode", CorrelationMode(self.correlation_mode))
        object.__setattr__(self, "coefficients_phi", tuple(float(c) for c in self.coefficients_phi))
        mode, phi = self.correlation_mode, self.coefficients_phi
        if mode is CorrelationMode.NO_CORRELATION and len(phi) != 0:
            raise StationarityError("no_correlation mode requires order p = 0")
        if mode is CorrelationMode.ONE_STEP and len(phi) != 1:
            raise StationarityError("one_step mode requires exactly one coefficient [phi1]")
        if mode is CorrelationMode.TWO_STEP and (len(phi) != 2 or phi[0] != 0.0):
            raise StationarityError("two_step mode requires coefficients [0, phi2]")
        if any(abs(c) >= 1.0 for c in phi):
            raise StationarityError(f"non-stationary coefficients {phi}: every |phi| must be < 1")
        if not self.innovation_sigma > 0:
            raise StationarityError("innovation_sigma must be positive")
        if not self.magnitude_scale > 0:
            raise StationarityError("magnitude_scale must be positive")

    @property
    def order_p(self) -> int:
        return len(self.coefficients_phi)

    @classmethod
    def no_correlation(cls, sigma=1.0, mu=0.0, scale=1.0):
        return cls(CorrelationMode.NO_CORRELATION, (), mu, sigma, scale)

    @classmethod
    def one_step(cls, phi1, sigma=1.0, mu=0.0, scale=1.0):
        return cls(CorrelationMode.ONE_STEP, (phi1,), mu, sigma, scale)

    @classmethod
    def two_step(cls, phi2, sigma=1.0, mu=0.0, scale=1.0):
        return cls(CorrelationMode.TWO_STEP, (0.0, phi2), mu, sigma, scale)



def stationary_std(spec: ARProcessSpec) -> float:
    """Stationary standard deviation of the unscaled process.

    ``two_step`` decouples into two independent AR(1) subseries, so both
    restricted modes reduce to sigma / sqrt(1 - phi^2).
    """
    if spec.correlation_mode is CorrelationMode.NO_CORRELATION:
        return spec.innovation_sigma
    phi = spec.coefficients_phi[-1]
    return spec.innovation_sigma / np.sqrt(1.0 - phi * phi)


def burn_in_length(order_p: int) -> int:
    return max(50, 10 * order_p)


def _recurse(out, phi, mu, innovations, start):
    """In-place AR recursion out[t] = mu + sum phi_i out[t-i] + innovations[t]
    for t >= start; indices before the series start count as zero lags."""
    if not phi:
        out[start:] = mu + innovations[start:]
        return
    # On Python floats. The additions run in lag order and skip zero
    # coefficients, which fixes the bits of every series.
    lags = [(i, c) for i, c in enumerate(phi, 1) if c != 0.0]
    ys = out[:start].tolist()
    for t, innovation in enumerate(innovations[start:len(out)].tolist(), start):
        acc = mu + innovation
        for i, c in lags:
            if t >= i:
                acc += c * ys[t - i]
        ys.append(acc)
    out[start:] = ys[start:]


def generate_series(spec: ARProcessSpec, length: int, seed: int) -> np.ndarray:
    """Draw ``length`` samples of the stationary AR process: the
    no-injection case of :func:`spliced_series`.

    Returns the burned-in series multiplied by ``spec.magnitude_scale``.
    """
    return spliced_series(spec, spec, None, length, seed)


def spliced_series(
    pre_spec: ARProcessSpec,
    post_spec: ARProcessSpec,
    injection_step: int | None,
    length: int,
    seed: int,
) -> np.ndarray:
    """Series whose correlation structure changes at ``injection_step``.

    Steps ``t < injection_step`` follow ``pre_spec``; steps
    ``t >= injection_step`` follow ``post_spec``'s correlation structure,
    seeded from the last realized pre-injection values. The post segment's
    innovations are rescaled so its stationary standard deviation equals the
    pre segment's: only the correlation changes at the injection, never the
    noise level. With ``injection_step=None`` the whole series follows
    ``pre_spec``; with ``pre_spec == post_spec`` the splice degenerates to an
    ordinary draw of the process.
    """
    if injection_step is None:
        if length < 1:
            raise ValueError("length must be >= 1")
    elif not 0 < injection_step < length:
        raise SpliceError(f"injection_step must lie in (0, {length}), got {injection_step}")
    if pre_spec.innovation_sigma != post_spec.innovation_sigma:
        raise SpliceError("pre and post specs must share innovation_sigma")
    if pre_spec.magnitude_scale != post_spec.magnitude_scale:
        raise SpliceError("noise magnitude must not change at the injection")
    if pre_spec.mean_mu != post_spec.mean_mu:
        raise SpliceError("process mean must not change at the injection")

    burn = burn_in_length(pre_spec.order_p)
    total = burn + length
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    eps = rng.normal(0.0, 1.0, total)

    y = np.zeros(total)
    split = total if injection_step is None else burn + injection_step
    _recurse(y[:split], pre_spec.coefficients_phi, pre_spec.mean_mu,
             eps[:split] * pre_spec.innovation_sigma, 0)

    if injection_step is not None:
        # Variance-matched continuation: innovations scaled so the post
        # process's stationary std equals the pre process's.
        target_std = stationary_std(pre_spec)
        post_phi = post_spec.coefficients_phi
        phi_last = post_phi[-1] if post_phi else 0.0
        post_inn_sigma = target_std * np.sqrt(1.0 - phi_last * phi_last)
        _recurse(y, post_phi, post_spec.mean_mu, eps * post_inn_sigma, split)

    return y[burn:] * pre_spec.magnitude_scale


def _row_seed(seed: int, row: int) -> int:
    return child_seed(seed, "noise_row", row)


def generate_matrix(spec: ARProcessSpec, num_dimensions: int, max_steps: int, seed: int) -> np.ndarray:
    """(num_dimensions, max_steps) matrix whose rows are independent draws of
    the process: the no-injection case of :func:`spliced_matrix`.

    Row i uses the sub-seed ``child_seed(seed, "noise_row", i)``, so changing
    ``num_dimensions`` never perturbs earlier rows.
    """
    return spliced_matrix(spec, spec, None, num_dimensions, max_steps, seed)


def spliced_matrix(
    pre_spec: ARProcessSpec,
    post_spec: ARProcessSpec,
    injection_step: int | None,
    num_dimensions: int,
    max_steps: int,
    seed: int,
) -> np.ndarray:
    """(num_dimensions, max_steps) matrix of independent spliced series
    sharing one injection step.

    Uses the same per-row sub-seeds as :func:`generate_matrix`, so the
    pre-injection prefix of each row is bit-identical to the clean matrix
    drawn from the same seed.
    """
    if num_dimensions < 1 or max_steps < 1:
        raise ValueError("num_dimensions and max_steps must be >= 1")
    return np.stack([
        spliced_series(pre_spec, post_spec, injection_step, max_steps, _row_seed(seed, d))
        for d in range(num_dimensions)
    ])
