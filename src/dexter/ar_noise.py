"""The noise of a scenario: white noise that turns temporally correlated at
the injection.

A series is white noise of standard deviation ``innovation_sigma`` before
the injection step. From the injection step on it follows the correlation
mode's recursion

* ``no_correlation`` -- Y_t = eps_t (the noise stays white)
* ``one_step``       -- Y_t = phi Y_{t-1} + eps_t
* ``two_step``       -- Y_t = phi Y_{t-2} + eps_t

seeded from the last white values, with Gaussian innovations eps_t of
standard deviation ``innovation_sigma * sqrt(1 - phi^2)``: the process keeps
the white noise's stationary standard deviation, so only the correlation
changes at the injection, never the noise level. The whole series is then
multiplied by ``magnitude_scale``. The first ``BURN_IN`` samples of every
draw are discarded. Series are deterministic functions of (spec, injection
step, length, seed).
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import is_number, member, require
from .seeding import child_seed

BURN_IN = 50


class CorrelationMode(str, Enum):
    NO_CORRELATION = "no_correlation"
    ONE_STEP = "one_step"
    TWO_STEP = "two_step"


# The lag of each mode's recursion; 0 is white noise.
_LAGS = {CorrelationMode.NO_CORRELATION: 0, CorrelationMode.ONE_STEP: 1, CorrelationMode.TWO_STEP: 2}


@dataclass(frozen=True)
class ARProcessSpec:
    """The noise of a scenario: white before the injection, the mode's AR
    process with coefficient ``phi`` after it, at the same level throughout.

    ``magnitude_scale`` multiplies the generated series; it is the knob used
    to express noise levels as a fraction of each state dimension's clean
    standard deviation. ``phi`` means nothing without correlation and is
    stored as 0.0 under ``no_correlation``. An unknown mode, or a value that
    is no finite number in its range, raises :class:`ConfigError`.
    """

    correlation_mode: CorrelationMode
    phi: float = 0.0
    innovation_sigma: float = 1.0
    magnitude_scale: float = 1.0

    def __post_init__(self):
        mode = member(CorrelationMode, self.correlation_mode, "correlation_mode")
        phi, sigma, scale = self.phi, self.innovation_sigma, self.magnitude_scale
        require(is_number(phi) and abs(phi) < 1, "phi",
                "a finite number in (-1, 1) for a stationary process", phi)
        require(is_number(sigma) and sigma > 0, "innovation_sigma", "a positive finite number", sigma)
        require(is_number(scale) and scale > 0, "magnitude_scale", "a positive finite number", scale)
        for name, value in (("correlation_mode", mode), ("phi", float(phi) if _LAGS[mode] else 0.0),
                            ("innovation_sigma", float(sigma)), ("magnitude_scale", float(scale))):
            object.__setattr__(self, name, value)

    @classmethod
    def no_correlation(cls, sigma=1.0, scale=1.0):
        return cls(CorrelationMode.NO_CORRELATION, 0.0, sigma, scale)

    @classmethod
    def one_step(cls, phi1, sigma=1.0, scale=1.0):
        return cls(CorrelationMode.ONE_STEP, phi1, sigma, scale)

    @classmethod
    def two_step(cls, phi2, sigma=1.0, scale=1.0):
        return cls(CorrelationMode.TWO_STEP, phi2, sigma, scale)


def _recurse(out, lag, phi, innovations, start):
    """In-place recursion out[t] = phi out[t-lag] + innovations[t] for
    t >= start; indices before the series start count as zero lags, and lag
    0 or phi 0 is white noise."""
    # 0.0 + maps a -0.0 innovation to +0.0, which fixes the sign of zero in
    # every series.
    if lag == 0 or phi == 0.0:
        out[start:] = 0.0 + innovations[start:]
        return
    # On Python floats, which fixes the bits of every series.
    ys = out[:start].tolist()
    for t, innovation in enumerate(innovations[start:len(out)].tolist(), start):
        acc = 0.0 + innovation
        if t >= lag:
            acc += phi * ys[t - lag]
        ys.append(acc)
    out[start:] = ys[start:]


def spliced_series(spec: ARProcessSpec, injection_step: int | None, length: int,
                   seed: int) -> np.ndarray:
    """``length`` samples of ``spec``'s noise: white before
    ``injection_step`` and the mode's AR process from it on, multiplied by
    ``spec.magnitude_scale``. ``injection_step=None`` gives the clean,
    all-white draw, which equals the prefix of every injected draw from the
    same seed."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if injection_step is not None and not 0 < injection_step < length:
        raise ValueError(f"injection_step must lie in (0, {length}), got {injection_step}")
    total = BURN_IN + length
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    eps = rng.normal(0.0, 1.0, total)

    y = np.zeros(total)
    sigma = spec.innovation_sigma
    _recurse(y, 0, 0.0, eps * sigma, 0)
    if injection_step is not None:
        # Innovations scaled so the process's stationary std stays sigma.
        post_sigma = sigma * np.sqrt(1.0 - spec.phi * spec.phi)
        _recurse(y, _LAGS[spec.correlation_mode], spec.phi, eps * post_sigma,
                 BURN_IN + injection_step)
    return y[BURN_IN:] * spec.magnitude_scale


def spliced_matrix(spec: ARProcessSpec, injection_step: int | None, num_dimensions: int,
                   max_steps: int, seed: int) -> np.ndarray:
    """(num_dimensions, max_steps) matrix of independent :func:`spliced_series`
    sharing one injection step.

    Row i uses the sub-seed ``child_seed(seed, "noise_row", i)``, so changing
    ``num_dimensions`` never perturbs earlier rows, and the pre-injection
    prefix of each row is bit-identical to the clean matrix drawn from the
    same seed.
    """
    if num_dimensions < 1 or max_steps < 1:
        raise ValueError("num_dimensions and max_steps must be >= 1")
    return np.stack([
        spliced_series(spec, injection_step, max_steps, child_seed(seed, "noise_row", d))
        for d in range(num_dimensions)
    ])
