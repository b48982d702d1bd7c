"""The interferometer chain: parametric-amplifier entry, angular displacement,
balanced-beam-splitter exit, with an optional loss stage in both arms.

The lossless chain lives in a 4-dimensional phase space (modes A, B).  The
lossy chain attaches two vacuum environment modes, mixes each arm with its
environment on a virtual beam splitter right after the angular displacement,
and traces the environments out after the output coupler.

``lossless_chain`` and ``lossy_chain`` run a whole grid of working points at
once: the parameters are broadcast arrays, each element is one stacked
product over them, and every element and state is checked per point.
``run_lossless`` and ``run_lossy`` are the same chains at one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase_space import (
    GaussianState,
    angular_displacement_matrix,
    apply,
    bs_matrix,
    displace,
    extend_with_environment,
    opa_matrix,
    trace_out,
    vacuum_state,
    virtual_bs_matrix,
)

__all__ = [
    "ExperimentConfig",
    "lossless_chain",
    "lossy_chain",
    "run_lossless",
    "run_lossy",
    "mean_photon_number",
    "quadrature_mean",
    "quadrature_second_moment",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """One interferometer working point.

    g: squeezing factor of the parametric amplifier (>= 0)
    ell: OAM quantum number (positive integer)
    alpha_mag: magnitude of the input coherent amplitude (>= 0)
    theta: amplitude angle of the input coherent state, radians
    phi: angular displacement between the Dove prisms, radians
    transmissivity: shared arm transmissivity T in [0, 1]; 1 means lossless
    """

    g: float
    ell: int
    alpha_mag: float
    theta: float
    phi: float
    transmissivity: float = 1.0

    def __post_init__(self) -> None:
        for name in ("g", "alpha_mag", "theta", "phi", "transmissivity"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if isinstance(self.ell, bool) or int(self.ell) != self.ell or self.ell < 1:
            raise ValueError("ell must be a positive integer")
        object.__setattr__(self, "ell", int(self.ell))
        if self.g < 0:
            raise ValueError("g must be >= 0")
        if self.alpha_mag < 0:
            raise ValueError("alpha_mag must be >= 0")
        if not 0.0 <= self.transmissivity <= 1.0:
            raise ValueError("transmissivity must lie in [0, 1]")


def _run(alpha_mag, theta, modes: int, ops: tuple) -> GaussianState:
    """The vacuum on ``modes`` modes with the coherent input displaced into
    mode A, then each element of ``ops`` in order."""
    state = displace(vacuum_state(modes), 0, alpha_mag, theta)
    for op in ops:
        state = apply(op, state)
    return state


def lossless_chain(g, ell, alpha_mag, theta, phi) -> GaussianState:
    """Two-mode chain over broadcast parameter arrays: displace input A,
    amplify, rotate, recombine.  The inputs must lie in ExperimentConfig's
    domain; the result is a stack of states over their broadcast shape."""
    ops = (opa_matrix(g), angular_displacement_matrix(ell, phi), bs_matrix())
    return _run(alpha_mag, theta, 2, ops)


def lossy_chain(g, ell, alpha_mag, theta, phi, transmissivity) -> GaussianState:
    """Four-mode chain over broadcast parameter arrays, with loss inserted
    between the rotation and the coupler; the environment modes are traced
    out at the end."""
    ops = (
        extend_with_environment(opa_matrix(g)),
        extend_with_environment(angular_displacement_matrix(ell, phi)),
        virtual_bs_matrix(transmissivity),
        extend_with_environment(bs_matrix()),
    )
    return trace_out(_run(alpha_mag, theta, 4, ops), (2, 3))


def run_lossless(config: ExperimentConfig) -> GaussianState:
    """Two-mode chain at one working point: displace input A, amplify,
    rotate, recombine."""
    return lossless_chain(config.g, config.ell, config.alpha_mag, config.theta, config.phi)


def run_lossy(config: ExperimentConfig) -> GaussianState:
    """Four-mode chain at one working point, with loss inserted between the
    rotation and the coupler."""
    return lossy_chain(
        config.g, config.ell, config.alpha_mag, config.theta, config.phi, config.transmissivity
    )


def mean_photon_number(config: ExperimentConfig) -> float:
    """Mean photon number inside the interferometer (before any loss):
    ``cosh(2g) |alpha|^2 + 2 sinh^2 g``.

    Raises OverflowError where that number leaves the double range.
    """
    n = math.cosh(2.0 * config.g) * config.alpha_mag**2 + 2.0 * math.sinh(config.g) ** 2
    if n == math.inf:
        raise OverflowError("photon number out of range")
    return n


def quadrature_mean(state: GaussianState):
    """<X> of output mode A; an array over a stack of states."""
    mean = state.mean[..., 0]
    return mean if mean.ndim else float(mean)


def quadrature_second_moment(state: GaussianState):
    """<X^2> of output mode A (variance plus squared mean); an array over a
    stack of states.  The square is ``pow``, as for one state."""
    moment = state.cov[..., 0, 0] + np.float_power(state.mean[..., 0], 2.0)
    return moment if moment.ndim else float(moment)
