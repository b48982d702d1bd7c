"""The interferometer chain: parametric-amplifier entry, angular displacement,
balanced-beam-splitter exit, with an optional loss stage in both arms.

Both chains live in the 4-dimensional phase space of modes A and B.  The
lossy chain is the lossless one with a loss stage (``phase_space.attenuate``)
between the angular displacement and the output coupler: each arm mixes with
a vacuum environment on a virtual beam splitter, and the environments are
traced out at once.

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
    attenuate,
    bs_matrix,
    displace,
    opa_matrix,
    vacuum_state,
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
    """One interferometer working point, and the one statement of its domain:
    each ValueError's message starts with the name of the field it rejects.

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


def _rotated(g, ell, alpha_mag, theta, phi) -> GaussianState:
    """The coherent input displaced into mode A, amplified and rotated: the
    two-mode state ahead of the loss stage and the coupler."""
    amplifier, rotation = opa_matrix(g), angular_displacement_matrix(ell, phi)
    return apply(rotation, apply(amplifier, displace(vacuum_state(2), 0, alpha_mag, theta)))


def lossless_chain(g, ell, alpha_mag, theta, phi) -> GaussianState:
    """Two-mode chain over broadcast parameter arrays: displace input A,
    amplify, rotate, recombine.  The inputs must lie in ExperimentConfig's
    domain; the result is a stack of states over their broadcast shape."""
    return apply(bs_matrix(), _rotated(g, ell, alpha_mag, theta, phi))


def lossy_chain(g, ell, alpha_mag, theta, phi, transmissivity) -> GaussianState:
    """The lossless chain over broadcast parameter arrays, with loss of
    transmissivity T in both arms between the rotation and the coupler."""
    return apply(bs_matrix(), attenuate(_rotated(g, ell, alpha_mag, theta, phi), transmissivity))


def run_lossless(config: ExperimentConfig) -> GaussianState:
    """Two-mode chain at one working point: displace input A, amplify,
    rotate, recombine."""
    return lossless_chain(config.g, config.ell, config.alpha_mag, config.theta, config.phi)


def run_lossy(config: ExperimentConfig) -> GaussianState:
    """The lossy chain at one working point: loss in both arms between the
    rotation and the coupler."""
    return lossy_chain(
        config.g, config.ell, config.alpha_mag, config.theta, config.phi, config.transmissivity
    )


def mean_photon_number(config: ExperimentConfig) -> float:
    """Mean photon number inside the interferometer (before any loss), as
    ``metrology.photon_number_table`` at ``config``.

    Raises OverflowError where that number leaves the double range.
    """
    # metrology imports this module at load time
    from .metrology import photon_number_table

    return float(
        photon_number_table(
            config.g, config.ell, config.alpha_mag, config.theta, config.phi, config.transmissivity
        )
    )


def quadrature_mean(state: GaussianState):
    """<X> of output mode A; an array over a stack of states."""
    mean = state.mean[..., 0]
    return mean if mean.ndim else float(mean)


def quadrature_second_moment(state: GaussianState):
    """<X^2> of output mode A (variance plus squared mean); an array over a
    stack of states.  The square is ``pow``, as for one state."""
    moment = state.cov[..., 0, 0] + np.float_power(state.mean[..., 0], 2.0)
    return moment if moment.ndim else float(moment)
