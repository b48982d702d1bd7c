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
``ExperimentConfig`` and ``mean_photon_number`` live in ``metrology`` and are
re-exported here.
"""

from __future__ import annotations

import numpy as np

from .metrology import ExperimentConfig, mean_photon_number
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


def quadrature_mean(state: GaussianState):
    """<X> of output mode A; an array over a stack of states."""
    mean = state.mean[..., 0]
    return mean if mean.ndim else float(mean)


def quadrature_second_moment(state: GaussianState):
    """<X^2> of output mode A (variance plus squared mean); an array over a
    stack of states.  The square is ``pow``, as for one state."""
    moment = state.cov[..., 0, 0] + np.float_power(state.mean[..., 0], 2.0)
    return moment if moment.ndim else float(moment)
