"""The interferometer chain: parametric-amplifier entry, angular displacement,
balanced-beam-splitter exit, with an optional loss stage in both arms.

Both chains live in the 4-dimensional phase space of modes A and B and run
in one pass.  The elements are built first, in the order of the chain, as
raw matrices with the entries of ``opa_matrix(g)`` and
``angular_displacement_matrix(ell, phi)``, each checked symplectic by the
check ``SymplecticOp`` runs, without building one; the coupler is the cached
``bs_matrix()``.  The coherent input is then checked (a magnitude >= 0, a
finite angle, a finite displaced mean) and pushed through them on raw
arrays, from the vacuum, whose covariance is the identity:

* lossless, ``S = BS AD OPA`` and the output is ``(S d, S S^T)``;
* lossy, ``R = AD OPA``, then the pure-loss channel in both arms
  (``(sqrt(T) R d, T R R^T + (1 - T) I)``, after its range check on T),
  then the coupler.

Only the output is built as a ``GaussianState``, checked finite and
symmetric.  The stages are ``phase_space``'s raw-array ones; the tests check
each chain against a reference that builds a checked state per stage, with
loss as the 8x8 dilation.

``lossless_chain`` and ``lossy_chain`` run a whole grid of working points at
once: the parameters are broadcast arrays, each element is one stacked
product over them, and every element and the output state are checked per
point.  Where no parameter is an array with ``ndim > 0`` the same chain runs
at one point on Python floats (``phase_space._parameters`` picks by shape),
with the same entries, checks and error texts, and gives the bytes that
point gives inside a stack.  ``run_lossless`` and ``run_lossy`` are the
chains at one config.  ``ExperimentConfig`` and ``mean_photon_number`` live
in ``metrology`` and are re-exported here.
"""

from __future__ import annotations

import numpy as np

from .metrology import ExperimentConfig, mean_photon_number
from .phase_space import (
    GaussianState,
    _attenuated,
    _check_symplectic,
    _evolved,
    _opa,
    _parameters,
    _rotation,
    _shifted,
    bs_matrix,
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

def _rotated(g, ell, alpha_mag, theta, phi):
    """``R = AD OPA`` and the displaced input mean ``d``: the elements are
    built and checked before the input, the amplifier first."""
    amplifier = _check_symplectic(_opa(g), "OPA")
    rotation = _check_symplectic(_rotation(ell, phi), "AD")
    return rotation @ amplifier, _shifted(alpha_mag, theta)


def lossless_chain(g, ell, alpha_mag, theta, phi) -> GaussianState:
    """Two-mode chain over broadcast parameter arrays: displace input A,
    amplify, rotate, recombine.  The inputs must lie in ExperimentConfig's
    domain; the result is a stack of states over their broadcast shape."""
    r, d = _rotated(*_parameters(g, ell, alpha_mag, theta, phi))
    return GaussianState(*_evolved(bs_matrix().matrix @ r, d, None))


def lossy_chain(g, ell, alpha_mag, theta, phi, transmissivity) -> GaussianState:
    """The lossless chain over broadcast parameter arrays, with loss of
    transmissivity T in both arms between the rotation and the coupler."""
    *point, t = _parameters(g, ell, alpha_mag, theta, phi, transmissivity)
    r, d = _rotated(*point)
    lossy = _attenuated(*_evolved(r, d, None), t)
    return GaussianState(*_evolved(bs_matrix().matrix, *lossy))


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
