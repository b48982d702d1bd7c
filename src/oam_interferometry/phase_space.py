"""Gaussian states as first/second quadrature moments, plus the symplectic
maps of the interferometer elements.

Conventions (fixed once, everything else is calibrated against them):

* quadratures are ordered ``(x1, p1, x2, p2, ...)``,
* ``X = a + a^dag``, so the vacuum has zero mean and identity covariance,
* a coherent amplitude of magnitude ``r`` and phase ``theta`` shifts the mean
  by ``(2 r cos(theta), 2 r sin(theta))``.

Lossless elements are symplectic matrices ``S`` (``S @ Omega @ S.T == Omega``)
applied as ``mean -> S mean``, ``cov -> S cov S^T``.  Photon loss
(``attenuate``) is a virtual beam splitter against vacuum environment modes
followed by a partial trace over the environments, which for Gaussian states
keeps the system's block of the mean and the covariance.

Everything here broadcasts over leading axes.  An element built from arrays
of parameters is a stack of matrices, shape ``(..., 2m, 2m)``, and a state
may hold a stack of means ``(..., 2m)`` and covariances ``(..., 2m, 2m)``;
``apply`` is then one stacked product, and each matrix of a stack goes
through the same arithmetic as a single element, so a stack of states equals
the states built one point at a time, bit for bit.  One-variable factors
(cosh, sinh, cos, sin and squares) go through ``math``: numpy's cosh and sinh
differ from libm in the last place on some inputs, and numpy's ``x**2`` is
``x*x``, not ``pow``.

Every element and every state is checked when it is built, each matrix of a
stack on its own, with tolerances that scale with the entries, because
rounding in ``S Omega S^T`` grows like ``max|S|^2`` (``cosh^2 g`` for the
amplifier) and in ``S cov S^T`` like ``max|cov|`` (``cosh 2g``):

* an element is symplectic when ``symplectic_defect(S) <= SYMPLECTIC_TOL *
  max(1, max|S|^2)``;
* a covariance is symmetric when ``max|cov - cov^T| <= SYMMETRY_TOL *
  max(1, max|cov|)``.

``symplectic_defect`` itself stays absolute.  Both comparisons fail on NaN,
and a mean or covariance with an infinite or NaN entry is rejected as not finite.
The amplifier accepts ``|g| <= MAX_GAIN`` and raises a ``ValueError`` naming
``g`` beyond it; near ``g = 355.2`` ``cosh 2g`` leaves the double range.  A
stack with one failing matrix, state or gain raises the error that point
raises on its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SYMPLECTIC_TOL",
    "SYMMETRY_TOL",
    "MAX_GAIN",
    "GaussianState",
    "SymplecticOp",
    "omega",
    "symplectic_defect",
    "vacuum_state",
    "displace",
    "opa_matrix",
    "angular_displacement_matrix",
    "bs_matrix",
    "virtual_bs_matrix",
    "apply",
    "attenuate",
    "photon_number",
]

# an order above double-precision accumulation for 8x8 products, relative to
# max(1, max|S|^2)
SYMPLECTIC_TOL = 1e-10
# relative to max(1, max|cov|)
SYMMETRY_TOL = 1e-8
# cosh(2 * 350) is 5e303, so covariance entries and the sums in S cov S^T stay
# finite; cosh 2g itself overflows near g = 355.2
MAX_GAIN = 350.0


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _libm(fn, x):
    """``fn`` applied to each element of ``x`` as a Python float, in the
    shape of ``x``; an error ``fn`` raises propagates."""
    x = np.float64(x)
    if not x.ndim:
        return np.float64(fn(float(x)))
    return np.array([fn(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _square(x: float) -> float:
    # pow, as Python floats square; it raises where the square overflows
    return x**2


def _any(bad) -> bool:
    """Whether ``bad`` holds for any matrix or state of a stack."""
    return bool(bad.any() if bad.ndim else bad)


def _within(deviation, tolerance: float, scale):
    """``deviation <= tolerance * max(1, scale)`` per matrix or state, false
    on NaN; two comparisons, as rounding keeps ``tolerance * max(1, scale)``
    equal to ``max(tolerance, tolerance * scale)``."""
    return (deviation <= tolerance) | (deviation <= tolerance * scale)


def _first(values, bad) -> float:
    """The first entry of ``values`` where ``bad`` holds."""
    return float(np.asarray(values)[bad][0])


@functools.cache
def omega(modes: int) -> np.ndarray:
    """Symplectic form for ``modes`` modes: block diagonal [[0, 1], [-1, 0]].

    Built once per mode count and returned read-only.
    """
    if modes < 1:
        raise ValueError("modes must be >= 1")
    w = np.zeros((2 * modes, 2 * modes))
    i = np.arange(0, 2 * modes, 2)
    w[i, i + 1] = 1.0
    w[i + 1, i] = -1.0
    return _readonly(w)


def symplectic_defect(matrix: np.ndarray):
    """Max-abs deviation of ``S Omega S^T`` from ``Omega``; one value per
    matrix of a stack."""
    w = omega(matrix.shape[-1] // 2)
    return np.abs(matrix @ w @ matrix.swapaxes(-1, -2) - w).max(axis=(-2, -1))


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix of an m-mode Gaussian state, or a
    stack of them.

    ``mean`` has length ``2 m`` in ``(x1, p1, ..., xm, pm)`` order; ``cov`` is
    the symmetric ``2m x 2m`` covariance normalised so the vacuum is the
    identity.  Leading axes, the same on both, index a stack of states.
    Instances are immutable; the arrays are stored read-only because a
    cached state, the two-mode vacuum of ``vacuum_state``, is shared by
    every caller (``SymplecticOp`` does the same for the cached coupler
    ``bs_matrix``).
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=float)
        # symmetrised into a new array below, so the caller's is never kept
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim < 1 or mean.shape[-1] == 0 or mean.shape[-1] % 2:
            raise ValueError("mean must be a vector of length 2 * mode_count")
        if cov.shape != mean.shape + mean.shape[-1:]:
            raise ValueError("cov must be square and match the mean vector")
        if not np.abs(mean).max() < math.inf:
            raise ValueError("mean must be finite")
        peak = np.abs(cov).max(axis=(-2, -1))
        if _any(~(peak < math.inf)):
            raise ValueError("cov must be finite")
        cov_t = cov.swapaxes(-1, -2)
        asymmetry = np.abs(cov - cov_t).max(axis=(-2, -1))
        if _any(~_within(asymmetry, SYMMETRY_TOL, peak)):
            raise ValueError("cov must be symmetric")
        cov = 0.5 * (cov + cov_t)
        object.__setattr__(self, "mean", _readonly(mean))
        object.__setattr__(self, "cov", _readonly(cov))

    @property
    def mode_count(self) -> int:
        return self.mean.shape[-1] // 2


@dataclass(frozen=True)
class SymplecticOp:
    """A linear phase-space map tagged with the optical element it models;
    leading axes of ``matrix`` index a stack of maps."""

    matrix: np.ndarray
    label: str

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] % 2:
            raise ValueError("matrix must be square with even dimension")
        peak = np.abs(m).max(axis=(-2, -1))
        defect = symplectic_defect(m)
        bad = ~_within(defect, SYMPLECTIC_TOL, peak * peak)
        if _any(bad):
            raise ValueError(f"{self.label}: not symplectic (defect {_first(defect, bad):.3e})")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def mode_count(self) -> int:
        return self.matrix.shape[-1] // 2


@functools.cache
def vacuum_state() -> GaussianState:
    """The vacuum of modes A and B: zero mean, identity covariance.

    Built once; the state is immutable.
    """
    return GaussianState(np.zeros(4), np.eye(4))


# a shift past the double range is inf or nan, and the state rejects it
@np.errstate(all="ignore")
def displace(state: GaussianState, magnitude, angle) -> GaussianState:
    """Displace mode A by a coherent amplitude of given magnitude and phase.

    Shifts mode A's mean by ``(2 magnitude cos(angle), 2 magnitude
    sin(angle))`` and leaves the covariance untouched.  Arrays of magnitudes
    and angles give a stack of states.
    """
    magnitude = np.float64(magnitude)
    if _any(magnitude < 0):
        raise ValueError("magnitude must be >= 0")
    shift_x = 2.0 * magnitude * _libm(math.cos, angle)
    shift_p = 2.0 * magnitude * _libm(math.sin, angle)
    stack = np.broadcast(state.mean[..., 0], shift_x, shift_p).shape
    mean = np.empty(stack + state.mean.shape[-1:])
    cov = np.empty(stack + state.cov.shape[-2:])
    mean[...], cov[...] = state.mean, state.cov
    mean[..., 0] += shift_x
    mean[..., 1] += shift_p
    return GaussianState(mean, cov)


def opa_matrix(g) -> SymplecticOp:
    """Two-mode squeezer (parametric amplifier) of gain ``g`` on modes (A, B);
    an array of gains gives a stack."""
    g = np.float64(g)
    outside = ~(np.abs(g) <= MAX_GAIN)
    if _any(outside):
        raise ValueError(
            f"g = {_first(g, outside)} is outside the engine's range |g| <= {MAX_GAIN:g}"
        )
    ch, sh = _libm(math.cosh, g), _libm(math.sinh, g)
    m = np.zeros(g.shape + (4, 4))
    m[..., 0, 0] = m[..., 1, 1] = m[..., 2, 2] = m[..., 3, 3] = ch
    m[..., 0, 2] = m[..., 2, 0] = sh
    m[..., 1, 3] = m[..., 3, 1] = -sh
    return SymplecticOp(m, "OPA")


def angular_displacement_matrix(ell, phi) -> SymplecticOp:
    """Rotation of mode A's quadratures by ``2 ell phi``, identity on mode B;
    arrays of ``ell`` and ``phi`` give a stack.

    ``ell`` is the OAM quantum number; a relative rotation ``phi`` between the
    Dove prisms imprints the doubled phase ``2 ell phi`` on the helical mode.
    """
    ell = np.float64(ell)
    if _any(~((ell >= 1) & (ell % 1 == 0))):
        raise ValueError("ell must be a positive integer")
    delta = 2.0 * ell * np.float64(phi)
    c, s = _libm(math.cos, delta), _libm(math.sin, delta)
    m = np.zeros(delta.shape + (4, 4))
    m[..., 0, 0] = m[..., 1, 1] = c
    m[..., 0, 1] = -s
    m[..., 1, 0] = s
    m[..., 2, 2] = m[..., 3, 3] = 1.0
    return SymplecticOp(m, "AD")


@functools.cache
def bs_matrix() -> SymplecticOp:
    """Balanced output coupler: ``a -> (a + b)/sqrt2``, ``b -> (b - a)/sqrt2``.

    Built once; the element is immutable.
    """
    m = np.array(
        [
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
            [-1.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 1.0],
        ]
    ) / math.sqrt(2.0)
    return SymplecticOp(m, "BS")


def virtual_bs_matrix(transmissivity) -> SymplecticOp:
    """Virtual beam splitters coupling both system modes to vacuum environments.

    Mode A mixes with environment mode 3 and mode B with environment mode 4,
    both at the same transmissivity; an array of transmissivities gives a
    stack.
    """
    t = np.float64(transmissivity)
    if _any(~((t >= 0.0) & (t <= 1.0))):
        raise ValueError("transmissivity must lie in [0, 1]")
    rt, rr = np.sqrt(t)[..., None, None], np.sqrt(1.0 - t)[..., None, None]
    eye4 = np.eye(4)
    m = np.empty(t.shape + (8, 8))
    m[..., :4, :4], m[..., :4, 4:] = rt * eye4, rr * eye4
    m[..., 4:, :4], m[..., 4:, 4:] = rr * eye4, -rt * eye4
    return SymplecticOp(m, "VBS")


def apply(op: SymplecticOp, state: GaussianState) -> GaussianState:
    """Evolve a state through a symplectic element: ``S mean``, ``S cov S^T``;
    stacks broadcast over their leading axes."""
    if op.matrix.shape[-1] != state.mean.shape[-1]:
        raise ValueError(
            f"dimension mismatch: op acts on {op.mode_count} modes, "
            f"state has {state.mode_count}"
        )
    s = op.matrix
    return GaussianState((s @ state.mean[..., None])[..., 0], s @ state.cov @ s.swapaxes(-1, -2))


def attenuate(state: GaussianState, transmissivity) -> GaussianState:
    """Photon loss of transmissivity T in both modes of a two-mode state, or
    of a stack of them: the state beside two vacuum environment modes, through
    ``virtual_bs_matrix``, with the environments traced out: the partial
    trace of a Gaussian state keeps the system's block of the mean and the
    covariance."""
    if state.mode_count != 2:
        raise ValueError(f"attenuate acts on two-mode states, not {state.mode_count}")
    stack = state.mean.shape[:-1]
    mean = np.zeros(stack + (8,))
    cov = np.zeros(stack + (8, 8))
    mean[..., :4], cov[..., :4, :4], cov[..., 4:, 4:] = state.mean, state.cov, np.eye(4)
    out = apply(virtual_bs_matrix(transmissivity), GaussianState(mean, cov))
    return GaussianState(out.mean[..., :4], out.cov[..., :4, :4])


@np.errstate(over="ignore")
def photon_number(state: GaussianState):
    """Total mean photon number, summed over modes; an array over a stack.

    Per mode: ``(<x>^2 + <p>^2)/4 + (Var x + Var p - 2)/4`` in the
    vacuum-variance-1 convention.  Raises OverflowError where the number
    leaves the double range, as ``metrology.photon_number_table`` does.
    """
    # Python floats: a square that overflows raises, where numpy's would turn inf
    square = _libm(_square, state.mean)
    var = np.diagonal(state.cov, axis1=-2, axis2=-1)
    total = 0.0
    for i in range(0, state.mean.shape[-1], 2):
        total = total + 0.25 * (
            square[..., i] + square[..., i + 1] + (var[..., i] + var[..., i + 1]) - 2.0
        )
    if _any(total == math.inf):
        raise OverflowError("photon number out of range")
    return total if np.ndim(total) else float(total)
