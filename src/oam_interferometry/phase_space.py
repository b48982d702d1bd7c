"""Gaussian states as first/second quadrature moments, plus the symplectic
maps of the interferometer elements.

Conventions (fixed once, everything else is calibrated against them):

* quadratures are ordered ``(x1, p1, x2, p2, ...)``,
* ``X = a + a^dag``, so the vacuum has zero mean and identity covariance,
* a coherent amplitude of magnitude ``r`` and phase ``theta`` shifts the mean
  by ``(2 r cos(theta), 2 r sin(theta))``.

Lossless elements are symplectic matrices ``S`` (``S @ Omega @ S.T == Omega``)
applied as ``mean -> S mean``, ``cov -> S cov S^T``.  Photon loss of
transmissivity ``T`` is the pure-loss channel on the moments, ``mean ->
sqrt(T) mean``, ``cov -> T cov + (1 - T) I``: a virtual beam splitter against
vacuum environment modes followed by the partial trace over the environments,
in closed form (the tests keep that 8x8 dilation as their reference).

The interferometer chains take their parameters through ``_parameters`` and
run on raw ``(mean, cov)`` arrays: ``_opa`` and ``_rotation`` give the
element matrices, each checked by ``_check_symplectic``, the check
``SymplecticOp`` runs, without building one; ``_shifted`` is the coherent
input on the vacuum, with its checks; ``_evolved`` applies one element and
``_attenuated`` the loss channel, with the range check on ``T``.  Only the
chain's output is built as a ``GaussianState``.

One working point, where no parameter is an array with ``ndim > 0``, runs
on Python floats: ``math`` for the one-variable factors, plain comparisons
for the range checks, one ``np.array`` per element matrix and no
``np.errstate``, as Python float arithmetic goes to inf or nan without a
warning.  Otherwise everything broadcasts over leading axes.  An element
built from arrays of parameters is a stack of matrices, shape ``(..., 2m,
2m)``, and a state may hold a stack of means ``(..., 2m)`` and covariances
``(..., 2m, 2m)``; each stage is then one stacked product.  Both take the
same entries, checks and error texts, and each matrix of a stack goes
through the same arithmetic as a single element, so a stack of states
equals the states built one point at a time, bit for bit.  One-variable
factors (cosh, sinh, cos, sin and squares) go through ``math`` on stacks
too: numpy's cosh and sinh differ from libm in the last place on some
inputs, and numpy's ``x**2`` is ``x*x``, not ``pow``.

Every element and every ``GaussianState`` is checked, each matrix of a stack
on its own, with tolerances that scale with the entries, because rounding in
``S Omega S^T`` grows like ``max|S|^2`` (``cosh^2 g`` for the amplifier) and
in ``S cov S^T`` like ``max|cov|`` (``cosh 2g``):

* an element is symplectic when ``symplectic_defect(S) <= SYMPLECTIC_TOL *
  max(1, max|S|^2)``;
* a covariance is symmetric when ``max|cov - cov^T| <= SYMMETRY_TOL *
  max(1, max|cov|)``.

``symplectic_defect`` itself stays absolute.  Both comparisons fail on NaN,
and a mean or covariance with an infinite or NaN entry is rejected as not
finite; a stack of no states passes.  The amplifier accepts ``|g| <=
MAX_GAIN`` and raises a ``ValueError`` naming ``g`` beyond it; near ``g =
355.2`` ``cosh 2g`` leaves the double range.  The rotation names ``phi``
where it is not finite, and ``2 ell phi`` where that product leaves the
double range; the coherent input names ``alpha_mag`` where it is negative
and ``theta`` where it is not finite.  A stack with one failing matrix,
state or parameter raises the error that point raises on its own.
"""

from __future__ import annotations

import contextlib
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
    "opa_matrix",
    "angular_displacement_matrix",
    "bs_matrix",
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
    arr.setflags(write=False)
    return arr


# the two-mode vacuum's covariance, which loss mixes in
_VACUUM_COV = _readonly(np.eye(4))


def _parameters(*values) -> list:
    """One working point as Python floats where no value is an array with
    ``ndim > 0``; otherwise float64 values that broadcast to a stack."""
    if all(isinstance(v, (float, int)) or not np.ndim(v) for v in values):
        return [float(v) for v in values]
    return [np.float64(v) for v in values]


# holds no state, so one serves every call
_UNGUARDED = contextlib.nullcontext()


def _quiet(x):
    """Numpy's floating-point warnings off for arithmetic on a numpy ``x``;
    Python floats go to inf or nan without one and need no ``np.errstate``."""
    return _UNGUARDED if type(x) is float else np.errstate(all="ignore")


def _libm(fn, x):
    """``fn`` applied to each element of ``x`` as a Python float: a float for
    a scalar, an array in the shape of an array; an error ``fn`` raises
    propagates."""
    if not isinstance(x, np.ndarray):
        return fn(x)
    return np.array([fn(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _square(x: float) -> float:
    # pow, as Python floats square; it raises where the square overflows
    return x**2


def _any(bad) -> bool:
    """Whether ``bad`` holds for any matrix or state of a stack."""
    return bool(bad.any()) if isinstance(bad, np.ndarray) else bool(bad)


def _all(ok) -> bool:
    """Whether ``ok`` holds for every matrix or state of a stack; true for a
    stack of none."""
    return bool(ok.all()) if isinstance(ok, np.ndarray) else bool(ok)


def _within(deviation, tolerance: float, scale):
    """``deviation <= tolerance * max(1, scale)`` per matrix or state, false
    on NaN; two comparisons, as rounding keeps ``tolerance * max(1, scale)``
    equal to ``max(tolerance, tolerance * scale)``."""
    return (deviation <= tolerance) | (deviation <= tolerance * scale)


def _first(values, ok) -> float:
    """The first entry of ``values`` where ``ok`` fails."""
    return float(values[~ok][0]) if isinstance(ok, np.ndarray) else float(values)


def _per_state(x, axes: int):
    """``x`` with ``axes`` trailing axes where it is an array, so that each
    point of a stack scales its own state."""
    return x[(...,) + (None,) * axes] if isinstance(x, np.ndarray) else x


def _array(entries, like) -> np.ndarray:
    """``entries``, a tuple of floats or a tuple of rows of them, as one
    ``np.array`` where ``like`` is a scalar; else as a stack over its shape,
    each entry a float or an array shaped like ``like``, filled entry by entry
    from zeros, where a zero float entry reads +0.0."""
    if not isinstance(like, np.ndarray):
        return np.array(entries)
    rows = entries if isinstance(entries[0], tuple) else (entries,)
    out = np.zeros(like.shape + (len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if isinstance(entry, np.ndarray) or entry != 0.0:
                out[..., i, j] = entry
    return out if rows is entries else out.reshape(like.shape + out.shape[-1:])


def _peak(x: np.ndarray):
    """``max|x|`` over the last two axes: one value per matrix of a stack.
    The reduction is ``ndarray.max``'s without its Python wrapper."""
    return np.maximum.reduce(np.abs(x), axis=(-2, -1))


def _check_mean(mean: np.ndarray) -> None:
    """Raises unless every entry of ``mean`` is finite; one state's entries
    go through ``math``."""
    if mean.ndim == 1:
        finite = all(map(math.isfinite, mean.tolist()))
    else:
        finite = bool(np.isfinite(mean).all())
    if not finite:
        raise ValueError("mean must be finite")


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
    return _peak(matrix @ w @ matrix.swapaxes(-1, -2) - w)


def _check_symplectic(matrix: np.ndarray, label: str) -> np.ndarray:
    """``matrix``, once each matrix of it is found symplectic within the
    scaled tolerance; raises naming ``label`` and the first defect."""
    peak = _peak(matrix)
    defect = symplectic_defect(matrix)
    ok = _within(defect, SYMPLECTIC_TOL, peak * peak)
    if not _all(ok):
        raise ValueError(f"{label}: not symplectic (defect {_first(defect, ok):.3e})")
    return matrix


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix of an m-mode Gaussian state, or a
    stack of them.

    ``mean`` has length ``2 m`` in ``(x1, p1, ..., xm, pm)`` order; ``cov`` is
    the symmetric ``2m x 2m`` covariance normalised so the vacuum is the
    identity.  Leading axes, the same on both, index a stack of states.
    Instances are immutable, and the arrays are stored read-only, as
    ``SymplecticOp`` stores its matrix, which for the cached coupler
    ``bs_matrix`` every caller shares.
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
        _check_mean(mean)
        peak = _peak(cov)
        if not _all(peak < math.inf):
            raise ValueError("cov must be finite")
        cov_t = cov.swapaxes(-1, -2)
        if not _all(_within(_peak(cov - cov_t), SYMMETRY_TOL, peak)):
            raise ValueError("cov must be symmetric")
        cov = (cov + cov_t) * 0.5
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
        object.__setattr__(self, "matrix", _readonly(_check_symplectic(m, self.label)))


def _all_finite(x) -> bool:
    """Whether every entry of ``x`` is finite; a scalar goes through ``math``."""
    return bool(np.isfinite(x).all()) if isinstance(x, np.ndarray) else math.isfinite(x)


def _shifted(magnitude, angle) -> np.ndarray:
    """The two-mode vacuum's mean with mode A shifted by a coherent
    amplitude: a new array over the broadcast stack.  Raises on a negative
    magnitude, then on an angle that is not finite, then on a shifted mean
    that is not finite."""
    if _any(magnitude < 0):
        raise ValueError("alpha_mag must be >= 0")
    if not _all_finite(angle):
        raise ValueError("theta must be finite")
    # a shift past the double range is inf or nan, and the check rejects it
    with _quiet(magnitude):
        shift_x = 2.0 * magnitude * _libm(math.cos, angle)
        shift_p = 2.0 * magnitude * _libm(math.sin, angle)
    # added to zero, so a -0.0 shift reads +0.0
    out = _array((0.0 + shift_x, 0.0 + shift_p, 0.0, 0.0), shift_x)
    _check_mean(out)
    return out


def _evolved(s: np.ndarray, mean: np.ndarray, cov: np.ndarray | None):
    """``(S mean, S cov S^T)`` over broadcast stacks; ``cov=None`` stands for
    the vacuum's identity, giving ``S S^T`` over the output mean's stack."""
    s_t = s.swapaxes(-1, -2)
    out = (s @ mean[..., None])[..., 0]
    if cov is not None:
        return out, s @ cov @ s_t
    cov = s @ s_t
    if cov.shape[:-2] != out.shape[:-1]:
        # the mean's stack reaches past the elements'
        cov = np.broadcast_to(cov, out.shape + out.shape[-1:])
    return out, cov


def _attenuated(mean: np.ndarray, cov: np.ndarray, transmissivity):
    """The pure-loss channel in both modes of a two-mode state: ``(sqrt(T)
    mean, T cov + (1 - T) I)`` over broadcast stacks; raises first if T lies
    outside [0, 1]."""
    t = transmissivity
    if not _all((t >= 0.0) & (t <= 1.0)):
        raise ValueError("transmissivity must lie in [0, 1]")
    # arrays on the left: a float on the left would try its own product first
    loss = cov * _per_state(t, 2) + _VACUUM_COV * _per_state(1.0 - t, 2)
    return mean * _per_state(_libm(math.sqrt, t), 1), loss


def _opa(g) -> np.ndarray:
    """The amplifier's matrix at gain ``g``, not yet checked symplectic;
    raises naming ``g`` beyond ``MAX_GAIN``."""
    ok = abs(g) <= MAX_GAIN
    if not _all(ok):
        raise ValueError(f"g = {_first(g, ok)} is outside the engine's range |g| <= {MAX_GAIN:g}")
    ch, sh = _libm(math.cosh, g), _libm(math.sinh, g)
    rows = ((ch, 0.0, sh, 0.0), (0.0, ch, 0.0, -sh), (sh, 0.0, ch, 0.0), (0.0, -sh, 0.0, ch))
    return _array(rows, g)


def _rotation(ell, phi) -> np.ndarray:
    """The angular displacement's matrix, not yet checked symplectic; raises
    on an ``ell`` that is not a positive integer, then names ``phi`` or
    ``2 ell phi`` where it is not finite."""
    if not _all((ell >= 1) & (ell % 1 == 0)):
        raise ValueError("ell must be a positive integer")
    with _quiet(phi):
        delta = 2.0 * ell * phi
    if not _all_finite(delta):
        # a finite phi can still take 2 ell phi past the double range
        raise ValueError(f"{'2 ell phi' if _all_finite(phi) else 'phi'} must be finite")
    c, s = _libm(math.cos, delta), _libm(math.sin, delta)
    rows = ((c, -s, 0.0, 0.0), (s, c, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))
    return _array(rows, delta)


def opa_matrix(g) -> SymplecticOp:
    """Two-mode squeezer (parametric amplifier) of gain ``g`` on modes (A, B);
    an array of gains gives a stack."""
    return SymplecticOp(_opa(*_parameters(g)), "OPA")


def angular_displacement_matrix(ell, phi) -> SymplecticOp:
    """Rotation of mode A's quadratures by ``2 ell phi``, identity on mode B;
    arrays of ``ell`` and ``phi`` give a stack.

    ``ell`` is the OAM quantum number; a relative rotation ``phi`` between the
    Dove prisms imprints the doubled phase ``2 ell phi`` on the helical mode.
    """
    return SymplecticOp(_rotation(*_parameters(ell, phi)), "AD")


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
