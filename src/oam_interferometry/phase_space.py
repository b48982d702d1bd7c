"""Gaussian states as first/second quadrature moments, plus the symplectic
maps of the interferometer elements.

Conventions (fixed once, everything else is calibrated against them):

* quadratures are ordered ``(x1, p1, x2, p2, ...)``,
* ``X = a + a^dag``, so the vacuum has zero mean and identity covariance,
* a coherent amplitude of magnitude ``r`` and phase ``theta`` shifts the mean
  by ``(2 r cos(theta), 2 r sin(theta))``.

Lossless elements are symplectic matrices ``S`` (``S @ Omega @ S.T == Omega``)
applied as ``mean -> S mean``, ``cov -> S cov S^T``.  Photon loss is a virtual
beam splitter against vacuum environment modes followed by a partial trace,
which for Gaussian states is plain row/column deletion.

Every element and every state is checked when it is built, with tolerances
that scale with the entries, because rounding in ``S Omega S^T`` grows like
``max|S|^2`` (``cosh^2 g`` for the amplifier) and in ``S cov S^T`` like
``max|cov|`` (``cosh 2g``):

* an element is symplectic when ``symplectic_defect(S) <= SYMPLECTIC_TOL *
  max(1, max|S|^2)``;
* a covariance is symmetric when ``max|cov - cov^T| <= SYMMETRY_TOL *
  max(1, max|cov|)``.

``symplectic_defect`` itself stays absolute.  Both comparisons fail on NaN,
and a mean or covariance with an infinite or NaN entry is rejected as not finite.
The amplifier accepts ``|g| <= MAX_GAIN`` and raises a ``ValueError`` naming
``g`` beyond it; near ``g = 355.2`` ``cosh 2g`` leaves the double range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

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
    "extend_with_environment",
    "virtual_bs_matrix",
    "apply",
    "trace_out",
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


def symplectic_defect(matrix: np.ndarray) -> float:
    """Max-abs deviation of ``S Omega S^T`` from ``Omega``."""
    w = omega(matrix.shape[0] // 2)
    return float(np.abs(matrix @ w @ matrix.T - w).max())


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix of an m-mode Gaussian state.

    ``mean`` has length ``2 m`` in ``(x1, p1, ..., xm, pm)`` order; ``cov`` is
    the symmetric ``2m x 2m`` covariance normalised so the vacuum is the
    identity.  Instances are immutable; the arrays are stored read-only so
    states can be shared freely across threads.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size == 0 or mean.size % 2:
            raise ValueError("mean must be a vector of length 2 * mode_count")
        if cov.shape != (mean.size, mean.size):
            raise ValueError("cov must be square and match the mean vector")
        if not np.abs(mean).max() < math.inf:
            raise ValueError("mean must be finite")
        peak = float(np.abs(cov).max())
        if not peak < math.inf:
            raise ValueError("cov must be finite")
        if not np.abs(cov - cov.T).max() <= SYMMETRY_TOL * max(1.0, peak):
            raise ValueError("cov must be symmetric")
        cov = 0.5 * (cov + cov.T)
        object.__setattr__(self, "mean", _readonly(mean))
        object.__setattr__(self, "cov", _readonly(cov))

    @property
    def mode_count(self) -> int:
        return self.mean.size // 2


@dataclass(frozen=True)
class SymplecticOp:
    """A linear phase-space map tagged with the optical element it models."""

    matrix: np.ndarray
    label: str

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValueError("matrix must be square with even dimension")
        peak = float(np.abs(m).max())
        defect = symplectic_defect(m)
        if not defect <= SYMPLECTIC_TOL * max(1.0, peak * peak):
            raise ValueError(f"{self.label}: not symplectic (defect {defect:.3e})")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def mode_count(self) -> int:
        return self.matrix.shape[0] // 2


def vacuum_state(modes: int) -> GaussianState:
    """All-mode vacuum: zero mean, identity covariance."""
    if modes < 1:
        raise ValueError("modes must be >= 1")
    return GaussianState(np.zeros(2 * modes), np.eye(2 * modes))


def displace(state: GaussianState, mode: int, magnitude: float, angle: float) -> GaussianState:
    """Displace one mode by a coherent amplitude of given magnitude and phase.

    Shifts the mode's mean by ``(2 magnitude cos(angle), 2 magnitude
    sin(angle))`` and leaves the covariance untouched.
    """
    if not 0 <= mode < state.mode_count:
        raise ValueError(f"mode {mode} out of range for {state.mode_count} modes")
    if magnitude < 0:
        raise ValueError("magnitude must be >= 0")
    mean = state.mean.copy()
    mean[2 * mode] += 2.0 * magnitude * math.cos(angle)
    mean[2 * mode + 1] += 2.0 * magnitude * math.sin(angle)
    return GaussianState(mean, state.cov)


def opa_matrix(g: float) -> SymplecticOp:
    """Two-mode squeezer (parametric amplifier) of gain ``g`` on modes (A, B)."""
    if not abs(g) <= MAX_GAIN:
        raise ValueError(f"g = {g} is outside the engine's range |g| <= {MAX_GAIN:g}")
    ch, sh = math.cosh(g), math.sinh(g)
    m = np.array(
        [
            [ch, 0.0, sh, 0.0],
            [0.0, ch, 0.0, -sh],
            [sh, 0.0, ch, 0.0],
            [0.0, -sh, 0.0, ch],
        ]
    )
    return SymplecticOp(m, "OPA")


def angular_displacement_matrix(ell: int, phi: float) -> SymplecticOp:
    """Rotation of mode A's quadratures by ``2 ell phi``, identity on mode B.

    ``ell`` is the OAM quantum number; a relative rotation ``phi`` between the
    Dove prisms imprints the doubled phase ``2 ell phi`` on the helical mode.
    """
    if int(ell) != ell or ell < 1:
        raise ValueError("ell must be a positive integer")
    delta = 2.0 * ell * phi
    c, s = math.cos(delta), math.sin(delta)
    m = np.array(
        [
            [c, -s, 0.0, 0.0],
            [s, c, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    return SymplecticOp(m, "AD")


def bs_matrix() -> SymplecticOp:
    """Balanced output coupler: ``a -> (a + b)/sqrt2``, ``b -> (b - a)/sqrt2``."""
    m = np.array(
        [
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
            [-1.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 1.0],
        ]
    ) / math.sqrt(2.0)
    return SymplecticOp(m, "BS")


def extend_with_environment(op: SymplecticOp) -> SymplecticOp:
    """Direct sum of a two-mode element with the identity on two environment modes."""
    if op.matrix.shape != (4, 4):
        raise ValueError("dimension mismatch: expected a 4x4 system operator")
    m = np.eye(8)
    m[:4, :4] = op.matrix
    return SymplecticOp(m, op.label)


def virtual_bs_matrix(transmissivity: float) -> SymplecticOp:
    """Virtual beam splitters coupling both system modes to vacuum environments.

    Mode A mixes with environment mode 3 and mode B with environment mode 4,
    both at the same transmissivity.
    """
    t = float(transmissivity)
    if not math.isfinite(t) or not 0.0 <= t <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    rt, rr = math.sqrt(t), math.sqrt(1.0 - t)
    eye4 = np.eye(4)
    m = np.block([[rt * eye4, rr * eye4], [rr * eye4, -rt * eye4]])
    return SymplecticOp(m, "VBS")


def apply(op: SymplecticOp, state: GaussianState) -> GaussianState:
    """Evolve a state through a symplectic element: ``S mean``, ``S cov S^T``."""
    if op.matrix.shape[0] != state.mean.size:
        raise ValueError(
            f"dimension mismatch: op acts on {op.mode_count} modes, "
            f"state has {state.mode_count}"
        )
    s = op.matrix
    return GaussianState(s @ state.mean, s @ state.cov @ s.T)


def trace_out(state: GaussianState, modes: Iterable[int]) -> GaussianState:
    """Discard the given modes (Gaussian partial trace by row/column deletion)."""
    drop = sorted({int(m) for m in modes})
    if any(m < 0 or m >= state.mode_count for m in drop):
        raise ValueError("mode out of range")
    keep = [m for m in range(state.mode_count) if m not in drop]
    if not keep:
        raise ValueError("cannot trace out every mode")
    idx = [d for m in keep for d in (2 * m, 2 * m + 1)]
    return GaussianState(state.mean[idx], state.cov[np.ix_(idx, idx)])


def photon_number(state: GaussianState) -> float:
    """Total mean photon number, summed over modes.

    Per mode: ``(<x>^2 + <p>^2)/4 + (Var x + Var p - 2)/4`` in the
    vacuum-variance-1 convention.  Raises OverflowError where the number
    leaves the double range, as ``interferometer.mean_photon_number`` does.
    """
    # Python floats: a square that overflows raises, where numpy's would turn inf
    mean, var = state.mean.tolist(), state.cov.diagonal().tolist()
    total = 0.0
    for i in range(0, len(mean), 2):
        total += 0.25 * (mean[i] ** 2 + mean[i + 1] ** 2 + (var[i] + var[i + 1]) - 2.0)
    if total == math.inf:
        raise OverflowError("photon number out of range")
    return total

