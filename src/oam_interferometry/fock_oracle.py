"""Brute-force validator in a truncated two-mode Fock space.

The state is the amplitude matrix ``psi[n_a, n_b]`` (``n <= cutoff`` per
mode) ahead of the output coupler.  Each truncated element conserves a
photon-number combination, so its unitary is exactly a direct sum of small
blocks:

* the squeezer ``g (a^dag b^dag - a b)`` conserves ``d = n_a - n_b``: one
  block per diagonal of ``psi``.  Mode B enters in vacuum, so block ``d``
  meets one amplitude, at ``|d, 0>``, and only that column is kept;
* the Dove-prism rotation is a phase on each row.

The balanced coupler is linear, ``a -> (a + b)/sqrt2``, so the homodyne
quadrature after it is ``X_out = (X_A + X_B)/sqrt2`` read on ``psi``, and the
photon number, which the coupler conserves, is read on ``psi`` as well; the
coupler is never built.  The squeezer's block columns, and the single-mode
displacement ``|alpha| (a^dag - a)``, are column 0 of the exponential of a
real antisymmetric tridiagonal ladder matrix, which is ``-i J`` for a real
symmetric tridiagonal J up to a diagonal phase change.  So batched
``numpy.linalg.eigh`` calls over the J stack exponentiate them in real
arithmetic (``_ladder_exp``).  This is the same truncated operator as the
dense ``(cutoff+1)^2``-square ``expm`` (the test suite keeps that route, and
the chain through the coupler's blocks, as its references), not an
approximation.  The oracle shares nothing with the phase-space engine it
checks.

Reliability gauge: the probability sitting on the top two Fock layers of
either mode ("tail mass").  A state whose tail mass reaches
``DEFAULT_TAIL_TOLERANCE`` is flagged unreliable and refuses to report moments.

Cost: the squeezer keeps one column of each of its ``cutoff + 1`` blocks and
the displacement one column; the state is one ``(cutoff + 1)^2`` complex
matrix.  The blocks are exponentiated a few at a time, each by the same
arithmetic as the whole stack at once, so a cold build holds little more
than what it keeps.  The README's "The Fock validator" section has the
measured times and peaks; the dense route took 3.9 / 30 / 164 s at cutoff
40 / 60 / 80 and 0.4 GB per operator at 80.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .metrology import ExperimentConfig

__all__ = [
    "DEFAULT_TAIL_TOLERANCE",
    "CUTOFF_SCHEDULE",
    "UnreliableStateError",
    "FockState",
    "OracleReport",
    "evolve",
    "moments",
]

DEFAULT_TAIL_TOLERANCE = 1e-8
# automatic escalation path; an explicit cutoff argument bypasses it
CUTOFF_SCHEDULE = (40, 60, 80)


class UnreliableStateError(RuntimeError):
    """Raised when moments are requested from a state with too much tail mass."""


# Blocks exponentiated per step of ``_ladder_exp``.  Each block still runs the
# same eigh and the same two full products, so its bits do not change (fewer
# columns per product would change them).  The traced peak of a cold
# _squeezed_columns(0.3, 80), which keeps 52 kB, grows with the batch: 0.5 MiB
# at 1, 1.4 at 4, 5.0 at 16 and 20.5 with every block at once.  Build times
# from 1 to 16 were equal within noise.
_BATCH = 4


def _ladder_exp(weights: np.ndarray) -> np.ndarray:
    """Column 0 of exp(G) for the real antisymmetric tridiagonal
    ``G[k+1, k] = w_k = -G[k, k+1]``, ``w = weights[..., k]``, batched over the
    leading axes.

    ``G = D (-i J) D^-1`` with ``D = diag(i^k)`` and J the real symmetric
    tridiagonal matrix with the same weights, so with ``J = V diag(lam) V^T``,
    ``exp(G)[k, l] = i^(k-l) (V cos(lam) V^T - i V sin(lam) V^T)[k, l]``.  J has
    a zero diagonal, so its even functions vanish where ``k - l`` is odd and its
    odd functions where it is even: ``exp(G)`` is ``V cos(lam) V^T`` where
    ``k - l`` is even and ``V sin(lam) V^T`` where it is odd, signed +, +, -, -
    for ``(k - l) mod 4 = 0, 1, 2, 3``.  The blocks are built ``_BATCH`` at a
    time into one C-contiguous real array, each block by the same arithmetic.
    """
    dim = weights.shape[-1] + 1
    stack = weights.reshape(-1, dim - 1)
    k = np.arange(dim - 1)
    offset = np.arange(dim) % 4
    odd, sign = offset % 2 == 1, np.where(offset < 2, 1.0, -1.0)
    out = np.empty(weights.shape[:-1] + (dim,))
    columns = out.reshape(len(stack), dim)
    for start in range(0, len(stack), _BATCH):
        batch = stack[start : start + _BATCH]
        j = np.zeros((len(batch), dim, dim))
        j[:, k + 1, k] = batch
        j[:, k, k + 1] = batch
        lam, v = np.linalg.eigh(j)
        vt = np.swapaxes(v, -1, -2)
        cos = ((v * np.cos(lam)[:, None, :]) @ vt)[..., 0]
        sin = ((v * np.sin(lam)[:, None, :]) @ vt)[..., 0]
        np.multiply(np.where(odd, sin, cos), sign, out=columns[start : start + _BATCH])
    return out


@lru_cache(maxsize=6)
def _squeezed_columns(g: float, cutoff: int) -> np.ndarray:
    """exp(g (a^dag b^dag - a b)) |d, 0> for d = 0 .. cutoff: the two-mode
    squeezer matching ``A = a cosh g + b^dag sinh g`` in the Heisenberg picture.

    Row d is column 0 of the block of fixed ``n_a - n_b = d``, stepped by
    ``(d + k, k) -> (d + k + 1, k + 1)`` with ``sqrt((d + k + 1)(k + 1))``; its
    entry k is the amplitude at ``(d + k, k)``, padding where ``d + k > cutoff``.
    """
    d = np.arange(cutoff + 1)[:, None]
    k = np.arange(cutoff)[None, :]
    weight = np.sqrt(np.where(d + k < cutoff, (d + k + 1) * (k + 1), 0))
    columns = _ladder_exp(g * weight)
    columns.flags.writeable = False
    return columns


@lru_cache(maxsize=16)
def _displacement_column(magnitude: float, cutoff: int) -> np.ndarray:
    """D(|alpha|)|0> for a single mode (first column of the displacement
    unitary); the phase of alpha is the rotation ``e^{i theta n}`` applied to it."""
    # a^dag - a steps n -> n + 1 with sqrt(n + 1)
    col = _ladder_exp(magnitude * np.sqrt(np.arange(1.0, cutoff + 1)))
    col.flags.writeable = False
    return col


@dataclass(frozen=True)
class FockState:
    """Normalised truncated two-mode state ahead of the output coupler, with
    its tail-mass record."""

    cutoff: int
    amplitudes: np.ndarray
    tail_mass: float

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != ((self.cutoff + 1) ** 2,):
            raise ValueError("amplitudes must have dimension (cutoff + 1)^2")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def reliable(self) -> bool:
        return self.tail_mass < DEFAULT_TAIL_TOLERANCE


@dataclass(frozen=True)
class OracleReport:
    """Homodyne moments after the coupler and the photon number, read from
    the truncated state ahead of it."""

    x_mean: float
    x_second_moment: float
    photon_number: float
    cutoff_used: int
    tail_mass: float


def _evolve_at(config: ExperimentConfig, cutoff: int) -> FockState:
    dim = cutoff + 1
    n = np.arange(dim)
    # displaced vacuum |d, 0>, each squeezed along its diagonal: entry
    # (d, k) of the columns is the amplitude at (d + k, k) of psi[n_a, n_b]
    amplitude = np.exp(1j * config.theta * n) * _displacement_column(config.alpha_mag, cutoff)
    n_a, n_b = np.tril_indices(dim)
    psi = np.zeros((dim, dim), dtype=complex)
    psi[n_a, n_b] = _squeezed_columns(config.g, cutoff)[n_a - n_b, n_b] * amplitude[n_a - n_b]
    # rotated by e^{i 2 l phi n_a}
    psi *= np.exp(1j * 2.0 * config.ell * config.phi * n)[:, None]
    psi /= np.linalg.norm(psi)
    probs = np.abs(psi) ** 2
    tail = float(max(1.0 - probs[: cutoff - 1, : cutoff - 1].sum(), 0.0))
    return FockState(cutoff=cutoff, amplitudes=psi.ravel(), tail_mass=tail)


def evolve(
    config: ExperimentConfig,
    cutoff: int | None = None,
    cutoff_schedule: tuple[int, ...] = CUTOFF_SCHEDULE,
) -> FockState:
    """Propagate the input through displacement, squeezer and rotation to the
    state ahead of the output coupler, which ``moments`` reads through.

    With ``cutoff=None`` the schedule is walked until the tail-mass criterion
    passes; if the ceiling still fails, the last state is returned carrying
    ``reliable == False``.  An explicit cutoff is used as given; a cutoff that
    is not an integer or is below 2 raises ValueError.  Only the lossless chain
    is covered (loss validation goes through the exact scaling laws against
    the phase-space engine instead).
    """
    if config.transmissivity != 1.0:
        raise ValueError("the Fock validator covers the lossless chain only")
    schedule = (cutoff,) if cutoff is not None else tuple(cutoff_schedule)
    if not schedule:
        raise ValueError("cutoff schedule is empty")
    try:
        schedule = tuple(operator.index(c) for c in schedule)
    except TypeError:
        given = schedule if cutoff is None else cutoff
        raise ValueError(f"cutoff must be an integer, got {given!r}") from None
    if min(schedule) < 2:
        raise ValueError("cutoff must be >= 2")
    state = None
    for c in schedule:
        state = _evolve_at(config, c)
        if state.reliable:
            return state
    return state


def _quadrature(psi: np.ndarray, axis: int) -> np.ndarray:
    """``(a + a^dag) psi`` for the mode whose Fock index runs along ``axis``
    of ``psi[n_a, n_b]``: the banded product with ``sqrt(n)`` off the diagonal."""
    psi = psi.swapaxes(0, axis)
    root = np.sqrt(np.arange(1, len(psi)))[:, None]
    out = np.zeros_like(psi)
    out[:-1] = root * psi[1:]
    out[1:] += root * psi[:-1]
    return out.swapaxes(0, axis)


def moments(state: FockState) -> OracleReport:
    """<X_A>, <X_A^2> after the coupler, and the total photon number; raises
    UnreliableStateError when the state's tail mass reaches DEFAULT_TAIL_TOLERANCE.

    The coupler sends ``a -> (a + b)/sqrt2``, so the homodyne quadrature is
    ``X_out = (X_A + X_B)/sqrt2`` on the state ahead of it: ``<X_out>`` is
    ``(<X_A> + <X_B>)/sqrt2`` and ``<X_out^2> = |X_out psi|^2`` is
    ``(<X_A^2> + <X_B^2> + 2 Re<X_A X_B>)/2``.  It conserves ``n_a + n_b``,
    which is read as it stands.
    """
    if not state.reliable:
        raise UnreliableStateError(
            f"tail mass {state.tail_mass:.3e} exceeds tolerance {DEFAULT_TAIL_TOLERANCE:.1e}"
        )
    dim = state.cutoff + 1
    psi = state.amplitudes.reshape(dim, dim)
    # sqrt2 X_out psi
    xpsi = _quadrature(psi, 0) + _quadrature(psi, 1)
    x_mean = float(np.real(np.vdot(psi, xpsi))) / math.sqrt(2.0)
    x_second = float(np.real(np.vdot(xpsi, xpsi))) / 2.0
    probs = np.abs(psi) ** 2
    n_total = float(np.arange(dim) @ (probs.sum(axis=0) + probs.sum(axis=1)))
    return OracleReport(
        x_mean=x_mean,
        x_second_moment=x_second,
        photon_number=n_total,
        cutoff_used=state.cutoff,
        tail_mass=state.tail_mass,
    )
