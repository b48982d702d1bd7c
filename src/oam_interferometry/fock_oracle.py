"""Brute-force validator in a truncated two-mode Fock space.

The state is the amplitude matrix ``psi[n_a, n_b]`` (``n <= cutoff`` per
mode).  Each element of the chain conserves a photon-number combination even
after truncation, so its unitary is exactly a direct sum of small blocks:

* the squeezer ``g (a^dag b^dag - a b)`` conserves ``d = n_a - n_b``: one
  block per diagonal of ``psi``.  Mode B enters in vacuum, so block ``d``
  meets one amplitude, at ``|d, 0>``, and only that column is kept;
* the balanced coupler conserves ``n_a + n_b``: one block per anti-diagonal;
* the Dove-prism rotation is a phase on each row.

An element's blocks, each at most ``cutoff + 1`` square, are zero-padded into
one stack; a padded slot exponentiates to the identity and carries no
amplitude.  Every block generator, and the single-mode displacement
``|alpha| (a^dag - a)``, is a real antisymmetric tridiagonal
ladder matrix, which is ``-i J`` for a real symmetric tridiagonal J up to a
diagonal phase change.  So batched ``numpy.linalg.eigh`` calls over the J
stack exponentiate them all in real arithmetic (``_ladder_exp``).  This is the same
truncated operator as the dense ``(cutoff+1)^2``-square ``expm`` (the test
suite keeps that route as its reference), not an approximation.  The squeezed
columns are read straight into the coupler's slots, rotated there, and
scattered into ``psi`` once; homodyne moments are read directly from ``psi``.
The oracle shares nothing with the phase-space engine it checks.

Reliability gauge: the probability sitting on the top two Fock layers of
either mode ("tail mass").  A state whose tail mass reaches
``DEFAULT_TAIL_TOLERANCE`` is flagged unreliable and refuses to report moments.

Cost: the coupler keeps ``(2 cutoff + 1)(cutoff + 1)^2`` reals (8.5 MB at
cutoff 80) and, per slot, two integer maps beside its ``psi`` index: the
squeezer-column entry the slot holds and its ``n_a``.  The squeezer keeps one
column of each of its ``cutoff + 1`` blocks.  The blocks are exponentiated a
few at a time into the kept array, each by the same arithmetic as the whole
stack at once, so a cold build holds little more than what it keeps.  The
README's "The Fock validator" section has the measured times and peaks; the
dense route took 3.9 / 30 / 164 s at cutoff 40 / 60 / 80 and 0.4 GB per
operator at 80.
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
    "bs_unitary",
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
# bs_unitary(80), which keeps 8.1 MiB, grows with the batch: 9.2 MiB at 1,
# 10.1 at 4, 13.7 at 16 and 49 with every block at once.  Build times from 1
# to 16 were equal within noise.
_BATCH = 4


def _ladder_exp(weights: np.ndarray, column: int | None = None) -> np.ndarray:
    """exp(G) for the real antisymmetric tridiagonal ``G[k+1, k] = w_k =
    -G[k, k+1]``, ``w = weights[..., k]``, batched over the leading axes; with
    ``column``, only that column of each exp(G).

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
    offset = np.subtract.outer(np.arange(dim), np.arange(dim)) % 4
    odd, sign = offset % 2 == 1, np.where(offset < 2, 1.0, -1.0)
    if column is not None:
        odd, sign = odd[:, column], sign[:, column]
    out = np.empty(weights.shape[:-1] + sign.shape)
    blocks = out.reshape((len(stack),) + sign.shape)
    for start in range(0, len(stack), _BATCH):
        batch = stack[start : start + _BATCH]
        j = np.zeros((len(batch), dim, dim))
        j[:, k + 1, k] = batch
        j[:, k, k + 1] = batch
        lam, v = np.linalg.eigh(j)
        vt = np.swapaxes(v, -1, -2)
        cos = (v * np.cos(lam)[:, None, :]) @ vt
        sin = (v * np.sin(lam)[:, None, :]) @ vt
        if column is not None:
            cos, sin = cos[..., column], sin[..., column]
        np.multiply(np.where(odd, sin, cos), sign, out=blocks[start : start + _BATCH])
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
    columns = _ladder_exp(g * weight, column=0)
    columns.flags.writeable = False
    return columns


@lru_cache(maxsize=4)
def bs_unitary(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """exp(pi/4 (a^dag b - a b^dag)): the balanced coupler
    ``a -> (a + b)/sqrt2``, ``b -> (b - a)/sqrt2``, with one block per fixed
    ``n_a + n_b`` stepped by ``(n_a, n_b) -> (n_a + 1, n_b - 1)`` with matrix
    element ``sqrt((n_a + 1) n_b)``.

    Returns ``(blocks, index, source, rows)``: the real orthogonal blocks and,
    per slot, the flat index ``n_a (cutoff+1) + n_b`` of the raveled ``psi``,
    the entry ``(n_a - n_b)(cutoff+1) + n_b`` of the raveled squeezer columns
    the slot holds before the coupler, and ``n_a``.  A padded slot has index
    ``(cutoff+1)^2``, row 0 and an identity row and column in its block; it and
    every slot with ``n_a < n_b`` have source ``(cutoff+1)^2``, an appended zero.
    """
    dim = cutoff + 1
    total = np.arange(2 * cutoff + 1)[:, None]
    n_a = np.arange(dim)[None, :] + np.maximum(total - cutoff, 0)
    n_b = total - n_a
    valid = (n_a <= cutoff) & (n_b >= 0)
    index = np.where(valid, n_a * dim + n_b, dim * dim)
    source = np.where(valid & (n_a >= n_b), (n_a - n_b) * dim + n_b, dim * dim)
    rows = np.where(valid, n_a, 0)
    linked = valid[:, :-1] & valid[:, 1:]
    weight = np.sqrt(np.where(linked, (n_a[:, :-1] + 1) * n_b[:, :-1], 0))
    coupler = (_ladder_exp(math.pi / 4.0 * weight), index, source, rows)
    for array in coupler:
        array.flags.writeable = False
    return coupler


@lru_cache(maxsize=16)
def _displacement_column(magnitude: float, cutoff: int) -> np.ndarray:
    """D(|alpha|)|0> for a single mode (first column of the displacement
    unitary); the phase of alpha is the rotation ``e^{i theta n}`` applied to it."""
    # a^dag - a steps n -> n + 1 with sqrt(n + 1)
    col = _ladder_exp(magnitude * np.sqrt(np.arange(1.0, cutoff + 1)), column=0)
    col.flags.writeable = False
    return col


@dataclass(frozen=True)
class FockState:
    """Normalised truncated two-mode state with its tail-mass record."""

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
    """Moments read directly from the truncated state."""

    x_mean: float
    x_second_moment: float
    photon_number: float
    cutoff_used: int
    tail_mass: float


def _evolve_at(config: ExperimentConfig, cutoff: int) -> FockState:
    dim = cutoff + 1
    n = np.arange(dim)
    blocks, index, source, rows = bs_unitary(cutoff)
    # displaced vacuum |n, 0>, each squeezed along its diagonal of psi[n_a, n_b]
    amplitude = np.exp(1j * config.theta * n) * _displacement_column(config.alpha_mag, cutoff)
    squeezed = _squeezed_columns(config.g, cutoff) * amplitude[:, None]
    # read straight into the coupler's slots and rotated there by e^{i 2 l phi n_a}
    slots = np.append(squeezed.ravel(), 0.0)[source]
    slots *= np.exp(1j * 2.0 * config.ell * config.phi * n)[rows]
    # real blocks times the real and imaginary parts in one batched matmul
    pair = blocks @ np.stack((slots.real, slots.imag), axis=-1)
    out = np.empty(dim * dim + 1, dtype=complex)
    out[index] = pair[..., 0] + 1j * pair[..., 1]
    psi = out[:-1].reshape(dim, dim)
    psi /= np.linalg.norm(psi)
    probs = np.abs(psi) ** 2
    tail = float(max(1.0 - probs[: cutoff - 1, : cutoff - 1].sum(), 0.0))
    return FockState(cutoff=cutoff, amplitudes=psi.ravel(), tail_mass=tail)


def evolve(
    config: ExperimentConfig,
    cutoff: int | None = None,
    cutoff_schedule: tuple[int, ...] = CUTOFF_SCHEDULE,
) -> FockState:
    """Propagate the input through displacement, squeezer, rotation, coupler.

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


def moments(state: FockState) -> OracleReport:
    """<X_A>, <X_A^2>, and total photon number of the output state; raises
    UnreliableStateError when the state's tail mass reaches DEFAULT_TAIL_TOLERANCE."""
    if not state.reliable:
        raise UnreliableStateError(
            f"tail mass {state.tail_mass:.3e} exceeds tolerance {DEFAULT_TAIL_TOLERANCE:.1e}"
        )
    dim = state.cutoff + 1
    psi = state.amplitudes.reshape(dim, dim)
    # X_A = a + a^dag acts on the row index n_a: the banded (a + a^T) @ psi
    root = np.sqrt(np.arange(1, dim))[:, None]
    xpsi = np.zeros_like(psi)
    xpsi[:-1] = root * psi[1:]
    xpsi[1:] += root * psi[:-1]
    x_mean = float(np.real(np.vdot(psi, xpsi)))
    x_second = float(np.real(np.vdot(xpsi, xpsi)))
    n = np.arange(dim)
    n_total = float(np.sum(np.add.outer(n, n) * np.abs(psi) ** 2))
    return OracleReport(
        x_mean=x_mean,
        x_second_moment=x_second,
        photon_number=n_total,
        cutoff_used=state.cutoff,
        tail_mass=state.tail_mass,
    )
