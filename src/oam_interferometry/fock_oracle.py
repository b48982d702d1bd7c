"""Brute-force validator in a truncated two-mode Fock space.

The state is the amplitude matrix ``psi[n_a, n_b]`` (``n <= cutoff`` per
mode).  Each element of the chain conserves a photon-number combination even
after truncation, so its unitary is exactly a direct sum of small blocks:

* the squeezer ``g (a^dag b^dag - a b)`` conserves ``n_a - n_b``: one block
  per diagonal of ``psi``;
* the balanced coupler conserves ``n_a + n_b``: one block per anti-diagonal;
* the Dove-prism rotation is a phase on each row.

The ``2 cutoff + 1`` blocks of an element, each at most ``cutoff + 1`` square,
are zero-padded into one stack; a padded slot exponentiates to the identity
and carries no amplitude.  Every block generator, and the single-mode
displacement ``|alpha| (a^dag - a)``, is a real antisymmetric tridiagonal
ladder matrix, which is ``-i J`` for a real symmetric tridiagonal J up to a
diagonal phase change.  So one batched ``numpy.linalg.eigh`` of the J stack
exponentiates them all in real arithmetic (``_ladder_exp``).  This is the same
truncated operator as the dense ``(cutoff+1)^2``-square ``expm`` (the test
suite keeps that route as its reference), not an approximation.  Homodyne
moments are read directly from ``psi``.  The oracle shares nothing with the
phase-space engine it checks.

Reliability gauge: the probability sitting on the top two Fock layers of
either mode ("tail mass").  A state whose tail mass reaches
``DEFAULT_TAIL_TOLERANCE`` is flagged unreliable and refuses to report moments.

Cost: an element's block stack holds ``(2 cutoff + 1)(cutoff + 1)^2`` reals.
Measured on one core (one BLAS thread), building one element takes about
14 / 45 / 120 ms at cutoff 40 / 60 / 80, and the cutoff-80 stack is 8.5 MB;
the dense route took 3.9 / 30 / 164 s and about 0.4 GB per operator at 80.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .interferometer import ExperimentConfig

__all__ = [
    "DEFAULT_TAIL_TOLERANCE",
    "CUTOFF_SCHEDULE",
    "UnreliableStateError",
    "BlockUnitary",
    "FockState",
    "OracleReport",
    "opa_unitary",
    "bs_unitary",
    "evolve",
    "moments",
]

DEFAULT_TAIL_TOLERANCE = 1e-8
# automatic escalation path; an explicit cutoff argument bypasses it
CUTOFF_SCHEDULE = (40, 60, 80)


class UnreliableStateError(RuntimeError):
    """Raised when moments are requested from a state with too much tail mass."""


def _ladder_exp(weights: np.ndarray) -> np.ndarray:
    """exp(G) for the real antisymmetric tridiagonal ``G[k+1, k] = w_k =
    -G[k, k+1]``, ``w = weights[..., k]``, batched over the leading axes.

    ``G = D (-i J) D^-1`` with ``D = diag(i^k)`` and J the real symmetric
    tridiagonal matrix with the same weights, so with ``J = V diag(lam) V^T``,
    ``exp(G)[k, l] = i^(k-l) (V cos(lam) V^T - i V sin(lam) V^T)[k, l]``.  J has
    a zero diagonal, so its even functions vanish where ``k - l`` is odd and its
    odd functions where it is even: ``exp(G)`` is ``V cos(lam) V^T`` where
    ``k - l`` is even and ``V sin(lam) V^T`` where it is odd, signed +, +, -, -
    for ``(k - l) mod 4 = 0, 1, 2, 3``.  Returns a C-contiguous real array.
    """
    dim = weights.shape[-1] + 1
    j = np.zeros(weights.shape[:-1] + (dim, dim))
    k = np.arange(dim - 1)
    j[..., k + 1, k] = weights
    j[..., k, k + 1] = weights
    lam, v = np.linalg.eigh(j)
    vt = np.swapaxes(v, -1, -2)
    cos = (v * np.cos(lam)[..., None, :]) @ vt
    sin = (v * np.sin(lam)[..., None, :]) @ vt
    offset = np.subtract.outer(np.arange(dim), np.arange(dim)) % 4
    return np.where(offset % 2 == 0, cos, sin) * np.where(offset < 2, 1.0, -1.0)


@dataclass(frozen=True)
class BlockUnitary:
    """A two-mode unitary stored as the direct sum of its invariant blocks.

    ``blocks[k]`` acts on the amplitudes at flat indices ``index[k]`` of the
    raveled ``psi``; a padded slot has index ``(cutoff+1)^2`` and an identity
    row and column in its block.  Both generators in the chain are real and
    antisymmetric, so the blocks are real orthogonal matrices.
    """

    blocks: np.ndarray
    index: np.ndarray

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """The unitary applied to the amplitude matrix ``psi`` (same shape)."""
        padded = np.append(psi.ravel(), 0.0)[self.index]
        # real blocks times the real and imaginary parts in one batched matmul
        pair = self.blocks @ np.stack((padded.real, padded.imag), axis=-1)
        out = np.empty(psi.size + 1, dtype=complex)
        out[self.index] = pair[..., 0] + 1j * pair[..., 1]
        return out[:-1].reshape(psi.shape)


def _block_unitary(cutoff: int, conserve_total: bool, strength: float) -> BlockUnitary:
    """exp(strength * G) for one of the two ladder generators, block by block.

    ``conserve_total=False``: ``G = a^dag b^dag - a b``, blocks of fixed
    ``n_a - n_b`` stepped by ``(n_a, n_b) -> (n_a + 1, n_b + 1)`` with matrix
    element ``sqrt((n_a + 1)(n_b + 1))``.  ``conserve_total=True``:
    ``G = a^dag b - a b^dag``, blocks of fixed ``n_a + n_b`` stepped by
    ``(n_a, n_b) -> (n_a + 1, n_b - 1)`` with ``sqrt((n_a + 1) n_b)``.
    """
    dim = cutoff + 1
    label = np.arange(2 * cutoff + 1)[:, None]
    step = np.arange(dim)[None, :]
    n_a = step + np.maximum(label - cutoff, 0)
    if conserve_total:
        n_b = label - n_a
        raised = n_b
    else:
        n_b = step + np.maximum(cutoff - label, 0)
        raised = n_b + 1
    valid = (n_a <= cutoff) & (n_b >= 0) & (n_b <= cutoff)
    index = np.where(valid, n_a * dim + n_b, dim * dim)
    linked = valid[:, :-1] & valid[:, 1:]
    weight = np.sqrt(np.where(linked, (n_a[:, :-1] + 1) * raised[:, :-1], 0))
    blocks = _ladder_exp(strength * weight)
    blocks.flags.writeable = False
    index.flags.writeable = False
    return BlockUnitary(blocks=blocks, index=index)


@lru_cache(maxsize=6)
def opa_unitary(g: float, cutoff: int) -> BlockUnitary:
    """exp(g (a^dag b^dag - a b)): two-mode squeezer matching
    ``A = a cosh g + b^dag sinh g`` in the Heisenberg picture."""
    return _block_unitary(cutoff, conserve_total=False, strength=g)


@lru_cache(maxsize=4)
def bs_unitary(cutoff: int) -> BlockUnitary:
    """exp(pi/4 (a^dag b - a b^dag)): the balanced coupler
    ``a -> (a + b)/sqrt2``, ``b -> (b - a)/sqrt2``."""
    return _block_unitary(cutoff, conserve_total=True, strength=math.pi / 4.0)


@lru_cache(maxsize=16)
def _displacement_column(magnitude: float, cutoff: int) -> np.ndarray:
    """D(|alpha|)|0> for a single mode (first column of the displacement
    unitary); the phase of alpha is the rotation ``e^{i theta n}`` applied to it."""
    # a^dag - a steps n -> n + 1 with sqrt(n + 1)
    col = _ladder_exp(magnitude * np.sqrt(np.arange(1.0, cutoff + 1)))[:, 0].copy()
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
    # psi[n_a, n_b]: displaced vacuum in mode A, vacuum in mode B
    psi = np.zeros((dim, dim), dtype=complex)
    n = np.arange(dim)
    psi[:, 0] = np.exp(1j * config.theta * n) * _displacement_column(config.alpha_mag, cutoff)
    psi = opa_unitary(config.g, cutoff).apply(psi)
    psi *= np.exp(1j * 2.0 * config.ell * config.phi * n)[:, None]
    psi = bs_unitary(cutoff).apply(psi)
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
    ``reliable == False``.  An explicit cutoff is used as given; a cutoff
    below 2 raises ValueError.  Only the lossless chain is covered (loss
    validation goes through the exact scaling laws against the phase-space
    engine instead).
    """
    if config.transmissivity != 1.0:
        raise ValueError("the Fock validator covers the lossless chain only")
    schedule = (cutoff,) if cutoff is not None else tuple(cutoff_schedule)
    if not schedule:
        raise ValueError("cutoff schedule is empty")
    schedule = tuple(int(c) for c in schedule)
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
