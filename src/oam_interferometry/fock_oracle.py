"""Brute-force validator in a truncated two-mode Fock space.

The state is the amplitude matrix ``psi[n_a, n_b]`` (``n <= cutoff`` per
mode) ahead of the output coupler.  Each truncated element conserves a
photon-number combination, so its unitary is exactly a direct sum of small
blocks:

* the squeezer ``g (a^dag b^dag - a b)`` conserves ``d = n_a - n_b``: one
  block per diagonal of ``psi``.  Mode B enters in vacuum, so block ``d``
  meets one amplitude, at ``|d, 0>``, and only that column is kept;
* the phase of alpha, ``e^{i theta n}`` on the input mode, is the phase
  ``e^{i theta d}`` on diagonal d after the squeezer, and the Dove-prism
  rotation is ``e^{i 2 l phi n_a}`` on each row.

So ``psi = e^{i (theta + 2 l phi) n_a} e^{-i theta n_b} psi0``, where the real
state psi0 depends on (g, |alpha|, cutoff) alone: every point with the same
gain and amplitude shares one psi0, cached read-only with its tail mass and
its expectations of the truncated monomials a, b, a^2, b^2, ab, a^dag b,
a^dag a, a a^dag, b^dag b and b b^dag.  The truncated ladders obey
``e^{-i t n} a e^{i t n} = e^{i t} a`` exactly, so each moment is a sum of
those expectations times cosines of the two phases.  The balanced coupler is
linear, ``a -> (a + b)/sqrt2``, so the homodyne quadrature after it is
``X_out = (X_A + X_B)/sqrt2`` read on ``psi``, and the photon number, which
the coupler conserves, is read on ``psi`` as well; the coupler is never
built.  The squeezer's block columns, and the single-mode displacement
``|alpha| (a^dag - a)``, are column 0 of the exponential of a real
antisymmetric tridiagonal ladder matrix, which is ``-i J`` for a real
symmetric tridiagonal J up to a diagonal phase change.  J is the gain g, or
|alpha|, times a unit matrix fixed by the cutoff, so ``numpy.linalg.eigh``
decomposes each unit matrix once per cutoff and every gain or amplitude
after that is one real matrix-vector product per block
(``_ladder_basis``).  This is the same truncated operator as the
dense ``(cutoff+1)^2``-square ``expm`` (the test suite keeps that route, the
chain through the coupler's blocks, and the dense read of the complex state,
as its references), not an approximation.  The oracle shares nothing with
the phase-space engine it checks.

Reliability gauge: the probability sitting on the top two Fock layers of
either mode ("tail mass").  A state whose tail mass reaches
``DEFAULT_TAIL_TOLERANCE`` is flagged unreliable and refuses to report moments.

Cost: per cutoff c, the squeezer's eigenbasis holds (c + 1)^3 reals (0.55,
4.3 and 14 MB at cutoff 40, 80 and 120), built one block at a time so that a
cold build holds little more than what it keeps; each gain's columns then
hold (c + 1)^2 reals, the displacement one column, and each psi0 one
(c + 1)^2 real matrix, read by a few passes once per (g, |alpha|, cutoff).
Each point after that is a few cosines and no array: ``evolve`` and
``moments`` are O(1) in the cutoff.  ``FockState.amplitudes`` builds the
complex matrix only when read.  The README's "The Fock validator" section
has the measured times and peaks; the dense route took 3.9 / 30 / 164 s at
cutoff 40 / 60 / 80 and 0.4 GB per operator at 80.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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


def _ladder_basis(weights: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The eigenbasis behind column 0 of ``exp(s G_b)`` at any scale s, for the
    real antisymmetric tridiagonal ``G_b[k+1, k] = w_k = -G_b[k, k+1]``, one
    block per weight vector ``w = weights[b]``, zero-padded to the longest.

    ``G = D (-i J) D^-1`` with ``D = diag(i^k)`` and J the real symmetric
    tridiagonal matrix with the same weights, so with ``J = V diag(lam) V^T``,
    ``exp(s G)[k, 0] = i^k (V cos(s lam) V^T - i V sin(s lam) V^T)[k, 0]``.  J
    has a zero diagonal, so its even functions vanish at odd k and its odd
    functions at even k: column 0 is ``V (cos(s lam) * V[0])`` at even k and
    ``V (sin(s lam) * V[0])`` at odd k, signed +, +, -, - for
    ``k mod 4 = 0, 1, 2, 3``.  Returns ``lam`` and ``modes[b, k, j] =
    sign_k V[k, j] V[0, j]``, read-only.  Each block is decomposed alone,
    over its ``len(w) + 1`` levels; the padding stays exactly 0.
    """
    dim = max(len(w) for w in weights) + 1
    sign = np.where(np.arange(dim) % 4 < 2, 1.0, -1.0)[:, None]
    lam = np.zeros((len(weights), dim))
    modes = np.zeros((len(weights), dim, dim))
    for w, lam_b, modes_b in zip(weights, lam, modes):
        size = len(w) + 1
        k = np.arange(size - 1)
        j = np.zeros((size, size))
        j[k + 1, k] = w
        j[k, k + 1] = w
        lam_b[:size], v = np.linalg.eigh(j)
        np.multiply(v * sign[:size], v[0], out=modes_b[:size, :size])
    lam.flags.writeable = modes.flags.writeable = False
    return lam, modes


def _ladder_columns(basis: tuple[np.ndarray, np.ndarray], scale: float) -> np.ndarray:
    """Column 0 of ``exp(scale G_b)`` for every block of ``_ladder_basis``."""
    lam, modes = basis
    phase = scale * lam
    cos = (modes @ np.cos(phase)[..., None])[..., 0]
    sin = (modes @ np.sin(phase)[..., None])[..., 0]
    return np.where(np.arange(lam.shape[-1]) % 2 == 1, sin, cos)


# One entry per cutoff; the schedule has three.
@lru_cache(maxsize=4)
def _squeezer_basis(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    # block d steps (d + k, k) -> (d + k + 1, k + 1) with sqrt((d + k + 1)(k + 1))
    # while d + k < cutoff: level 0 reaches only those cutoff - d + 1 levels
    steps = (np.arange(cutoff - d) for d in range(cutoff + 1))
    return _ladder_basis([np.sqrt((d + k + 1.0) * (k + 1)) for d, k in enumerate(steps)])


@lru_cache(maxsize=4)
def _displacement_basis(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    # a^dag - a steps n -> n + 1 with sqrt(n + 1)
    return _ladder_basis([np.sqrt(np.arange(1.0, cutoff + 1))])


@lru_cache(maxsize=6)
def _squeezed_columns(g: float, cutoff: int) -> np.ndarray:
    """exp(g (a^dag b^dag - a b)) |d, 0> for d = 0 .. cutoff: the two-mode
    squeezer matching ``A = a cosh g + b^dag sinh g`` in the Heisenberg picture.

    Row d is column 0 of the block of fixed ``n_a - n_b = d``, stepped by
    ``(d + k, k) -> (d + k + 1, k + 1)`` with ``g sqrt((d + k + 1)(k + 1))``;
    its entry k is the amplitude at ``(d + k, k)``, 0 where ``d + k > cutoff``.
    """
    columns = _ladder_columns(_squeezer_basis(cutoff), g)
    columns.flags.writeable = False
    return columns


@lru_cache(maxsize=16)
def _displacement_column(magnitude: float, cutoff: int) -> np.ndarray:
    """D(|alpha|)|0> for a single mode (first column of the displacement
    unitary); the phase of alpha is the rotation ``e^{i theta n}`` applied to it."""
    [col] = _ladder_columns(_displacement_basis(cutoff), magnitude)
    col.flags.writeable = False
    return col


class _IndexMaps(NamedTuple):
    """Where each amplitude of psi's lower triangle sits and comes from, built
    once per cutoff and read-only; flat indices run over the raveled
    ``psi[n_a, n_b]``."""

    slots: np.ndarray  # the flat slots n_a * dim + n_b of psi's lower triangle
    sources: np.ndarray  # each slot's flat source d * dim + n_b in the squeezer columns
    diagonal: np.ndarray  # each slot's d = n_a - n_b


@lru_cache(maxsize=4)
def _index_maps(cutoff: int) -> _IndexMaps:
    dim = cutoff + 1
    n_a, n_b = np.tril_indices(dim)
    diagonal = n_a - n_b
    maps = _IndexMaps(n_a * dim + n_b, diagonal * dim + n_b, diagonal)
    for array in maps:
        array.flags.writeable = False
    return maps


def _lowered(psi: np.ndarray, axis: int) -> np.ndarray:
    """``a psi`` for the mode whose Fock index runs along ``axis`` of
    ``psi[n_a, n_b]``: the truncated ladder ``a[n-1, n] = sqrt(n)``, which
    leaves the top level empty."""
    root = np.sqrt(np.arange(1.0, len(psi)))
    out = np.zeros_like(psi)
    if axis == 0:
        out[:-1] = root[:, None] * psi[1:]
    else:
        out[:, :-1] = root * psi[:, 1:]
    return out


class _RealState(NamedTuple):
    """The state ahead of the rotations for one (g, |alpha|, cutoff): the
    normalised real ``psi[n_a, n_b]`` (read-only), its tail mass, and its
    expectations of the truncated monomials that ``moments`` reads."""

    psi: np.ndarray
    tail_mass: float
    a: float
    b: float
    aa: float
    bb: float
    ab: float
    adag_b: float
    adag_a: float
    a_adag: float
    bdag_b: float
    b_bdag: float


# Every point with the same gain and amplitude shares one entry; 32 entries
# hold at most 0.43 MB at cutoff 40 and 1.7 MB at 80.
@lru_cache(maxsize=32)
def _real_state(g: float, magnitude: float, cutoff: int) -> _RealState:
    dim = cutoff + 1
    maps = _index_maps(cutoff)
    # displaced vacuum |d, 0>, each squeezed along its diagonal: entry (d, k)
    # of the columns is the amplitude at (d + k, k) of psi[n_a, n_b]
    flat = np.zeros(dim * dim)
    flat[maps.slots] = _squeezed_columns(g, cutoff).take(maps.sources) * _displacement_column(
        magnitude, cutoff
    ).take(maps.diagonal)
    flat /= math.sqrt(flat.dot(flat))
    psi = flat.reshape(dim, dim)
    psi.flags.writeable = False
    probs = psi * psi
    rows, columns = probs.sum(axis=1), probs.sum(axis=0)
    n = np.arange(dim)
    a_psi, b_psi = _lowered(psi, 0), _lowered(psi, 1)
    return _RealState(
        psi=psi,
        tail_mass=float(max(1.0 - probs[: cutoff - 1, : cutoff - 1].sum(), 0.0)),
        a=float(np.vdot(psi, a_psi)),
        b=float(np.vdot(psi, b_psi)),
        aa=float(np.vdot(psi, _lowered(a_psi, 0))),
        bb=float(np.vdot(psi, _lowered(b_psi, 1))),
        ab=float(np.vdot(psi, _lowered(b_psi, 0))),
        adag_b=float(np.vdot(a_psi, b_psi)),
        adag_a=float(n @ rows),
        # |a^dag psi|^2: the truncated a^dag drops the top level
        a_adag=float(n[1:] @ rows[:-1]),
        bdag_b=float(n @ columns),
        b_bdag=float(n[1:] @ columns[:-1]),
    )


@dataclass(frozen=True)
class FockState:
    """Normalised truncated two-mode state ahead of the output coupler: the
    real state of its (g, |alpha|, cutoff), shared by every point with those
    values, rotated by ``e^{i theta (n_a - n_b)} e^{i rotation n_a}``, where
    ``rotation = 2 l phi``."""

    cutoff: int
    real: _RealState
    theta: float
    rotation: float

    @property
    def tail_mass(self) -> float:
        return self.real.tail_mass

    @property
    def reliable(self) -> bool:
        return self.tail_mass < DEFAULT_TAIL_TOLERANCE

    @property
    def amplitudes(self) -> np.ndarray:
        """The raveled complex ``psi[n_a, n_b]``, built on each read and
        read-only: ``e^{i theta d}`` per diagonal, then ``e^{i rotation n_a}``
        per row."""
        dim = self.cutoff + 1
        maps = _index_maps(self.cutoff)
        n = np.arange(dim)
        flat = np.zeros(dim * dim, dtype=complex)
        flat[maps.slots] = self.real.psi.take(maps.slots) * np.exp(1j * self.theta * n)[maps.diagonal]
        flat.reshape(dim, dim)[...] *= np.exp(1j * self.rotation * n)[:, None]
        flat.flags.writeable = False
        return flat


@dataclass(frozen=True)
class OracleReport:
    """Homodyne moments after the coupler and the photon number, read from
    the truncated state ahead of it."""

    x_mean: float
    x_second_moment: float
    photon_number: float
    cutoff_used: int
    tail_mass: float


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
    is not an integer or is below 2, or a schedule that does not strictly
    increase, raises ValueError.  Only the lossless chain
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
    if any(lo >= hi for lo, hi in zip(schedule, schedule[1:])):
        raise ValueError(f"cutoff schedule must strictly increase, got {schedule!r}")
    rotation = 2.0 * config.ell * config.phi
    state = None
    for c in schedule:
        state = FockState(c, _real_state(config.g, config.alpha_mag, c), config.theta, rotation)
        if state.reliable:
            return state
    return state


def moments(state: FockState) -> OracleReport:
    """<X_A>, <X_A^2> after the coupler, and the total photon number; raises
    UnreliableStateError when the state's tail mass reaches DEFAULT_TAIL_TOLERANCE.

    The coupler sends ``a -> (a + b)/sqrt2``, so the homodyne quadrature is
    ``X_out = (X_A + X_B)/sqrt2`` on the state ahead of it, and it conserves
    ``n_a + n_b``.  That state is ``e^{i t_a n_a} e^{i t_b n_b}`` times the
    real state, with ``t_a = theta + 2 l phi`` and ``t_b = -theta``, and the
    truncated ladders obey ``e^{-i t n} a e^{i t n} = e^{i t} a`` exactly, so
    each moment is a sum of the real state's expectations times cosines:
    ``<X_out> = sqrt2 (cos t_a <a> + cos t_b <b>)`` and ``<X_out^2> =
    cos 2t_a <a^2> + cos 2t_b <b^2> + (<a^dag a> + <a a^dag> + <b^dag b> +
    <b b^dag>)/2 + 2 cos(t_a + t_b) <ab> + 2 cos(t_a - t_b) <a^dag b>``.
    """
    if not state.reliable:
        raise UnreliableStateError(
            f"tail mass {state.tail_mass:.3e} exceeds tolerance {DEFAULT_TAIL_TOLERANCE:.1e}"
        )
    real, theta, rotation = state.real, state.theta, state.rotation
    angle_a = theta + rotation
    x_mean = math.sqrt(2.0) * (math.cos(angle_a) * real.a + math.cos(theta) * real.b)
    x_second = (
        math.cos(2.0 * angle_a) * real.aa
        + math.cos(2.0 * theta) * real.bb
        + 0.5 * (real.adag_a + real.a_adag + real.bdag_b + real.b_bdag)
        + 2.0 * math.cos(rotation) * real.ab
        + 2.0 * math.cos(angle_a + theta) * real.adag_b
    )
    return OracleReport(
        x_mean=x_mean,
        x_second_moment=x_second,
        photon_number=real.adag_a + real.bdag_b,
        cutoff_used=state.cutoff,
        tail_mass=state.tail_mass,
    )
