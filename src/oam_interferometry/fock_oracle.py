"""Brute-force validator in a truncated two-mode Fock space.

The state is the amplitude matrix ``psi[n_a, n_b]`` (``n <= cutoff`` per
mode) ahead of the output coupler, built from the untruncated chain's known
Fock expansion:

* the displaced vacuum ``D(|alpha|)|0>`` has amplitude
  ``c_d = e^{-|alpha|^2/2} |alpha|^d / sqrt(d!)`` at ``|d, 0>``; mode B
  enters in vacuum;
* the squeezer ``exp(g (a^dag b^dag - a b))`` conserves ``d = n_a - n_b`` and
  sends ``|d, 0>`` along diagonal d, with the SU(1,1) amplitude
  ``s_{d,k} = cosh^{-(d+1)} g tanh^k g sqrt(C(d+k, k))`` at ``(d + k, k)``
  (Perelomov, *Generalized Coherent States*, 1986; Gerry & Knight,
  *Introductory Quantum Optics*, 2005);
* the phase of alpha, ``e^{i theta n}`` on the input mode, is the phase
  ``e^{i theta d}`` on diagonal d after the squeezer, and the Dove-prism
  rotation is ``e^{i 2 l phi n_a}`` on each row.

So ``psi = e^{i (theta + 2 l phi) n_a} e^{-i theta n_b} psi0`` with the real
``psi0[d + k, k] = c_d s_{d,k}``, cut to the box and normalised there.  The
amplitudes are exponentials of sums built from one cumulative table of
``log n!``, so a bright or strongly squeezed input underflows to 0 instead of
overflowing.  psi0 depends on (g, |alpha|, cutoff) alone: every point with
the same gain and amplitude shares one psi0, cached read-only with its tail
mass and its expectations of the truncated monomials a, b, a^2, b^2, ab,
a^dag b, a^dag a, a a^dag, b^dag b and b b^dag.  The truncated ladders obey
``e^{-i t n} a e^{i t n} = e^{i t} a`` exactly, so each moment is a sum of
those expectations times cosines of the two phases.  The balanced coupler is
linear, ``a -> (a + b)/sqrt2``, so the homodyne quadrature after it is
``X_out = (X_A + X_B)/sqrt2`` read on ``psi``, and the photon number, which
the coupler conserves, is read on ``psi`` as well; the coupler is never
built.  The oracle shares nothing with the phase-space engine it checks, nor
with the Heisenberg-picture algebra behind the closed forms.  The test suite
pins psi0 against the truncated operators' exponentials at cutoffs where
they have converged, and keeps the chain through the coupler's blocks and
the dense read of the complex state as references.

Reliability gauge ("tail mass"): the exact probability outside the inner
``(cutoff - 1)^2`` box, one minus the mass of the unnormalised amplitudes on
it.  That is the mass on the box's top two Fock layers of either mode plus
the mass the box drops.  A state whose tail mass reaches
``DEFAULT_TAIL_TOLERANCE`` is flagged unreliable and refuses to report
moments; one whose every amplitude underflows reads a tail mass of 1.

Cost: each psi0 is one (c + 1)^2 real matrix, built and read by a few passes
once per (g, |alpha|, cutoff), with no per-cutoff state.  Each point after
that is a few cosines and no array: ``evolve`` and ``moments`` are O(1) in
the cutoff.  ``FockState.amplitudes`` builds the complex matrix only when
read.  The README's "The Fock validator" section has the measured times and
peaks.
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


def _log_powers(x: float, dim: int) -> np.ndarray:
    """``n log x`` for n = 0 .. dim - 1, whose exponential is ``x^n`` with
    ``0^0 = 1``: -inf from n = 1 on where x is 0."""
    log_x = math.log(x) if x > 0.0 else -math.inf
    return np.concatenate(([0.0], log_x * np.arange(1.0, dim)))


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
    n = np.arange(dim)
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(n[1:]))))
    log_cosh = g + math.log1p(math.exp(-2.0 * g)) - math.log(2.0)
    # log(c_d s_{d,k}) at (n_a, n_b) = (d + k, k) splits into a term in d, one
    # in n_a and one in n_b: d log(|alpha| / cosh g) - log d!, then
    # log(n_a!)/2 - |alpha|^2/2 - log cosh g, then n_b log tanh g - log(n_b!)/2
    per_d = _log_powers(magnitude, dim) - n * log_cosh - log_factorial
    per_a = 0.5 * log_factorial - 0.5 * magnitude * magnitude - log_cosh
    per_b = _log_powers(math.tanh(g), dim) - 0.5 * log_factorial
    # row n_a of the sliding view over [-inf] * cutoff + per_d, reversed, reads
    # per_d[n_a - n_b], and -inf above the diagonal, where psi holds nothing
    padded = np.concatenate((np.full(cutoff, -np.inf), per_d))
    exponent = np.lib.stride_tricks.sliding_window_view(padded, dim)[:, ::-1] + per_a[:, None]
    exponent += per_b
    psi = np.exp(exponent, out=exponent)
    probs = psi * psi
    # the exact mass outside the inner box, read before the box is
    # normalised; a state whose every amplitude underflows reads 1 and stays 0
    tail_mass = max(1.0 - float(probs[: cutoff - 1, : cutoff - 1].sum()), 0.0)
    total = float(probs.sum())
    if total > 0.0:
        psi /= math.sqrt(total)
        probs /= total
    psi.flags.writeable = False
    rows, columns = probs.sum(axis=1), probs.sum(axis=0)
    a_psi, b_psi = _lowered(psi, 0), _lowered(psi, 1)
    return _RealState(
        psi=psi,
        tail_mass=tail_mass,
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
        n = np.arange(self.cutoff + 1)
        # e^{i theta d} on diagonal d = n_a - n_b; the upper triangle holds 0
        psi = self.real.psi * np.exp(1j * self.theta * np.subtract.outer(n, n))
        psi *= np.exp(1j * self.rotation * n)[:, None]
        flat = psi.ravel()
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
