"""Reference routes the tests check the package against: the dense Fock
operators, a direct loss channel, a brute-force optimum scan, and the
asymptotic and SU(1,1) sensitivity forms.  None of them is on the package's
product path."""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from oam_interferometry import GaussianState, omega
from oam_interferometry.fock_oracle import BlockUnitary

_TWO_SQRT2 = 2.0 * math.sqrt(2.0)


# --- dense Fock operators ------------------------------------------------------


def annihilation(cutoff: int) -> np.ndarray:
    """Single-mode annihilation operator: ``a[n-1, n] = sqrt(n)``."""
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    dim = cutoff + 1
    a = np.zeros((dim, dim))
    idx = np.arange(1, dim)
    a[idx - 1, idx] = np.sqrt(idx)
    return a


@dataclass(frozen=True)
class TwoModeOperators:
    """Dense two-mode ladder operators, modes embedded by tensor product.

    ``a`` acts on the first tensor factor (mode A), ``b`` on the second; both
    are real, so the creation operators are plain transposes.
    """

    cutoff: int
    a: np.ndarray
    b: np.ndarray

    def total_number_diagonal(self) -> np.ndarray:
        n = np.arange(self.cutoff + 1)
        return np.add.outer(n, n).ravel().astype(float)


def build_operators(cutoff: int) -> TwoModeOperators:
    """Dense two-mode ladder operators at the given per-mode cutoff."""
    a1 = annihilation(cutoff)
    eye = np.eye(cutoff + 1)
    return TwoModeOperators(cutoff=cutoff, a=np.kron(a1, eye), b=np.kron(eye, a1))


def repeated(unitary: BlockUnitary, times: int) -> BlockUnitary:
    """``unitary`` applied ``times`` times, as one blocked unitary: the balanced
    coupler repeated three times is exp(3 pi/4 (a^dag b - a b^dag))."""
    return BlockUnitary(np.linalg.matrix_power(unitary.blocks, times), unitary.index)


# --- direct loss channel -------------------------------------------------------


@dataclass(frozen=True)
class LossChannel:
    """Pure-loss channel with one transmissivity shared by the lossy modes."""

    transmissivity: float

    def __post_init__(self) -> None:
        t = float(self.transmissivity)
        if not math.isfinite(t) or not 0.0 <= t <= 1.0:
            raise ValueError("transmissivity must lie in [0, 1]")
        object.__setattr__(self, "transmissivity", t)


def apply_loss(channel: LossChannel, state: GaussianState, modes: Sequence[int]) -> GaussianState:
    """Attenuate the given modes directly: means scale by sqrt(T), variances
    relax toward vacuum as ``T cov + (1 - T)``.

    Closed-form equivalent of a virtual beam splitter against vacuum followed
    by tracing the environment out, the route the engine takes.
    """
    modes = tuple(int(m) for m in modes)
    if any(m < 0 or m >= state.mode_count for m in modes):
        raise ValueError("loss mode out of range")
    t = channel.transmissivity
    scale = np.ones(2 * state.mode_count)
    add = np.zeros(2 * state.mode_count)
    for m in set(modes):
        scale[2 * m : 2 * m + 2] = math.sqrt(t)
        add[2 * m : 2 * m + 2] = 1.0 - t
    cov = np.outer(scale, scale) * state.cov + np.diag(add)
    return GaussianState(scale * state.mean, cov)


def min_uncertainty_eigenvalue(state: GaussianState) -> float:
    """Smallest eigenvalue of ``cov + i Omega``; >= 0 for a physical state."""
    h = state.cov + 1j * omega(state.mode_count)
    return float(np.min(np.linalg.eigvalsh(h)))


# --- optimum scan and sensitivity forms ----------------------------------------


def grid_min_sensitivity(
    g: float,
    ell: int,
    alpha_mag: float,
    transmissivity: float = 1.0,
    phi_points: int = 4096,
    theta_points: int = 256,
    refine: bool = True,
) -> tuple[float, float, float]:
    """Brute-force minimum of the sensitivity over a (phi, theta) grid.

    Independent check on the analytic optimum: scans one full rotation period
    and one theta turn, optionally zooming once into the best cell.  Returns
    ``(value, phi, theta)``.
    """
    if alpha_mag <= 0.0:
        raise ValueError("alpha_mag must be > 0")
    t = float(transmissivity)

    def scan(phi_lo: float, phi_hi: float, th_lo: float, th_hi: float):
        phis = np.linspace(phi_lo, phi_hi, phi_points)
        thetas = np.linspace(th_lo, th_hi, theta_points)
        noise = np.sqrt(
            t * (math.cosh(2.0 * g) + math.sinh(2.0 * g) * np.cos(2.0 * ell * phis) - 1.0)
            + 1.0
        )
        slope = np.abs(np.sin(thetas[None, :] + 2.0 * ell * phis[:, None]))
        denom = t * _TWO_SQRT2 * ell * math.cosh(g) * alpha_mag * slope
        with np.errstate(divide="ignore"):
            vals = noise[:, None] / denom
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        value = float(vals[i, j])
        return value, float(phis[i]), float(thetas[j]), phis[1] - phis[0], thetas[1] - thetas[0]

    period = math.pi / ell
    best, phi_best, th_best, dphi, dth = scan(0.0, period, 0.0, 2.0 * math.pi)
    if refine:
        zoomed = scan(
            phi_best - 2 * dphi, phi_best + 2 * dphi, th_best - 2 * dth, th_best + 2 * dth
        )
        if zoomed[0] < best:
            best, phi_best, th_best = zoomed[0], zoomed[1], zoomed[2]
    return best, phi_best, th_best


def optimal_sensitivity_asymptotic(g: float, ell: int, alpha_mag: float) -> float:
    """Large-gain, bright-input approximation of the optimal sensitivity:
    ``1 / (4 l cosh g sqrt(cosh 2g) |alpha|)``.

    Intended for ``|alpha|^2 >> 1`` and ``sinh^2 g >> 1``; evaluated as given
    for any input.
    """
    if alpha_mag <= 0.0:
        raise ValueError("alpha_mag must be > 0")
    return 1.0 / (4.0 * ell * math.cosh(g) * math.sqrt(math.cosh(2.0 * g)) * alpha_mag)


def su11_phase_sensitivity(g: float, alpha_mag: float) -> float:
    """Phase sensitivity of an SU(1,1) interferometer seeded with a coherent
    state and vacuum: ``1 / (sqrt(N_opa (N_opa + 2)) |alpha|)`` with
    ``N_opa = 2 sinh^2 g``."""
    if alpha_mag <= 0.0:
        raise ValueError("alpha_mag must be > 0")
    n_opa = 2.0 * math.sinh(g) ** 2
    return 1.0 / (math.sqrt(n_opa * (n_opa + 2.0)) * alpha_mag)


def hybrid_phase_sensitivity(g: float, alpha_mag: float) -> float:
    """Asymptotic optimal sensitivity of the hybrid interferometer when the
    estimated phase enters once (no OAM lever arm doubling it):
    ``1 / (2 cosh g sqrt(cosh 2g) |alpha|)``.

    The ratio of the SU(1,1) value to this one tends to sqrt(2) at large gain,
    which is the gain-for-gain advantage of swapping the second amplifier for
    a balanced coupler.
    """
    if alpha_mag <= 0.0:
        raise ValueError("alpha_mag must be > 0")
    return 1.0 / (2.0 * math.cosh(g) * math.sqrt(math.cosh(2.0 * g)) * alpha_mag)
