"""Reference routes the tests check the package against: the dense Fock
operators, the dense-state blocked unitary, the one-shot ladder exponential,
the displacement column, the general blocked squeezer and the balanced
coupler's blocks built on it, the truncated-operator chain up to the coupler,
the homodyne read after the coupler's blocks, the dense read
of a state ahead of the coupler, a direct loss
channel, a brute-force optimum scan, the optimal sensitivity in plain
``math``, and the asymptotic and SU(1,1) sensitivity forms.  None of them is
on the package's product path."""

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from oam_interferometry import ExperimentConfig, GaussianState, omega

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


def apply_blocked(blocks: np.ndarray, index: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Real ``blocks`` applied to each amplitude matrix ``psi[..., n_a, n_b]``:
    ``blocks[k]`` acts on flat indices ``index[k]`` of the raveled matrix.
    A block's padded slots, index ``(cutoff+1)^2``, come after its own and
    are skipped.  The raveled matrices stand side by side as columns, so each
    block is one real product over the real and imaginary parts of them all."""
    columns = np.array(psi.reshape(-1, psi.shape[-2] * psi.shape[-1]).T, dtype=complex)
    out = np.zeros_like(columns)
    for block, slots in zip(blocks, index):
        slots = slots[slots < len(columns)]
        size = len(slots)
        out[slots] = (block[:size, :size] @ columns[slots].view(float)).view(complex)
    return out.T.reshape(psi.shape)


def ladder_eigh(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of the real symmetric tridiagonal J with the off-diagonal
    ``weights[..., k]``, every block in one batched call."""
    dim = weights.shape[-1] + 1
    j = np.zeros(weights.shape[:-1] + (dim, dim))
    k = np.arange(dim - 1)
    j[..., k + 1, k] = weights
    j[..., k, k + 1] = weights
    return np.linalg.eigh(j)


def ladder_exp(lam: np.ndarray, v: np.ndarray) -> np.ndarray:
    """exp(G) for the real antisymmetric tridiagonal ``G[k+1, k] = w_k =
    -G[k, k+1]``, from the ``ladder_eigh`` of its weights: ``G = D (-i J)
    D^-1`` with ``D = diag(i^k)``, so ``exp(G)`` is ``V cos(lam) V^T`` at even
    and ``V sin(lam) V^T`` at odd ``k - l``, signed ``+, +, -, -`` for
    ``(k - l) mod 4 = 0, 1, 2, 3``.  Scaling ``lam`` by s gives exp(s G)."""
    level = np.arange(lam.shape[-1])
    vt = np.swapaxes(v, -1, -2)
    cos = (v * np.cos(lam)[..., None, :]) @ vt
    sin = (v * np.sin(lam)[..., None, :]) @ vt
    offset = np.subtract.outer(level, level) % 4
    return np.where(offset % 2 == 0, cos, sin) * np.where(offset < 2, 1.0, -1.0)


def ladder_exp_one_shot(weights: np.ndarray) -> np.ndarray:
    """exp(G) for the real antisymmetric tridiagonal ``G[k+1, k] = w_k =
    -G[k, k+1]``, ``w = weights[..., k]``, every block in one batched ``eigh``
    and two full-stack products: the truncated operators' exponential, which
    the oracle's closed-form amplitudes are pinned against."""
    return ladder_exp(*ladder_eigh(weights))


@functools.lru_cache(maxsize=4)
def _squeezer_layout(cutoff: int) -> tuple[np.ndarray, list]:
    """The slots of ``squeezer_unitary``'s blocks, and per block size the
    blocks of that size with the ``ladder_eigh`` of their unit weights."""
    dim = cutoff + 1
    label = np.arange(2 * cutoff + 1)[:, None]
    step = np.arange(dim)[None, :]
    n_a = step + np.maximum(label - cutoff, 0)
    n_b = step + np.maximum(cutoff - label, 0)
    valid = (n_a <= cutoff) & (n_b <= cutoff)
    index = np.where(valid, n_a * dim + n_b, dim * dim)
    linked = valid[:, :-1] & valid[:, 1:]
    weight = np.sqrt(np.where(linked, (n_a[:, :-1] + 1) * (n_b[:, :-1] + 1), 0))
    size = valid.sum(axis=1)
    sizes = []
    for levels in range(1, dim + 1):
        same = size == levels
        sizes.append((same, levels, *ladder_eigh(weight[same, : levels - 1])))
    return index, sizes


@functools.lru_cache(maxsize=8)
def squeezer_unitary(g: float, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """exp(g (a^dag b^dag - a b)) on any two-mode input, as ``2 cutoff + 1``
    blocks of fixed ``n_a - n_b`` stepped by ``(n_a, n_b) -> (n_a + 1, n_b + 1)``
    with ``sqrt((n_a + 1)(n_b + 1))``.  Column 0 of the blocks with
    ``n_a >= n_b``, the ones a vacuum mode B meets, tends to the oracle's
    closed-form amplitudes as the cutoff grows.  Block ``n_a - n_b = L -
    cutoff`` links only its first ``cutoff + 1 - |L - cutoff|`` levels, so
    each size is exponentiated apart, from one ``eigh`` per cutoff scaled by
    g, and the padding is left as identity."""
    dim = cutoff + 1
    index, sizes = _squeezer_layout(cutoff)
    blocks = np.zeros((2 * cutoff + 1, dim, dim))
    blocks[:] = np.eye(dim)
    for same, levels, lam, v in sizes:
        blocks[same, :levels, :levels] = ladder_exp(g * lam, v)
    return blocks, index


@functools.lru_cache(maxsize=4)
def bs_unitary(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """exp(pi/4 (a^dag b - a b^dag)): the balanced coupler
    ``a -> (a + b)/sqrt2``, ``b -> (b - a)/sqrt2``, as ``2 cutoff + 1`` blocks
    of fixed ``n_a + n_b`` stepped by ``(n_a, n_b) -> (n_a + 1, n_b - 1)`` with
    ``sqrt((n_a + 1) n_b)``."""
    dim = cutoff + 1
    total = np.arange(2 * cutoff + 1)[:, None]
    n_a = np.arange(dim)[None, :] + np.maximum(total - cutoff, 0)
    n_b = total - n_a
    valid = (n_a <= cutoff) & (n_b >= 0)
    index = np.where(valid, n_a * dim + n_b, dim * dim)
    linked = valid[:, :-1] & valid[:, 1:]
    weight = np.sqrt(np.where(linked, (n_a[:, :-1] + 1) * n_b[:, :-1], 0))
    return ladder_exp_one_shot(math.pi / 4.0 * weight), index


@functools.lru_cache(maxsize=64)
def displacement_column(magnitude: float, cutoff: int) -> np.ndarray:
    """D(|alpha|)|0> at ``cutoff``: column 0 of the truncated displacement
    ``exp(|alpha| (a^dag - a))``, whose ladder steps n -> n + 1 with
    ``sqrt(n + 1)``."""
    column = ladder_exp_one_shot(magnitude * np.sqrt(np.arange(1.0, cutoff + 1)))[:, 0]
    column.flags.writeable = False
    return column


def pre_coupler_chain(configs: Sequence[ExperimentConfig], cutoff: int) -> np.ndarray:
    """The normalised amplitude matrices at ``cutoff`` ahead of the coupler,
    one per config, through the truncated operators: the displacement column,
    then the squeezer applied as ``apply_blocked`` to the whole input state."""
    dim = cutoff + 1
    n = np.arange(dim)
    psi = np.zeros((len(configs), dim, dim), dtype=complex)
    for state, config in zip(psi, configs):
        state[:, 0] = np.exp(1j * config.theta * n) * displacement_column(config.alpha_mag, cutoff)
    gains = np.array([config.g for config in configs])
    for g in np.unique(gains):
        psi[gains == g] = apply_blocked(*squeezer_unitary(float(g), cutoff), psi[gains == g])
    for state, config in zip(psi, configs):
        state *= np.exp(1j * 2.0 * config.ell * config.phi * n)[:, None]
        state /= np.linalg.norm(state)
    return psi


def output_moments(psi: np.ndarray) -> np.ndarray:
    """``<X_A>``, ``<X_A^2>`` and the total photon number, one row per
    amplitude matrix ``psi[..., n_a, n_b]`` after the coupler, with
    ``X_A = a + a^dag`` acting on the row index as a banded product."""
    dim = psi.shape[-1]
    root = np.sqrt(np.arange(1, dim))[:, None]
    xpsi = np.zeros_like(psi)
    xpsi[..., :-1, :] = root * psi[..., 1:, :]
    xpsi[..., 1:, :] += root * psi[..., :-1, :]
    n = np.arange(dim)
    axes = (-2, -1)
    return np.stack(
        (
            np.sum(np.real(psi.conj() * xpsi), axis=axes),
            np.sum(np.abs(xpsi) ** 2, axis=axes),
            np.sum(np.add.outer(n, n) * np.abs(psi) ** 2, axis=axes),
        ),
        axis=-1,
    )


def _dense_quadrature(psi: np.ndarray, axis: int) -> np.ndarray:
    """``(a + a^dag) psi`` for the mode whose Fock index runs along ``axis``
    of ``psi[n_a, n_b]``: the banded product with ``sqrt(n)`` off the diagonal.

    On the raveled matrix a step of that index is a shift by ``step`` slots,
    so each product is one contiguous pass.  A one-slot shift of ``n_b`` that
    wraps into the next row meets ``sqrt(0)`` there and adds only zeros."""
    dim = len(psi)
    root = np.sqrt(np.arange(dim)).astype(complex)
    root = np.repeat(root, dim) if axis == 0 else np.tile(root, dim)
    step = dim if axis == 0 else 1
    flat = psi.ravel()
    out = np.empty_like(flat)
    np.multiply(root[step:], flat[step:], out=out[:-step])
    out[-step:] = 0.0
    out[step:] += root[step:] * flat[:-step]
    return out.reshape(psi.shape)


def dense_moments(amplitudes: np.ndarray) -> tuple[float, float, float]:
    """``<X_out>``, ``<X_out^2>`` and the total photon number of the raveled
    complex ``psi[n_a, n_b]`` ahead of the coupler, each read as a pass over
    the whole matrix: ``X_out psi = (X_A + X_B) psi / sqrt2`` through the
    banded quadratures, and ``n_a + n_b`` through the probabilities."""
    dim = math.isqrt(len(amplitudes))
    psi = amplitudes.reshape(dim, dim)
    # sqrt2 X_out psi
    xpsi = _dense_quadrature(psi, 0)
    xpsi += _dense_quadrature(psi, 1)
    x_mean = float(np.real(np.vdot(psi, xpsi))) / math.sqrt(2.0)
    x_second = float(np.real(np.vdot(xpsi, xpsi))) / 2.0
    probs = np.abs(psi) ** 2
    n_total = float(np.arange(dim) @ (probs.sum(axis=0) + probs.sum(axis=1)))
    return x_mean, x_second, n_total


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


def optimal_sensitivity_math(
    g: float, ell: int, alpha_mag: float, transmissivity: float = 1.0
) -> float:
    """The optimal sensitivity in plain ``math``, in the package's order of
    operations: ``sqrt(T (e^-2g - 1) + 1) / (2 sqrt2 T l cosh g |alpha|)``.

    No domain checks; raises OverflowError where cosh g overflows and
    ZeroDivisionError where the denominator underflows to 0.
    """
    noise = transmissivity * (math.exp(-2.0 * g) - 1.0) + 1.0
    return math.sqrt(noise) / (_TWO_SQRT2 * transmissivity * ell * math.cosh(g) * alpha_mag)


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
