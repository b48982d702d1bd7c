"""Balanced-homodyne statistics at output port A, error-propagation
sensitivity, the metrology benchmarks (shot-noise limit, Heisenberg limit,
quantum Cramer-Rao bound), optimal operating points, and loss robustness.

Every closed form here is also reproduced independently by the phase-space
engine (and, at small parameters, by the truncated-Fock validator); the test
suite keeps the two routes in agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .interferometer import ExperimentConfig, mean_photon_number

__all__ = [
    "DERIVATIVE_FLOOR",
    "SensitivityReport",
    "MaxLossResult",
    "homodyne_mean",
    "homodyne_mean_slope",
    "homodyne_mean_lossy",
    "homodyne_second_moment",
    "homodyne_second_moment_lossy",
    "quadrature_fluctuation",
    "quadrature_fluctuation_lossy",
    "sensitivity",
    "sensitivity_lossy",
    "visibility",
    "shot_noise_limit",
    "heisenberg_limit",
    "quantum_cramer_rao_bound",
    "optimal_operating_point",
    "optimal_sensitivity",
    "grid_min_sensitivity",
    "optimal_sensitivity_asymptotic",
    "su11_phase_sensitivity",
    "hybrid_phase_sensitivity",
    "max_allowable_loss",
    "evaluate",
]

# below this slope magnitude the error-propagation ratio is reported as inf
DERIVATIVE_FLOOR = 1e-12

_TWO_SQRT2 = 2.0 * math.sqrt(2.0)


def homodyne_mean(config: ExperimentConfig) -> float:
    """<X_A> of the lossless chain:
    ``sqrt(2) |alpha| [cos(theta + 2 l phi) cosh g + cos(theta) sinh g]``."""
    delta = config.theta + 2.0 * config.ell * config.phi
    return math.sqrt(2.0) * config.alpha_mag * (
        math.cos(delta) * math.cosh(config.g) + math.cos(config.theta) * math.sinh(config.g)
    )


def homodyne_mean_slope(config: ExperimentConfig) -> float:
    """Analytic d<X_A>/dphi of the lossless chain."""
    delta = config.theta + 2.0 * config.ell * config.phi
    return (
        -_TWO_SQRT2
        * config.ell
        * config.alpha_mag
        * math.cosh(config.g)
        * math.sin(delta)
    )


def homodyne_mean_lossy(config: ExperimentConfig) -> float:
    """<X_A> with arm transmissivity T: the lossless mean scaled by sqrt(T)."""
    return math.sqrt(config.transmissivity) * homodyne_mean(config)


def homodyne_second_moment(config: ExperimentConfig) -> float:
    """<X_A^2> of the lossless chain (four-term closed form)."""
    g, ell, theta, phi = config.g, config.ell, config.theta, config.phi
    a2 = config.alpha_mag**2
    ch2, sh2 = math.cosh(2.0 * g), math.sinh(2.0 * g)
    return (
        math.cos(2.0 * theta + 4.0 * ell * phi) * math.cosh(g) ** 2 * a2
        + math.cos(2.0 * theta) * math.sinh(g) ** 2 * a2
        + (ch2 + math.cos(2.0 * ell * phi) * sh2) * (a2 + 1.0)
        + math.cos(2.0 * theta + 2.0 * ell * phi) * sh2 * a2
    )


def homodyne_second_moment_lossy(config: ExperimentConfig) -> float:
    """<X_A^2> with loss: ``T <X_A^2> + (1 - T)``."""
    t = config.transmissivity
    return t * homodyne_second_moment(config) + (1.0 - t)


def _noise_term(config: ExperimentConfig) -> float:
    return math.cosh(2.0 * config.g) + math.sinh(2.0 * config.g) * math.cos(
        2.0 * config.ell * config.phi
    )


def quadrature_fluctuation(config: ExperimentConfig) -> float:
    """Delta X_A = sqrt(<X^2> - <X>^2); independent of theta and |alpha|,
    equal to ``sqrt(cosh 2g + sinh 2g cos(2 l phi))``.

    Evaluated from that closed form: the subtraction of the two moments
    cancels catastrophically for bright inputs.
    """
    return math.sqrt(_noise_term(config))


def quadrature_fluctuation_lossy(config: ExperimentConfig) -> float:
    """Delta X_A with loss: variance relaxes as ``T Var + (1 - T)``."""
    t = config.transmissivity
    return math.sqrt(t * (_noise_term(config) - 1.0) + 1.0)


def sensitivity(config: ExperimentConfig) -> float:
    """Error-propagation estimate Delta phi = Delta X_A / |d<X_A>/dphi|.

    Returns ``inf`` when the slope magnitude is below DERIVATIVE_FLOOR (the
    working point carries no first-order signal), never raises, so sweeps can
    flag divergent points instead of aborting.
    """
    slope = homodyne_mean_slope(config)
    if abs(slope) < DERIVATIVE_FLOOR:
        return math.inf
    return math.sqrt(_noise_term(config)) / abs(slope)


def sensitivity_lossy(config: ExperimentConfig) -> float:
    """Error-propagation sensitivity with arm transmissivity T.

    ``sqrt(T [cosh 2g + sinh 2g cos(2 l phi) - 1] + 1)`` over
    ``2 sqrt2 T l cosh g |alpha sin(theta + 2 l phi)|``; reduces to the
    lossless form at T = 1 and is reported as ``inf`` at T = 0 (total loss)
    or where the slope vanishes.
    """
    t = config.transmissivity
    delta = config.theta + 2.0 * config.ell * config.phi
    denom = (
        t
        * _TWO_SQRT2
        * config.ell
        * math.cosh(config.g)
        * config.alpha_mag
        * abs(math.sin(delta))
    )
    if abs(denom) < DERIVATIVE_FLOOR:
        return math.inf
    return math.sqrt(t * (_noise_term(config) - 1.0) + 1.0) / denom


def visibility(config: ExperimentConfig, samples: int = 2048) -> float:
    """Signal contrast ``(max - min) / (|max| + |min|)`` of <X_A> over a full
    turn of the rotation angle at fixed theta.

    Loss rescales the whole trace by sqrt(T), so the contrast is unaffected.
    """
    if config.alpha_mag <= 0.0:
        raise ValueError("visibility undefined for zero input amplitude")
    ell, theta = config.ell, config.theta
    phis = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    # exact extrema candidates: cos(theta + 2 l phi) = +/-1
    extrema = [
        ((k * math.pi - theta) / (2.0 * ell)) % (2.0 * math.pi) for k in range(4 * ell + 2)
    ]
    phis = np.concatenate([phis, extrema])
    scale = math.sqrt(config.transmissivity) * math.sqrt(2.0) * config.alpha_mag
    means = scale * (
        np.cos(theta + 2.0 * ell * phis) * math.cosh(config.g)
        + math.cos(theta) * math.sinh(config.g)
    )
    hi, lo = float(np.max(means)), float(np.min(means))
    denom = abs(hi) + abs(lo)
    if denom == 0.0:
        raise ValueError("visibility undefined: signal is identically zero")
    return (hi - lo) / denom


def shot_noise_limit(config: ExperimentConfig) -> float:
    """``1 / (2 l sqrt(N))`` with N the lossless mean photon number."""
    n = mean_photon_number(config)
    if n <= 0.0:
        raise ValueError("shot-noise limit undefined for zero photon number")
    return 1.0 / (2.0 * config.ell * math.sqrt(n))


def heisenberg_limit(config: ExperimentConfig) -> float:
    """``1 / (2 l N)`` with N the lossless mean photon number."""
    n = mean_photon_number(config)
    if n <= 0.0:
        raise ValueError("Heisenberg limit undefined for zero photon number")
    return 1.0 / (2.0 * config.ell * n)


def quantum_cramer_rao_bound(config: ExperimentConfig) -> float:
    """Best sensitivity allowed by the probe state's Fisher information:
    ``1 / (2 l sqrt(sinh^2 2g + |alpha|^2 [1 + 2 cosh 2g + cosh 4g]))``."""
    g = config.g
    s = math.sinh(2.0 * g) ** 2 + config.alpha_mag**2 * (
        1.0 + 2.0 * math.cosh(2.0 * g) + math.cosh(4.0 * g)
    )
    if s <= 0.0:
        raise ValueError("bound undefined for the degenerate g = alpha = 0 input")
    return 1.0 / (2.0 * config.ell * math.sqrt(s))


def optimal_operating_point(g: float, ell: int, alpha_mag: float) -> tuple[float, float]:
    """Working point minimising the error-propagation sensitivity.

    Returns ``(phi, theta) = (pi / (2 l), pi / 2)``: the rotation puts the
    noise term at its squeezed minimum (``cos 2 l phi = -1``) while the input
    phase keeps the slope maximal (``theta + 2 l phi = pi/2 mod pi``).  The
    point does not depend on g or |alpha|; they are accepted so callers can
    verify against a grid at the same signature.
    """
    if int(ell) != ell or ell < 1:
        raise ValueError("ell must be a positive integer")
    return math.pi / (2.0 * ell), math.pi / 2.0


def optimal_sensitivity(
    g: float, ell: int, alpha_mag: float, transmissivity: float = 1.0
) -> float:
    """Sensitivity at the optimal working point (closed form).

    Lossless this is ``e^-g / (2 sqrt2 l cosh g |alpha|)``; with loss the
    squeezed noise term ``e^-2g`` relaxes toward the vacuum unit.
    """
    if alpha_mag <= 0.0:
        raise ValueError("alpha_mag must be > 0")
    t = float(transmissivity)
    if not 0.0 < t <= 1.0:
        raise ValueError("transmissivity must lie in (0, 1]")
    noise = t * (math.exp(-2.0 * g) - 1.0) + 1.0
    return math.sqrt(noise) / (_TWO_SQRT2 * t * ell * math.cosh(g) * alpha_mag)


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
    """Asymptotic optimal sensitivity of this hybrid interferometer when the
    estimated phase enters once (no OAM lever arm doubling it):
    ``1 / (2 cosh g sqrt(cosh 2g) |alpha|)``.

    The ratio of the SU(1,1) value to this one tends to sqrt(2) at large gain,
    which is the gain-for-gain advantage of swapping the second amplifier for
    a balanced coupler.
    """
    if alpha_mag <= 0.0:
        raise ValueError("alpha_mag must be > 0")
    return 1.0 / (2.0 * math.cosh(g) * math.sqrt(math.cosh(2.0 * g)) * alpha_mag)


@dataclass(frozen=True)
class MaxLossResult:
    """Outcome of the maximum-allowable-loss search.

    ``loss`` is the largest fraction 1 - T at which the best lossy sensitivity
    still reaches the lossless shot-noise limit; ``sub_snl_exists`` is False
    (and loss 0) when even the lossless optimum cannot beat that limit.
    """

    loss: float
    transmissivity: float
    sub_snl_exists: bool


def max_allowable_loss(
    g: float,
    ell: int,
    alpha_mag: float,
    t_resolution: float = 1e-6,
    grid: int = 2048,
) -> MaxLossResult:
    """Largest loss fraction keeping the optimal sensitivity at or below the
    lossless shot-noise limit, found by bisection on the transmissivity.

    The per-T optimum is the closed form of ``optimal_sensitivity``; when
    ``grid`` > 0 a dense rotation-angle scan confirms the closed form is not
    beaten before the bisection starts.  The optimum must be monotone in T on
    the bracket; a violation raises ArithmeticError.
    """
    if alpha_mag <= 0.0:
        raise ValueError("alpha_mag must be > 0")
    snl = shot_noise_limit(
        ExperimentConfig(g=g, ell=ell, alpha_mag=alpha_mag, theta=0.0, phi=0.0)
    )

    def best(t: float) -> float:
        return optimal_sensitivity(g, ell, alpha_mag, transmissivity=t)

    if grid:
        grid_best, _, _ = grid_min_sensitivity(
            g, ell, alpha_mag, phi_points=grid, theta_points=64, refine=False
        )
        if grid_best < best(1.0) * (1.0 - 1e-9):
            raise ArithmeticError("grid scan found a point below the closed-form optimum")

    if best(1.0) > snl:
        return MaxLossResult(loss=0.0, transmissivity=1.0, sub_snl_exists=False)

    lo = 0.5
    while best(lo) <= snl:
        lo *= 0.5
        if lo < 1e-12:
            raise ArithmeticError("failed to bracket the loss threshold")
    hi = 1.0

    samples = [best(t) for t in np.linspace(lo, hi, 9)]
    if any(b - a > 1e-12 * max(1.0, abs(a)) for a, b in zip(samples, samples[1:])):
        raise ArithmeticError("optimal sensitivity is not monotone on the bracket")

    while hi - lo > t_resolution:
        mid = 0.5 * (lo + hi)
        if best(mid) > snl:
            lo = mid
        else:
            hi = mid
    t_star = 0.5 * (lo + hi)
    return MaxLossResult(loss=1.0 - t_star, transmissivity=t_star, sub_snl_exists=True)


@dataclass(frozen=True)
class SensitivityReport:
    """Homodyne signal, noise, sensitivity, and benchmarks at one working point."""

    signal_mean: float
    fluctuation: float
    sensitivity: float
    snl: float
    hl: float
    qcrb: float
    visibility: float


def evaluate(config: ExperimentConfig) -> SensitivityReport:
    """Assemble the full report for one configuration.

    Signal, fluctuation, and sensitivity honour the config's transmissivity
    (reducing to the lossless forms at T = 1); the benchmarks are the lossless
    references.
    """
    return SensitivityReport(
        signal_mean=homodyne_mean_lossy(config),
        fluctuation=quadrature_fluctuation_lossy(config),
        sensitivity=sensitivity_lossy(config),
        snl=shot_noise_limit(config),
        hl=heisenberg_limit(config),
        qcrb=quantum_cramer_rao_bound(config),
        visibility=visibility(config),
    )
