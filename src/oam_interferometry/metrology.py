"""Balanced-homodyne statistics at output port A, error-propagation
sensitivity, the metrology benchmarks (shot-noise limit, Heisenberg limit,
quantum Cramer-Rao bound), optimal operating points, and loss robustness.

The seven sweep quantities (``signal``, ``sensitivity``,
``sensitivity_lossy``, ``qcrb``, ``snl``, ``hl``, ``visibility``) are each
defined once, as a closed form that broadcasts over numpy arrays of
``(g, ell, alpha_mag, theta, phi, transmissivity)``; ``TABLE`` maps each name
to its function.  The scalar functions of an ``ExperimentConfig`` call the same
definitions, so a sweep row and a direct call agree bit for bit.

Every closed form here is also reproduced independently by the phase-space
engine (and, at small parameters, by the truncated-Fock validator); the test
suite keeps the two routes in agreement.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .interferometer import ExperimentConfig

__all__ = [
    "DERIVATIVE_FLOOR",
    "TABLE",
    "SensitivityReport",
    "MaxLossResult",
    "signal_table",
    "sensitivity_table",
    "sensitivity_lossy_table",
    "qcrb_table",
    "snl_table",
    "hl_table",
    "visibility_table",
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

_SQRT2 = math.sqrt(2.0)
_TWO_SQRT2 = 2.0 * math.sqrt(2.0)


# --- the quantity table -------------------------------------------------------


class _Steps:
    """Shape and failing steps of one table evaluation.

    Where the scalar formula would raise, a table function records the failure
    and goes on; ``result`` then raises at the first failing point in C order
    (the lexicographic order of an open grid) the error the scalar formula
    raises there, with that point's index into the broadcast shape as the
    exception's ``point`` attribute.  Steps are recorded in the order the
    formula takes them, so a point failing in two steps reports the first.
    """

    def __init__(self, *args) -> None:
        shapes = [a.shape for a in args if isinstance(a, np.ndarray)]
        self.shape = np.broadcast_shapes(*shapes) if shapes else ()
        self._checks: list = []

    def libm(self, fn, x, where=True) -> np.ndarray:
        """``fn`` applied to each element of ``x`` as a Python float.

        One-variable factors (hyperbolics, squares) go through ``math``:
        numpy's cosh and sinh differ from libm in the last place on about a
        quarter of inputs, and numpy's ``x**2`` is ``x*x``, not ``pow``.  On an
        open grid ``x`` is one axis, so this costs one call per axis value.  An
        element where ``fn`` raises fails the points it reaches where ``where``
        holds.
        """
        if not isinstance(x, np.ndarray):
            try:
                return np.float64(fn(x))
            except (ArithmeticError, ValueError) as exc:
                self._checks.append((where, exc))
                return np.float64(math.nan)
        flat = x.ravel().tolist()
        values = np.empty(len(flat))
        errors = None
        for i, v in enumerate(flat):
            try:
                values[i] = fn(v)
            except (ArithmeticError, ValueError) as exc:
                values[i] = math.nan
                if errors is None:
                    errors = np.full(len(flat), None, dtype=object)
                errors[i] = exc
        if errors is not None:
            errors = errors.reshape(x.shape)
            self._checks.append((errors.astype(bool) & where, errors))
        return values.reshape(x.shape)

    def fail(self, where, error: Exception) -> None:
        """The formula raises ``error`` at the points where ``where`` holds."""
        self._checks.append((where, error))

    def result(self, value) -> np.ndarray:
        """``value`` broadcast to the full shape, or the first failure raised."""
        if self.shape:
            masks = [np.broadcast_to(where, self.shape) for where, _ in self._checks]
            failed = functools.reduce(np.logical_or, masks, np.zeros(self.shape, bool))
            if not failed.any():
                return np.broadcast_to(value, self.shape)
            point = tuple(int(i) for i in np.unravel_index(int(np.argmax(failed)), self.shape))
            error = next(error for mask, (_, error) in zip(masks, self._checks) if mask[point])
        else:
            error = next((error for where, error in self._checks if where), None)
            if error is None:
                return value
            point = ()
        if isinstance(error, np.ndarray):
            error = np.broadcast_to(error, self.shape)[point]
        exc = type(error)(*error.args)
        exc.point = point
        raise exc


def _square(x: float) -> float:
    return x**2


def _slope(steps: _Steps, g, ell, alpha_mag, theta, phi):
    """d<X_A>/dphi of the lossless chain."""
    delta = theta + 2.0 * ell * phi
    return -_TWO_SQRT2 * ell * alpha_mag * steps.libm(math.cosh, g) * np.sin(delta)


def _noise(steps: _Steps, g, ell, phi, where=True):
    """Var X_A of the lossless chain, ``cosh 2g + sinh 2g cos(2 l phi)``."""
    return steps.libm(lambda x: math.cosh(2.0 * x), g, where) + steps.libm(
        lambda x: math.sinh(2.0 * x), g, where
    ) * np.cos(2.0 * ell * phi)


def _photon_number(steps: _Steps, g, alpha_mag):
    """Mean photon number before any loss, ``cosh(2g) |alpha|^2 + 2 sinh^2 g``
    (as ``interferometer.mean_photon_number``)."""
    return steps.libm(lambda x: math.cosh(2.0 * x), g) * steps.libm(
        _square, alpha_mag
    ) + 2.0 * steps.libm(lambda x: math.sinh(x) ** 2, g)


@np.errstate(all="ignore")
def signal_table(g, ell, alpha_mag, theta, phi, transmissivity):
    """<X_A> with arm transmissivity T:
    ``sqrt(T) sqrt(2) |alpha| [cos(theta + 2 l phi) cosh g + cos(theta) sinh g]``."""
    steps = _Steps(g, ell, alpha_mag, theta, phi, transmissivity)
    delta = theta + 2.0 * ell * phi
    mean = _SQRT2 * alpha_mag * (
        np.cos(delta) * steps.libm(math.cosh, g) + np.cos(theta) * steps.libm(math.sinh, g)
    )
    return steps.result(np.sqrt(transmissivity) * mean)


@np.errstate(all="ignore")
def sensitivity_table(g, ell, alpha_mag, theta, phi, transmissivity):
    """Lossless error-propagation sensitivity ``Delta X_A / |d<X_A>/dphi|``
    (T is ignored); ``inf`` where the slope magnitude is below DERIVATIVE_FLOOR,
    and there the noise term is never evaluated."""
    steps = _Steps(g, ell, alpha_mag, theta, phi, transmissivity)
    slope = np.abs(_slope(steps, g, ell, alpha_mag, theta, phi))
    live = ~(slope < DERIVATIVE_FLOOR)
    noise = _noise(steps, g, ell, phi, where=live)
    return steps.result(np.where(live, np.sqrt(noise) / slope, np.inf))


@np.errstate(all="ignore")
def sensitivity_lossy_table(g, ell, alpha_mag, theta, phi, transmissivity):
    """Error-propagation sensitivity with arm transmissivity T:
    ``sqrt(T [cosh 2g + sinh 2g cos(2 l phi) - 1] + 1)`` over
    ``2 sqrt2 T l cosh g |alpha sin(theta + 2 l phi)|``; ``inf`` where that
    denominator is below DERIVATIVE_FLOOR (T = 0, zero slope)."""
    steps = _Steps(g, ell, alpha_mag, theta, phi, transmissivity)
    delta = theta + 2.0 * ell * phi
    denom = (
        transmissivity
        * _TWO_SQRT2
        * ell
        * steps.libm(math.cosh, g)
        * alpha_mag
        * np.abs(np.sin(delta))
    )
    live = ~(np.abs(denom) < DERIVATIVE_FLOOR)
    noise = _noise(steps, g, ell, phi, where=live)
    value = np.sqrt(transmissivity * (noise - 1.0) + 1.0) / denom
    return steps.result(np.where(live, value, np.inf))


@np.errstate(all="ignore")
def qcrb_table(g, ell, alpha_mag, theta, phi, transmissivity):
    """Quantum Cramer-Rao bound of the probe state:
    ``1 / (2 l sqrt(sinh^2 2g + |alpha|^2 [1 + 2 cosh 2g + cosh 4g]))``."""
    steps = _Steps(g, ell, alpha_mag, theta, phi, transmissivity)
    s = steps.libm(lambda x: math.sinh(2.0 * x) ** 2, g) + steps.libm(_square, alpha_mag) * (
        1.0
        + 2.0 * steps.libm(lambda x: math.cosh(2.0 * x), g)
        + steps.libm(lambda x: math.cosh(4.0 * x), g)
    )
    steps.fail(s <= 0.0, ValueError("bound undefined for the degenerate g = alpha = 0 input"))
    return steps.result(1.0 / (2.0 * ell * np.sqrt(s)))


@np.errstate(all="ignore")
def snl_table(g, ell, alpha_mag, theta, phi, transmissivity):
    """Shot-noise limit ``1 / (2 l sqrt(N))``, N the lossless photon number."""
    steps = _Steps(g, ell, alpha_mag, theta, phi, transmissivity)
    n = _photon_number(steps, g, alpha_mag)
    steps.fail(n <= 0.0, ValueError("shot-noise limit undefined for zero photon number"))
    return steps.result(1.0 / (2.0 * ell * np.sqrt(n)))


@np.errstate(all="ignore")
def hl_table(g, ell, alpha_mag, theta, phi, transmissivity):
    """Heisenberg limit ``1 / (2 l N)``, N the lossless photon number."""
    steps = _Steps(g, ell, alpha_mag, theta, phi, transmissivity)
    n = _photon_number(steps, g, alpha_mag)
    steps.fail(n <= 0.0, ValueError("Heisenberg limit undefined for zero photon number"))
    return steps.result(1.0 / (2.0 * ell * n))


@np.errstate(all="ignore")
def visibility_table(g, ell, alpha_mag, theta, phi, transmissivity):
    """Signal contrast ``(hi - lo) / (|hi| + |lo|)`` of <X_A> over a turn of
    the rotation angle, from its exact extrema
    ``hi, lo = sqrt(T) sqrt(2) |alpha| (+-cosh g + cos(theta) sinh g)``.

    Since ``cosh g >= |cos(theta) sinh g|``, hi >= 0 >= lo and the contrast is
    exactly 1 wherever it is defined.
    """
    steps = _Steps(g, ell, alpha_mag, theta, phi, transmissivity)
    steps.fail(alpha_mag <= 0.0, ValueError("visibility undefined for zero input amplitude"))
    scale = np.sqrt(transmissivity) * _SQRT2 * alpha_mag
    cosh_g = steps.libm(math.cosh, g)
    offset = np.cos(theta) * steps.libm(math.sinh, g)
    hi, lo = scale * (cosh_g + offset), scale * (offset - cosh_g)
    denom = np.abs(hi) + np.abs(lo)
    steps.fail(denom == 0.0, ValueError("visibility undefined: signal is identically zero"))
    return steps.result((hi - lo) / denom)


@np.errstate(all="ignore")
def _slope_table(g, ell, alpha_mag, theta, phi, transmissivity):
    steps = _Steps(g, ell, alpha_mag, theta, phi, transmissivity)
    return steps.result(_slope(steps, g, ell, alpha_mag, theta, phi))


@np.errstate(all="ignore")
def _noise_table(g, ell, alpha_mag, theta, phi, transmissivity):
    steps = _Steps(g, ell, alpha_mag, theta, phi, transmissivity)
    return steps.result(_noise(steps, g, ell, phi))


# quantity name -> closed form over broadcast (g, ell, alpha_mag, theta, phi,
# transmissivity); the inputs must lie in ExperimentConfig's domain
TABLE = {
    "signal": signal_table,
    "sensitivity": sensitivity_table,
    "sensitivity_lossy": sensitivity_lossy_table,
    "qcrb": qcrb_table,
    "snl": snl_table,
    "hl": hl_table,
    "visibility": visibility_table,
}


def _at(table, config: ExperimentConfig, transmissivity: float | None = None) -> float:
    """A table function at one working point."""
    if transmissivity is None:
        transmissivity = config.transmissivity
    return float(
        table(config.g, config.ell, config.alpha_mag, config.theta, config.phi, transmissivity)
    )


# --- scalar closed forms of one working point ---------------------------------


def homodyne_mean(config: ExperimentConfig) -> float:
    """<X_A> of the lossless chain:
    ``sqrt(2) |alpha| [cos(theta + 2 l phi) cosh g + cos(theta) sinh g]``."""
    return _at(signal_table, config, transmissivity=1.0)


def homodyne_mean_slope(config: ExperimentConfig) -> float:
    """Analytic d<X_A>/dphi of the lossless chain."""
    return _at(_slope_table, config)


def homodyne_mean_lossy(config: ExperimentConfig) -> float:
    """<X_A> with arm transmissivity T: the lossless mean scaled by sqrt(T)."""
    return _at(signal_table, config)


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
    return _at(_noise_table, config)


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
    return _at(sensitivity_table, config)


def sensitivity_lossy(config: ExperimentConfig) -> float:
    """Error-propagation sensitivity with arm transmissivity T.

    ``sqrt(T [cosh 2g + sinh 2g cos(2 l phi) - 1] + 1)`` over
    ``2 sqrt2 T l cosh g |alpha sin(theta + 2 l phi)|``; reduces to the
    lossless form at T = 1 and is reported as ``inf`` at T = 0 (total loss)
    or where the slope vanishes.
    """
    return _at(sensitivity_lossy_table, config)


def visibility(config: ExperimentConfig) -> float:
    """Signal contrast ``(max - min) / (|max| + |min|)`` of <X_A> over a full
    turn of the rotation angle at fixed theta, from the exact extrema
    ``sqrt(T) sqrt(2) |alpha| (+-cosh g + cos(theta) sinh g)``: exactly 1.

    Loss rescales the whole trace by sqrt(T), so the contrast is unaffected.
    Raises ValueError at zero amplitude or T = 0, where the signal vanishes.
    """
    return _at(visibility_table, config)


def shot_noise_limit(config: ExperimentConfig) -> float:
    """``1 / (2 l sqrt(N))`` with N the lossless mean photon number."""
    return _at(snl_table, config)


def heisenberg_limit(config: ExperimentConfig) -> float:
    """``1 / (2 l N)`` with N the lossless mean photon number."""
    return _at(hl_table, config)


def quantum_cramer_rao_bound(config: ExperimentConfig) -> float:
    """Best sensitivity allowed by the probe state's Fisher information:
    ``1 / (2 l sqrt(sinh^2 2g + |alpha|^2 [1 + 2 cosh 2g + cosh 4g]))``."""
    return _at(qcrb_table, config)


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
