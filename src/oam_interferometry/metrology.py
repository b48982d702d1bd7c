"""The working point ``ExperimentConfig`` (re-exported, with
``mean_photon_number``, by ``interferometer`` and the package root),
balanced-homodyne statistics at output port A, error-propagation
sensitivity, the metrology benchmarks (shot-noise limit, Heisenberg limit,
quantum Cramer-Rao bound), optimal operating points, and loss robustness.

The eight sweep quantities (``signal``, ``sensitivity``,
``sensitivity_lossy``, ``qcrb``, ``snl``, ``hl``, ``visibility``,
``max_loss``) are each defined once, as a closed form that broadcasts over
numpy arrays of ``(g, ell, alpha_mag, theta, phi, transmissivity)``; ``TABLE``
maps each name to its function, and ``sensitivity`` is ``sensitivity_lossy``
at T = 1.  ``fluctuation_table`` (the noise ``eval`` reports),
``second_moment_table`` and ``photon_number_table`` (the moments ``validate``
checks) and ``optimal_sensitivity_table`` (fig4's optimum) are more such
forms.  Where a formula fails (zero photon number or amplitude, a rotation
phase 2 l phi, a hyperbolic or a photon number that overflows), scalar inputs
raise its error and array inputs give nan.  Every scalar entry point, ``optimal_sensitivity``
and ``max_allowable_loss`` included, reads one form at one working point
through ``_at``, so a row and a direct call agree bit for bit.  The maximum
allowable loss is the exact root of a quadratic in the transmissivity, not a
search; ``max_allowable_loss`` returns it.

Every closed form here is also reproduced independently by the phase-space
engine (and, at small parameters, by the truncated-Fock validator); the test
suite keeps the two routes in agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExperimentConfig",
    "DERIVATIVE_FLOOR",
    "TABLE",
    "signal_table",
    "sensitivity_table",
    "sensitivity_lossy_table",
    "fluctuation_table",
    "second_moment_table",
    "photon_number_table",
    "qcrb_table",
    "snl_table",
    "hl_table",
    "visibility_table",
    "max_loss_table",
    "optimal_sensitivity_table",
    "homodyne_mean",
    "homodyne_mean_slope",
    "homodyne_mean_lossy",
    "homodyne_second_moment",
    "homodyne_second_moment_lossy",
    "sensitivity",
    "sensitivity_lossy",
    "visibility",
    "shot_noise_limit",
    "heisenberg_limit",
    "quantum_cramer_rao_bound",
    "mean_photon_number",
    "optimal_operating_point",
    "optimal_sensitivity",
    "max_allowable_loss",
]

# below this slope magnitude the error-propagation ratio is reported as inf
DERIVATIVE_FLOOR = 1e-12

_SQRT2 = math.sqrt(2.0)
_TWO_SQRT2 = 2.0 * math.sqrt(2.0)


# --- the working point --------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """One interferometer working point, and the one statement of its domain:
    each ValueError's message starts with the name of the field it rejects.

    g: squeezing factor of the parametric amplifier (>= 0)
    ell: OAM quantum number (positive integer)
    alpha_mag: magnitude of the input coherent amplitude (>= 0)
    theta: amplitude angle of the input coherent state, radians
    phi: angular displacement between the Dove prisms, radians
    transmissivity: shared arm transmissivity T in [0, 1]; 1 means lossless
    """

    g: float
    ell: int
    alpha_mag: float
    theta: float
    phi: float
    transmissivity: float = 1.0

    def __post_init__(self) -> None:
        for name in ("g", "alpha_mag", "theta", "phi", "transmissivity"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        try:
            integral = not isinstance(self.ell, bool) and int(self.ell) == self.ell
        except (ValueError, OverflowError):  # nan and +-inf have no int
            integral = False
        if not integral or self.ell < 1:
            raise ValueError("ell must be a positive integer")
        object.__setattr__(self, "ell", int(self.ell))
        if self.g < 0:
            raise ValueError("g must be >= 0")
        if self.alpha_mag < 0:
            raise ValueError("alpha_mag must be >= 0")
        if not 0.0 <= self.transmissivity <= 1.0:
            raise ValueError("transmissivity must lie in [0, 1]")


# --- the quantity table -------------------------------------------------------


class _Steps:
    """How one table evaluation treats a step where the formula fails.

    With scalar inputs a failing step raises at once, in formula order, the
    error the scalar formula raises there.  With any array input nothing
    raises: a failing step makes its points nan, which the rest of the
    formula carries through to the result.
    """

    def __init__(self, *args) -> None:
        shapes = [a.shape for a in args if isinstance(a, np.ndarray)]
        self.scalar = not shapes
        self.shape = np.broadcast_shapes(*shapes) if shapes else ()

    def libm(self, fn, x, where=True):
        """``fn`` applied to each element of ``x`` as a Python float.

        One-variable factors (hyperbolics, squares) go through ``math``:
        numpy's cosh and sinh differ from libm in the last place on about a
        quarter of inputs, and numpy's ``x**2`` is ``x*x``, not ``pow``.  On an
        open grid ``x`` is one axis, so this costs one call per axis value;
        ``validate`` passes flat columns, so there it is one call per point
        (1,728 per factor in ``full``).  An element where ``fn`` raises is nan;
        with scalar inputs the error is raised if ``where`` holds.
        """
        if self.scalar:
            try:
                return np.float64(fn(x))
            except (ArithmeticError, ValueError):
                if where:
                    raise
                return np.float64(math.nan)
        flat = np.ravel(x).tolist()
        values = np.empty(len(flat))
        for i, v in enumerate(flat):
            try:
                values[i] = fn(v)
            except (ArithmeticError, ValueError):
                values[i] = math.nan
        return values.reshape(np.shape(x))

    def fail(self, where, error: Exception, value):
        """``value`` with nan where ``where`` holds; with scalar inputs the
        formula raises ``error`` there instead."""
        if self.scalar:
            if where:
                raise error
            return value
        return np.where(where, math.nan, value)

    def result(self, value):
        """``value`` broadcast to the shape of the inputs."""
        return value if self.scalar else np.broadcast_to(value, self.shape)


def _square(x: float) -> float:
    return x**2


def _rotation(steps: _Steps, ell, phi):
    """The rotation phase ``2 l phi``; fails where a finite phi takes it past
    the double range.  Every form that reads the phase takes this step first,
    before any hyperbolic."""
    angle = 2.0 * ell * phi
    return steps.fail(np.isinf(angle), ValueError("2 ell phi must be finite"), angle)


def _noise(steps: _Steps, g, angle, where=True):
    """Var X_A of the lossless chain, ``cosh 2g + sinh 2g cos(2 l phi)``, at
    the rotation phase ``angle``."""
    cosh, sinh = steps.libm(math.cosh, 2.0 * g, where), steps.libm(math.sinh, 2.0 * g, where)
    return cosh + sinh * np.cos(angle)


def _fluctuation(steps: _Steps, g, angle, transmissivity, where=True):
    """Delta X_A with arm transmissivity T: the variance relaxes toward the
    vacuum unit as ``T (Var X_A - 1) + 1``."""
    return np.sqrt(transmissivity * (_noise(steps, g, angle, where) - 1.0) + 1.0)


def _photon_number(steps: _Steps, g, alpha_mag):
    """Mean photon number before any loss, ``cosh(2g) |alpha|^2 + 2 sinh^2 g``;
    fails where it overflows."""
    n = steps.libm(math.cosh, 2.0 * g) * steps.libm(_square, alpha_mag) + 2.0 * steps.libm(
        lambda x: math.sinh(x) ** 2, g
    )
    return steps.fail(n == math.inf, OverflowError("photon number out of range"), n)


@np.errstate(all="ignore")
def signal_table(g, ell, alpha_mag, theta, phi, transmissivity):
    """<X_A> with arm transmissivity T:
    ``sqrt(T) sqrt(2) |alpha| [cos(theta + 2 l phi) cosh g + cos(theta) sinh g]``.

    Exactly 0 with no input amplitude or at T = 0 wherever cosh g is finite,
    also where the bracket overflows (from g = 710 at theta = phi = 0).
    """
    steps = _Steps(g, ell, alpha_mag, theta, phi, transmissivity)
    delta = theta + _rotation(steps, ell, phi)
    cosh_g = steps.libm(math.cosh, g)
    mean = _SQRT2 * alpha_mag * (np.cos(delta) * cosh_g + np.cos(theta) * steps.libm(math.sinh, g))
    value = np.sqrt(transmissivity) * mean
    # 0 * inf is nan: no signal stays exactly 0, and every other value is unchanged
    no_signal = ((alpha_mag == 0.0) | (transmissivity == 0.0)) & np.isfinite(cosh_g)
    return steps.result(np.where(no_signal & np.isnan(value), 0.0, value))


def sensitivity_table(g, ell, alpha_mag, theta, phi, transmissivity):
    """Lossless error-propagation sensitivity: ``sensitivity_lossy_table`` at
    T = 1.  T only sets the result's shape, and whether a failing step raises
    (scalar T) or gives nan (array T)."""
    one = np.ones(np.shape(transmissivity)) if isinstance(transmissivity, np.ndarray) else 1.0
    return sensitivity_lossy_table(g, ell, alpha_mag, theta, phi, one)


@np.errstate(all="ignore")
def sensitivity_lossy_table(g, ell, alpha_mag, theta, phi, transmissivity):
    """Error-propagation sensitivity with arm transmissivity T:
    ``sqrt(T [cosh 2g + sinh 2g cos(2 l phi) - 1] + 1)`` over
    ``2 sqrt2 T l cosh g |alpha sin(theta + 2 l phi)|``; ``inf`` where that
    denominator is below DERIVATIVE_FLOOR (T = 0, zero slope).  The slope of
    ``signal_table`` scales by sqrt(T) and this denominator by T, so this is
    ``fluctuation_table / |d signal_table / dphi|`` divided by sqrt(T)."""
    steps = _Steps(g, ell, alpha_mag, theta, phi, transmissivity)
    angle = _rotation(steps, ell, phi)
    delta = theta + angle
    denom = (
        transmissivity
        * _TWO_SQRT2
        * ell
        * steps.libm(math.cosh, g)
        * alpha_mag
        * np.abs(np.sin(delta))
    )
    live = ~(np.abs(denom) < DERIVATIVE_FLOOR)
    value = _fluctuation(steps, g, angle, transmissivity, where=live) / denom
    return steps.result(np.where(live, value, np.inf))


@np.errstate(all="ignore")
def fluctuation_table(g, ell, alpha_mag, theta, phi, transmissivity):
    """Quadrature fluctuation Delta X_A with arm transmissivity T:
    ``sqrt(T [cosh 2g + sinh 2g cos(2 l phi) - 1] + 1)``, independent of
    theta and |alpha|.

    Evaluated from that closed form, not as ``sqrt(<X^2> - <X>^2)``: the
    subtraction of the two moments cancels catastrophically for bright inputs.
    Fails where cosh 2g overflows (g above about 355.2).
    """
    steps = _Steps(g, ell, alpha_mag, theta, phi, transmissivity)
    angle = _rotation(steps, ell, phi)
    return steps.result(_fluctuation(steps, g, angle, transmissivity))


@np.errstate(all="ignore")
def second_moment_table(g, ell, alpha_mag, theta, phi, transmissivity):
    """<X_A^2> with arm transmissivity T: ``T <X_A^2> + 1 - T`` over the
    lossless four-term closed form
    ``cos(2 theta + 4 l phi) cosh^2 g |alpha|^2 + cos(2 theta) sinh^2 g |alpha|^2
    + (cosh 2g + cos(2 l phi) sinh 2g) (|alpha|^2 + 1)
    + cos(2 theta + 2 l phi) sinh 2g |alpha|^2``.

    Fails where 2 l phi, |alpha|^2 or a hyperbolic overflows, in that order.
    """
    steps = _Steps(g, ell, alpha_mag, theta, phi, transmissivity)
    angle = _rotation(steps, ell, phi)
    a2 = steps.libm(_square, alpha_mag)
    noise = _noise(steps, g, angle)
    moment = (
        np.cos(2.0 * theta + 4.0 * ell * phi) * steps.libm(lambda x: math.cosh(x) ** 2, g) * a2
        + np.cos(2.0 * theta) * steps.libm(lambda x: math.sinh(x) ** 2, g) * a2
        + noise * (a2 + 1.0)
        + np.cos(2.0 * theta + angle) * steps.libm(math.sinh, 2.0 * g) * a2
    )
    return steps.result(transmissivity * moment + (1.0 - transmissivity))


@np.errstate(all="ignore")
def photon_number_table(g, ell, alpha_mag, theta, phi, transmissivity):
    """Mean photon number inside the interferometer, before any loss:
    ``cosh(2g) |alpha|^2 + 2 sinh^2 g``; fails where it overflows."""
    steps = _Steps(g, ell, alpha_mag, theta, phi, transmissivity)
    return steps.result(_photon_number(steps, g, alpha_mag))


@np.errstate(all="ignore")
def qcrb_table(g, ell, alpha_mag, theta, phi, transmissivity):
    """Quantum Cramer-Rao bound of the probe state:
    ``1 / (2 l sqrt(sinh^2 2g + |alpha|^2 [1 + 2 cosh 2g + cosh 4g]))``."""
    steps = _Steps(g, ell, alpha_mag, theta, phi, transmissivity)
    s = steps.libm(lambda x: math.sinh(2.0 * x) ** 2, g) + steps.libm(_square, alpha_mag) * (
        1.0 + 2.0 * steps.libm(math.cosh, 2.0 * g) + steps.libm(math.cosh, 4.0 * g)
    )
    degenerate = ValueError("bound undefined for the degenerate g = alpha = 0 input")
    s = steps.fail(s <= 0.0, degenerate, s)
    s = steps.fail(s == math.inf, OverflowError("Fisher information out of range"), s)
    return steps.result(1.0 / (2.0 * ell * np.sqrt(s)))


@np.errstate(all="ignore")
def snl_table(g, ell, alpha_mag, theta, phi, transmissivity):
    """Shot-noise limit ``1 / (2 l sqrt(N))``, N the lossless photon number."""
    steps = _Steps(g, ell, alpha_mag, theta, phi, transmissivity)
    n = _photon_number(steps, g, alpha_mag)
    n = steps.fail(n <= 0.0, ValueError("shot-noise limit undefined for zero photon number"), n)
    return steps.result(1.0 / (2.0 * ell * np.sqrt(n)))


@np.errstate(all="ignore")
def hl_table(g, ell, alpha_mag, theta, phi, transmissivity):
    """Heisenberg limit ``1 / (2 l N)``, N the lossless photon number."""
    steps = _Steps(g, ell, alpha_mag, theta, phi, transmissivity)
    n = _photon_number(steps, g, alpha_mag)
    n = steps.fail(n <= 0.0, ValueError("Heisenberg limit undefined for zero photon number"), n)
    return steps.result(1.0 / (2.0 * ell * n))


@np.errstate(all="ignore")
def visibility_table(g, ell, alpha_mag, theta, phi, transmissivity):
    """Signal contrast ``(hi - lo) / (|hi| + |lo|)`` of <X_A> over a turn of
    the rotation angle, from its exact extrema
    ``hi, lo = sqrt(T) sqrt(2) |alpha| (+-cosh g + cos(theta) sinh g)``.

    Since ``cosh g >= |cos(theta) sinh g|``, hi >= 0 >= lo and the contrast is
    exactly 1 wherever it is defined: |alpha| > 0 and T > 0.
    """
    steps = _Steps(g, ell, alpha_mag, theta, phi, transmissivity)
    no_input = ValueError("visibility undefined for zero input amplitude")
    contrast = steps.fail(alpha_mag <= 0.0, no_input, 1.0)
    no_signal = ValueError("visibility undefined: signal is identically zero")
    return steps.result(steps.fail(transmissivity <= 0.0, no_signal, contrast))


@np.errstate(all="ignore")
def max_loss_table(g, ell, alpha_mag, theta, phi, transmissivity):
    """Largest loss fraction 1 - T* at which the optimal lossy sensitivity
    still reaches the lossless shot-noise limit; 0 where even T = 1 cannot.

    Equating ``optimal_sensitivity`` at T with the shot-noise limit gives
    ``2 c^2 T^2 + N k T - N = 0`` with ``c = |alpha| cosh g``,
    ``k = 1 - e^-2g`` and N the lossless photon number.  T* is its positive
    root ``2 / (k + sqrt(k^2 + 8 c^2 / N))``, which does not cancel, and
    ``c^2 / N = cosh^2 g / (cosh 2g + 2 (sinh g / |alpha|)^2)`` stays finite
    until cosh 2g overflows, for any |alpha| > 0.  Independent of l, theta,
    phi and T.
    """
    steps = _Steps(g, ell, alpha_mag, theta, phi, transmissivity)
    alpha_mag = steps.fail(alpha_mag <= 0.0, ValueError("alpha_mag must be > 0"), alpha_mag)
    # N / |alpha|^2 before c^2 / N, so an overflowing g fails at cosh 2g first;
    # squaring sinh g / |alpha|, not |alpha|, leaves no |alpha|^2 to underflow
    n_scaled = steps.libm(math.cosh, 2.0 * g) + 2.0 * (steps.libm(math.sinh, g) / alpha_mag) ** 2
    c2_over_n = steps.libm(lambda x: math.cosh(x) ** 2, g) / n_scaled
    k = -steps.libm(math.expm1, -2.0 * g)
    t_star = 2.0 / (k + np.sqrt(k * k + 8.0 * c2_over_n))
    return steps.result(np.where(t_star >= 1.0, 0.0, 1.0 - t_star))


@np.errstate(all="ignore")
def optimal_sensitivity_table(g, ell, alpha_mag, theta, phi, transmissivity):
    """Sensitivity at ``optimal_operating_point`` with arm transmissivity T,
    ``sqrt(T (e^-2g - 1) + 1) / (2 sqrt2 T l cosh g |alpha|)``: the squeezed
    noise e^-2g relaxes toward the vacuum unit with loss.  Theta and phi are
    ignored; fails where cosh g overflows (g above about 710.5)."""
    steps = _Steps(g, ell, alpha_mag, theta, phi, transmissivity)
    noise = transmissivity * (steps.libm(math.exp, -2.0 * g) - 1.0) + 1.0
    denom = _TWO_SQRT2 * transmissivity * ell * steps.libm(math.cosh, g) * alpha_mag
    return steps.result(np.sqrt(noise) / denom)


@np.errstate(all="ignore")
def _slope_table(g, ell, alpha_mag, theta, phi, transmissivity):
    """d<X_A>/dphi of the lossless chain."""
    steps = _Steps(g, ell, alpha_mag, theta, phi, transmissivity)
    delta = theta + _rotation(steps, ell, phi)
    return steps.result(-_TWO_SQRT2 * ell * alpha_mag * steps.libm(math.cosh, g) * np.sin(delta))


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
    "max_loss": max_loss_table,
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
    return _at(second_moment_table, config, transmissivity=1.0)


def homodyne_second_moment_lossy(config: ExperimentConfig) -> float:
    """<X_A^2> with loss: ``T <X_A^2> + (1 - T)``."""
    return _at(second_moment_table, config)


def sensitivity(config: ExperimentConfig) -> float:
    """Error-propagation estimate Delta phi = Delta X_A / |d<X_A>/dphi| of
    the lossless chain: ``sensitivity_lossy`` at T = 1, whatever the config's T.

    Returns ``inf`` when the slope magnitude is below DERIVATIVE_FLOOR (the
    working point carries no first-order signal).  Raises ValueError where
    2 l phi leaves the double range, and OverflowError where cosh 2g
    overflows (g above about 355.2) unless the slope is below the floor, and
    where cosh g overflows (above about 710.5) at any point.
    """
    return _at(sensitivity_lossy_table, config, transmissivity=1.0)


def sensitivity_lossy(config: ExperimentConfig) -> float:
    """Error-propagation sensitivity with arm transmissivity T.

    ``sqrt(T [cosh 2g + sinh 2g cos(2 l phi) - 1] + 1)`` over
    ``2 sqrt2 T l cosh g |alpha sin(theta + 2 l phi)|``: the denominator is T
    times the lossless slope, while the lossy mean's slope is sqrt(T) times
    it, so this is the lossy ``Delta X_A / |d<X_A>/dphi|`` divided by sqrt(T).
    It is ``sensitivity`` at T = 1 and is reported as ``inf`` at T = 0 (total
    loss) or where the slope vanishes.
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


def mean_photon_number(config: ExperimentConfig) -> float:
    """Mean photon number inside the interferometer (before any loss),
    ``photon_number_table`` at ``config``.

    Raises OverflowError where that number leaves the double range.
    """
    return _at(photon_number_table, config)


def optimal_operating_point(ell: int) -> tuple[float, float]:
    """Working point minimising the error-propagation sensitivity.

    Returns ``(phi, theta) = (pi / (2 l), pi / 2)``: the rotation puts the
    noise term at its squeezed minimum (``cos 2 l phi = -1``) while the input
    phase keeps the slope maximal (``theta + 2 l phi = pi/2 mod pi``).  The
    point does not depend on g or |alpha|.  ``ell`` is validated as an
    ``ExperimentConfig`` field.
    """
    ExperimentConfig(g=0.0, ell=ell, alpha_mag=0.0, theta=0.0, phi=0.0)
    return math.pi / (2.0 * ell), math.pi / 2.0


def optimal_sensitivity(
    g: float, ell: int, alpha_mag: float, transmissivity: float = 1.0
) -> float:
    """Sensitivity at the optimal working point, ``optimal_sensitivity_table``.

    Domain: ``ExperimentConfig``'s (finite g >= 0, ell a positive integer),
    after two stricter rules checked first: alpha_mag > 0 and T in (0, 1].
    """
    if alpha_mag <= 0.0:
        raise ValueError("alpha_mag must be > 0")
    t = float(transmissivity)
    if not 0.0 < t <= 1.0:
        raise ValueError("transmissivity must lie in (0, 1]")
    config = ExperimentConfig(
        g=g, ell=ell, alpha_mag=alpha_mag, theta=0.0, phi=0.0, transmissivity=t
    )
    return _at(optimal_sensitivity_table, config)


def max_allowable_loss(g: float, ell: int, alpha_mag: float) -> float:
    """Largest loss fraction 1 - T keeping the optimal sensitivity at or below
    the lossless shot-noise limit (0 where no T does): the exact root of
    ``max_loss_table``, which does not depend on ell.

    The working point is validated as an ``ExperimentConfig``; zero amplitude
    raises ValueError, and a gain whose cosh 2g overflows raises
    OverflowError.
    """
    config = ExperimentConfig(g=g, ell=ell, alpha_mag=alpha_mag, theta=0.0, phi=0.0)
    return _at(max_loss_table, config)
