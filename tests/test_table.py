"""The quantity table: every sweep and figure row equals the scalar API's
direct call bit for bit, points where that call raises are nan rows named in
the CSV header, and sweep axes are checked at parse time."""

import itertools
import math
import re

import numpy as np
import pytest

from oam_interferometry import (
    ExperimentConfig,
    cli,
    heisenberg_limit,
    homodyne_mean,
    homodyne_mean_lossy,
    metrology,
    optimal_sensitivity,
    quantum_cramer_rao_bound,
    run_lossless,
    sensitivity,
    sensitivity_lossy,
    shot_noise_limit,
    visibility,
)
from oam_interferometry.cli import (
    FIGURE_IDS,
    MAX_SWEEP_POINTS,
    ConfigError,
    SweepAxis,
    SweepError,
    main,
    parse_config,
    reproduce,
    run_sweep,
    to_csv,
)
from helpers import without_timestamp

SCALAR = {
    "signal": homodyne_mean_lossy,
    "sensitivity": sensitivity,
    "sensitivity_lossy": sensitivity_lossy,
    "qcrb": quantum_cramer_rao_bound,
    "snl": shot_noise_limit,
    "hl": heisenberg_limit,
    "visibility": visibility,
}

BASE = "g = 0.7\nell = 2\nalpha_sq = 6.5\ntheta = 0.4\nphi = 0.9\ntransmissivity = 0.55\n"

# each axis over a range that reaches its domain edge where it has one
AXES = {
    "g": "g 0 3 13",
    "ell": "ell 1 4 4",
    "alpha_sq": "alpha_sq 0 50 11",
    "theta": "theta -3.2 3.2 17",
    "phi": "phi 0 3.1416 19",
    "transmissivity": "transmissivity 0 1 9",
}


def per_point(spec):
    """The sweep evaluated point by point through the scalar API: the rows
    ``(*coordinates, value)``, with the sweep's error message for that point
    in place of the value where the scalar call raises."""
    base = spec.base
    rows = []
    for point in itertools.product(*(axis.values() for axis in spec.axes)):
        fields = dict(
            g=base.g,
            ell=base.ell,
            alpha_mag=base.alpha_mag,
            theta=base.theta,
            phi=base.phi,
            transmissivity=base.transmissivity,
        )
        for axis, v in zip(spec.axes, point):
            if axis.name == "alpha_sq":
                fields["alpha_mag"] = math.sqrt(v)
            elif axis.name == "ell":
                fields["ell"] = int(round(v))
            else:
                fields[axis.name] = float(v)
        try:
            value = SCALAR[spec.quantity](ExperimentConfig(**fields))
        except (ValueError, ArithmeticError) as exc:
            coords = ", ".join(f"{a.name}={v:g}" for a, v in zip(spec.axes, point))
            value = f"{spec.quantity} failed at ({coords}): {exc}"
        rows.append(tuple(float(v) for v in point) + (value,))
    return rows


def assert_matches_per_point(text):
    """run_sweep agrees with the point-by-point evaluation: the same bits in
    every row where the scalar call returns, nan flagged non-finite where it
    raises, and the count and first message of those points in the header
    line after ``# axes=``; a grid where every call raises is a SweepError
    with the first message."""
    spec = parse_config(text)
    expected = per_point(spec)
    failures = [row[-1] for row in expected if isinstance(row[-1], str)]
    if len(failures) == len(expected):
        with pytest.raises(SweepError) as info:
            run_sweep(spec)
        assert str(info.value) == failures[0]
        return None
    result = run_sweep(spec)
    assert [tuple(map(repr, row[:-2])) for row in result.rows] == [
        tuple(map(repr, row[:-1])) for row in expected
    ]
    for row, want in zip(result.rows, expected):
        value, flag = row[-2], row[-1]
        if isinstance(want[-1], str):
            assert math.isnan(value)
        else:
            assert repr(value) == repr(want[-1])
        assert flag == ("divergent" if math.isinf(value) else "non-finite" if math.isnan(value) else "")
    header = [line for line in without_timestamp(to_csv(result)).splitlines() if line.startswith("#")]
    after_axes = header[header.index(f"# axes={result.metadata['axes']}") + 1 :]
    if failures:
        assert after_axes[0] == f"# undefined={len(failures)} of {len(expected)}; {failures[0]}"
    else:
        assert not any(line.startswith("# undefined=") for line in header)
    return result


@pytest.mark.parametrize("axis", AXES)
@pytest.mark.parametrize("quantity", SCALAR)
def test_one_axis_rows_equal_direct_calls(quantity, axis):
    assert_matches_per_point(f"{BASE}quantity = {quantity}\nsweep = {AXES[axis]}\n")


@pytest.mark.parametrize(
    "outer, inner",
    [
        ("phi", "theta"),
        ("g", "alpha_sq"),
        ("transmissivity", "phi"),
        ("ell", "g"),
        ("alpha_sq", "transmissivity"),
        ("theta", "ell"),
    ],
)
@pytest.mark.parametrize("quantity", SCALAR)
def test_two_axis_rows_equal_direct_calls(quantity, outer, inner):
    text = f"{BASE}quantity = {quantity}\nsweep = {AXES[outer]}\nsweep = {AXES[inner]}\n"
    assert_matches_per_point(text)


@pytest.mark.parametrize("quantity", ["sensitivity", "sensitivity_lossy"])
@pytest.mark.parametrize("ell", [1, 3])
def test_noise_cancellation_region(quantity, ell):
    # cos(2 l phi) within 1e-12 of -1, where cosh 2g + sinh 2g cos(2 l phi)
    # cancels down to e^-2g
    centre = math.pi / (2 * ell)
    text = (
        f"ell = {ell}\nalpha_sq = 40\ntheta = 1.5707963267948966\ntransmissivity = 0.8\n"
        f"quantity = {quantity}\n"
        f"sweep = phi {centre - 1e-6!r} {centre + 1e-6!r} 21\nsweep = g 0 3 31\n"
    )
    result = assert_matches_per_point(text)
    assert all(math.isfinite(row[-2]) for row in result.rows)


@pytest.mark.parametrize("quantity", ["sensitivity", "sensitivity_lossy", "signal"])
def test_divergent_points_match(quantity):
    # alpha_sq = 0 and theta + 2 l phi on a multiple of pi both zero the slope
    text = (
        f"g = 1.1\nell = 1\ntheta = 0\ntransmissivity = 0.5\nquantity = {quantity}\n"
        "sweep = alpha_sq 0 4 3\nsweep = phi 0 3.141592653589793 5\n"
    )
    result = assert_matches_per_point(text)
    if quantity != "signal":
        assert sum(row[-1] == "divergent" for row in result.rows) >= 5


def test_qcrb_overflow_fails_at_the_overflowing_gain():
    result = assert_matches_per_point("alpha_sq = 4\nquantity = qcrb\nsweep = g 100 200 3\n")
    assert [row[-1] for row in result.rows] == ["", "", "non-finite"]
    assert result.metadata["undefined"] == (
        "1 of 3; qcrb failed at (g=200): (34, 'Numerical result out of range')"
    )


def test_zero_slope_stays_divergent_where_the_noise_term_overflows():
    # the slope check comes before the noise term, whose cosh 2g overflows
    # beyond g = 355
    text = "alpha_sq = 4\ntheta = 0\nphi = 0\nquantity = sensitivity\nsweep = g 300 400 3\n"
    result = assert_matches_per_point(text)
    assert [row[1:] for row in result.rows] == [(math.inf, "divergent")] * 3


@pytest.mark.parametrize(
    "quantity, axes, where",
    [
        # the overflow at g = 200 fails every row with g = 200, the third first
        ("qcrb", ("alpha_sq 1 2 2", "g 100 200 3"), "alpha_sq=1, g=200"),
        # cosh 2g overflows at g = 400, the third row
        ("snl", ("theta 0 1 2", "g 0 400 3"), "theta=0, g=400"),
        # the first row has no photons; the second row's overflow comes earlier
        # in the formula but later in row order
        ("snl", ("alpha_sq 0 1 2", "g 0 400 2"), "alpha_sq=0, g=0"),
        # zero amplitude fails before the zero transmissivity of the same row
        ("visibility", ("transmissivity 1 0 2", "alpha_sq 1 0 2"), "transmissivity=0, alpha_sq=0"),
    ],
)
def test_first_undefined_point_in_row_order_is_named(quantity, axes, where):
    text = f"ell = 1\nalpha_sq = 1\ntheta = 0.3\nquantity = {quantity}\n" + "".join(
        f"sweep = {axis}\n" for axis in axes
    )
    result = assert_matches_per_point(text)
    assert re.match(rf"^\d+ of \d+; {quantity} failed at \({where}\): ", result.metadata["undefined"])


def test_nan_where_no_step_fails_is_counted_and_named():
    # at |alpha|^2 = 1e308 the slope and the noise term both overflow to inf
    # from g = 355, so their ratio is nan, though every step is defined (the
    # scalar call returns nan too); at g = 356 cosh 2g itself overflows
    text = "alpha_sq = 1e308\ntheta = 1.5707963267948966\nquantity = sensitivity\nsweep = g 354 356 3\n"
    result = run_sweep(parse_config(text))
    assert [row[-1] for row in result.rows] == ["", "non-finite", "non-finite"]
    cfg = ExperimentConfig(g=355.0, ell=1, alpha_mag=math.sqrt(1e308), theta=math.pi / 2, phi=0.0)
    assert math.isnan(sensitivity(cfg))
    assert result.metadata["undefined"] == "2 of 3; sensitivity failed at (g=355): value is nan"


class TestSignalWithoutInput:
    """No input amplitude, or no transmission, gives no signal: exactly 0
    wherever cosh g is finite, also where cosh g + sinh g overflows (from
    g = 710 at theta = phi = 0), and not the nan of 0 * inf."""

    @pytest.mark.parametrize("alpha_mag, t", [(0.0, 1.0), (2.0, 0.0), (0.0, 0.0)])
    def test_scalar_is_zero_where_the_bracket_overflows(self, alpha_mag, t):
        cfg = ExperimentConfig(
            g=710.0, ell=1, alpha_mag=alpha_mag, theta=0.0, phi=0.0, transmissivity=t
        )
        assert homodyne_mean_lossy(cfg) == 0.0
        if t == 1.0:
            assert homodyne_mean(cfg) == 0.0

    @pytest.mark.parametrize("point", ["alpha_sq = 0\n", "alpha_sq = 4\ntransmissivity = 0\n"])
    def test_sweep_row_is_zero_and_unflagged(self, point):
        result = assert_matches_per_point(point + "quantity = signal\nsweep = g 709 711 3\n")
        assert result.rows[:2] == ((709.0, 0.0, ""), (710.0, 0.0, ""))
        assert math.isnan(result.rows[2][1]) and result.rows[2][2] == "non-finite"
        assert result.metadata["undefined"] == "1 of 3; signal failed at (g=711): math range error"


def reference(quantity, cfg):
    """Each closed form on Python floats through ``math`` (libm), term by term
    in the order of the scalar formulas: the bits a table row must carry."""
    g, ell, a, theta, phi, t = (
        cfg.g, cfg.ell, cfg.alpha_mag, cfg.theta, cfg.phi, cfg.transmissivity
    )
    delta = theta + 2.0 * ell * phi
    noise = math.cosh(2.0 * g) + math.sinh(2.0 * g) * math.cos(2.0 * ell * phi)
    n = math.cosh(2.0 * g) * a**2 + 2.0 * math.sinh(g) ** 2
    if quantity == "signal":
        return math.sqrt(t) * (
            math.sqrt(2.0) * a * (math.cos(delta) * math.cosh(g) + math.cos(theta) * math.sinh(g))
        )
    if quantity == "sensitivity":
        # the lossless sensitivity is defined as the lossy one at T = 1
        quantity, t = "sensitivity_lossy", 1.0
    if quantity == "sensitivity_lossy":
        denom = t * 2.0 * math.sqrt(2.0) * ell * math.cosh(g) * a * abs(math.sin(delta))
        return math.inf if abs(denom) < 1e-12 else math.sqrt(t * (noise - 1.0) + 1.0) / denom
    if quantity == "fluctuation":
        return math.sqrt(t * (noise - 1.0) + 1.0)
    if quantity == "second_moment":
        a2 = a**2
        ch2, sh2 = math.cosh(2.0 * g), math.sinh(2.0 * g)
        moment = (
            math.cos(2.0 * theta + 4.0 * ell * phi) * math.cosh(g) ** 2 * a2
            + math.cos(2.0 * theta) * math.sinh(g) ** 2 * a2
            + (ch2 + math.cos(2.0 * ell * phi) * sh2) * (a2 + 1.0)
            + math.cos(2.0 * theta + 2.0 * ell * phi) * sh2 * a2
        )
        return t * moment + (1.0 - t)
    if quantity == "qcrb":
        s = math.sinh(2.0 * g) ** 2 + a**2 * (1.0 + 2.0 * math.cosh(2.0 * g) + math.cosh(4.0 * g))
        return 1.0 / (2.0 * ell * math.sqrt(s))
    if quantity == "snl":
        return 1.0 / (2.0 * ell * math.sqrt(n))
    if quantity == "hl":
        return 1.0 / (2.0 * ell * n)
    assert quantity == "visibility"
    return 1.0


@pytest.mark.parametrize("quantity", SCALAR)
def test_table_carries_the_libm_closed_forms(quantity):
    # numpy's cosh and sinh differ from libm in the last place on about a
    # quarter of inputs, and its x**2 is x*x, not pow: the table must not use
    # them
    rng = np.random.default_rng(11)
    n = 400
    g = rng.uniform(0.0, 4.0, n)
    ell = rng.integers(1, 6, n).astype(float)
    alpha_sq = rng.uniform(0.01, 1000.0, n)
    # points where pow(|alpha|, 2) and x*x differ, the second also in qcrb
    alpha_sq[:2] = 380.42426988653233, 170.17647524349584
    g[1], ell[1] = 0.5, 1.0
    theta, phi = rng.uniform(-7.0, 7.0, (2, n))
    t = rng.uniform(0.05, 1.0, n)
    values = metrology.TABLE[quantity](g, ell, np.sqrt(alpha_sq), theta, phi, t)
    for i in range(n):
        cfg = ExperimentConfig(
            g=g[i],
            ell=int(ell[i]),
            alpha_mag=math.sqrt(alpha_sq[i]),
            theta=theta[i],
            phi=phi[i],
            transmissivity=t[i],
        )
        assert repr(float(values[i])) == repr(reference(quantity, cfg)), (i, cfg)


@pytest.mark.parametrize("t", [1.0, 0.37, 0.0])
def test_fluctuation_table_carries_the_libm_closed_form(t):
    # a g-by-phi grid past the overflow of cosh 2g (g = 355.24) and through
    # the squeezed noise at cos(2 l phi) = -1; at g = 355.2 cosh 2g is finite
    # but the noise term overflows to inf
    rng = np.random.default_rng(19)
    g = np.concatenate([rng.uniform(0.0, 4.0, 20), [354.0, 355.2, 356.0, 700.0]])
    phi = np.concatenate([rng.uniform(-7.0, 7.0, 15), [0.0, math.pi / 4.0]])
    ell, alpha_mag, theta = 2, 3.5, 0.6
    g_grid, phi_grid = np.ix_(g, phi)
    grid = metrology.fluctuation_table(g_grid, ell, alpha_mag, theta, phi_grid, t)
    assert grid.shape == (len(g), len(phi))
    for i, j in itertools.product(range(len(g)), range(len(phi))):
        point = (float(g[i]), ell, alpha_mag, theta, float(phi[j]), t)
        cfg = ExperimentConfig(*point[:5], transmissivity=t)
        try:
            want = reference("fluctuation", cfg)
        except OverflowError:
            assert math.isnan(grid[i, j])
            with pytest.raises(OverflowError):
                metrology.fluctuation_table(*point)
            continue
        assert repr(float(grid[i, j])) == repr(want), point
        assert repr(float(metrology.fluctuation_table(*point))) == repr(want), point


@pytest.mark.parametrize("t", [1.0, 0.37, 0.0])
def test_second_moment_table_carries_the_libm_closed_form(t):
    # random points, then a g-by-phi grid past the overflow of the squares and
    # of cosh 2g; homodyne_second_moment[_lossy] are the same form at a point
    rng = np.random.default_rng(23)
    n = 400
    g, theta, phi = rng.uniform(0.0, 4.0, n), *rng.uniform(-7.0, 7.0, (2, n))
    ell = rng.integers(1, 6, n)
    alpha_sq = rng.uniform(0.01, 1000.0, n)
    # a point where pow(|alpha|, 2) and x*x differ
    alpha_sq[0] = 380.42426988653233
    values = metrology.second_moment_table(g, ell, np.sqrt(alpha_sq), theta, phi, t)
    for i in range(n):
        cfg = ExperimentConfig(
            g=g[i],
            ell=int(ell[i]),
            alpha_mag=math.sqrt(alpha_sq[i]),
            theta=theta[i],
            phi=phi[i],
            transmissivity=t,
        )
        want = repr(reference("second_moment", cfg))
        assert repr(float(values[i])) == want, (i, cfg)
        assert repr(metrology.homodyne_second_moment_lossy(cfg)) == want, (i, cfg)
        if t == 1.0:
            assert repr(metrology.homodyne_second_moment(cfg)) == want, (i, cfg)

    g = np.concatenate([rng.uniform(0.0, 4.0, 10), [354.0, 355.2, 356.0, 700.0]])
    phi = np.concatenate([rng.uniform(-7.0, 7.0, 8), [0.0, math.pi / 4.0]])
    ell, alpha_mag, theta = 2, 3.5, 0.6
    g_grid, phi_grid = np.ix_(g, phi)
    grid = metrology.second_moment_table(g_grid, ell, alpha_mag, theta, phi_grid, t)
    assert grid.shape == (len(g), len(phi))
    for i, j in itertools.product(range(len(g)), range(len(phi))):
        point = (float(g[i]), ell, alpha_mag, theta, float(phi[j]), t)
        cfg = ExperimentConfig(*point[:5], transmissivity=t)
        try:
            want = reference("second_moment", cfg)
        except OverflowError as exc:
            assert math.isnan(grid[i, j])
            with pytest.raises(OverflowError) as raised:
                metrology.second_moment_table(*point)
            assert str(raised.value) == str(exc)
            continue
        assert repr(float(grid[i, j])) == repr(want), point
        assert repr(float(metrology.second_moment_table(*point))) == repr(want), point


# eval's columns through the scalar API: the lossy signal and sensitivity,
# the lossless benchmarks, and the libm transcription of the fluctuation
EVAL_SCALAR = {
    "signal": homodyne_mean_lossy,
    "fluctuation": lambda cfg: reference("fluctuation", cfg),
    "sensitivity": sensitivity_lossy,
    "snl": shot_noise_limit,
    "hl": heisenberg_limit,
    "qcrb": quantum_cramer_rao_bound,
    "visibility": visibility,
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "text",
    [
        "g = 2\nalpha_sq = 100\ntheta = 1.5707963267948966\nphi = 0.8",
        "g = 1\nell = 2\nalpha_sq = 4\ntheta = 0.7\nphi = 0.4\ntransmissivity = 0.6",
        "g = 1.2\nalpha_sq = 0\ntheta = 0.5\nphi = 0.3",
        "g = 1.5\nalpha_sq = 9\ntheta = 0.2\nphi = 1.1\ntransmissivity = 0",
        "g = 350\nalpha_sq = 1e12\ntheta = 1.5707963267948966",
    ],
    ids=["lossless", "lossy", "zero-amplitude", "total-loss", "bright"],
)
def test_eval_row_equals_direct_calls(tmp_path, capsys, text):
    """Each eval column is the repr of its scalar call, or nan where that
    call raises; the flag follows the sweep rule."""
    path = tmp_path / "point.cfg"
    path.write_text(text)
    assert main(["eval", "--config", str(path)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    cfg = parse_config(text)
    assert lines[0].split(",")[6:-1] == list(EVAL_SCALAR)
    for name, fn in EVAL_SCALAR.items():
        try:
            want = repr(fn(cfg))
        except (ValueError, ArithmeticError):
            want = "nan"
        assert row[name] == want, name
    values = [float(row[name]) for name in EVAL_SCALAR]
    nan = any(map(math.isnan, values))
    assert row["flag"] == (
        "divergent" if row["sensitivity"] == "inf" else "non-finite" if nan else ""
    )


class TestBrightInputs:
    """At |alpha|^2 = 1e12 the photon number cosh(2g) |alpha|^2 and the qcrb
    radicand |alpha|^2 cosh 4g leave the double range before any hyperbolic
    does: the quantity fails there instead of reading 0.0."""

    @pytest.mark.parametrize(
        "fn, g, reason",
        [
            (shot_noise_limit, 350.0, "photon number"),
            (heisenberg_limit, 350.0, "photon number"),
            (quantum_cramer_rao_bound, 175.0, "Fisher information"),
        ],
    )
    def test_scalar_call_raises(self, fn, g, reason):
        cfg = ExperimentConfig(g=g, ell=1, alpha_mag=1e6, theta=0.0, phi=0.0)
        with pytest.raises(OverflowError, match=f"^{reason} out of range$"):
            fn(cfg)

    @pytest.mark.parametrize(
        "quantity, stop, reason",
        [("snl", 350, "photon number"), ("hl", 350, "photon number"), ("qcrb", 175, "Fisher information")],
    )
    def test_sweep_flags_and_names_the_overflowing_row(self, quantity, stop, reason):
        text = f"alpha_sq = 1e12\nquantity = {quantity}\nsweep = g 0 {stop} 8\n"
        result = assert_matches_per_point(text)
        assert [row[-1] for row in result.rows] == [""] * 7 + ["non-finite"]
        assert result.metadata["undefined"] == (
            f"1 of 8; {quantity} failed at (g={stop}): {reason} out of range"
        )
        # every row below the overflow keeps the libm closed form's bits
        for g, value, _ in result.rows[:-1]:
            cfg = ExperimentConfig(g=g, ell=1, alpha_mag=1e6, theta=0.0, phi=0.0)
            assert repr(value) == repr(reference(quantity, cfg))


class TestVisibilityIsExact:
    """The contrast is exactly 1 wherever |alpha| > 0 and T > 0, also where
    the extrema it is the ratio of overflow."""

    @pytest.mark.parametrize("g", [707.0, 711.0, 800.0])
    def test_one_where_the_extrema_overflow(self, g):
        cfg = ExperimentConfig(g=g, ell=1, alpha_mag=math.sqrt(2.4e10), theta=0.0, phi=0.0)
        assert visibility(cfg) == 1.0

    def test_sweep_past_the_overflow_has_no_undefined_row(self):
        text = "alpha_sq = 2.4e10\ntheta = 0\nquantity = visibility\nsweep = g 700 800 6\n"
        result = assert_matches_per_point(text)
        assert [row[-2:] for row in result.rows] == [(1.0, "")] * 6
        assert "undefined" not in result.metadata

    def test_total_loss_is_undefined_at_any_gain(self):
        cfg = ExperimentConfig(g=800.0, ell=1, alpha_mag=2.0, theta=0.0, phi=0.0, transmissivity=0.0)
        with pytest.raises(ValueError, match="^visibility undefined: signal is identically zero$"):
            visibility(cfg)


@pytest.mark.filterwarnings("error")
class TestRotationPhaseOverflow:
    """A finite phi whose 2 l phi leaves the double range: each form that
    reads the phase names it, as the engine does, instead of returning nan."""

    FORMS = [
        metrology.homodyne_mean,
        metrology.homodyne_mean_slope,
        metrology.homodyne_second_moment,
        metrology.homodyne_mean_lossy,
        metrology.homodyne_second_moment_lossy,
        sensitivity,
        sensitivity_lossy,
    ]
    TABLES = [
        metrology.signal_table,
        metrology.sensitivity_table,
        metrology.sensitivity_lossy_table,
        metrology.fluctuation_table,
        metrology.second_moment_table,
        metrology._slope_table,
    ]

    @pytest.mark.parametrize("fn", FORMS, ids=lambda fn: fn.__name__)
    def test_scalar_form_names_the_phase(self, fn):
        cfg = ExperimentConfig(g=1.0, ell=5, alpha_mag=1.0, theta=0.0, phi=1e308)
        with pytest.raises(ValueError, match="^2 ell phi must be finite$"):
            fn(cfg)
        with pytest.raises(ValueError, match="^2 ell phi must be finite$"):
            run_lossless(cfg)

    @pytest.mark.parametrize("fn", FORMS, ids=lambda fn: fn.__name__)
    def test_the_phase_fails_before_a_hyperbolic(self, fn):
        # at g = 800 cosh g and cosh 2g overflow: with a finite phase every
        # form fails there, and with an overflowing one it names the phase
        hot = dict(g=800.0, ell=5, alpha_mag=1.0, theta=1.0, transmissivity=0.5)
        with pytest.raises(OverflowError):
            fn(ExperimentConfig(**hot, phi=0.1))
        with pytest.raises(ValueError, match="^2 ell phi must be finite$"):
            fn(ExperimentConfig(**hot, phi=1e308))

    @pytest.mark.parametrize("table", TABLES, ids=lambda fn: fn.__name__)
    def test_array_inputs_stay_nan(self, table):
        phi = np.array([1e308, 0.1, -1e308])
        values = table(1.0, 5, 1.0, 0.3, phi, 0.5)
        assert [math.isnan(v) for v in values] == [True, False, True]
        assert values[1] == table(1.0, 5, 1.0, 0.3, 0.1, 0.5)
        with pytest.raises(ValueError, match="^2 ell phi must be finite$"):
            table(1.0, 5, 1.0, 0.3, -1e308, 0.5)

    @pytest.mark.parametrize("quantity", ["signal", "sensitivity", "sensitivity_lossy"])
    def test_sweep_names_the_phase(self, quantity):
        text = f"g = 1\nell = 5\nalpha_sq = 1\nquantity = {quantity}\nsweep = phi 1e307 9e307 5\n"
        result = assert_matches_per_point(text)
        assert result.metadata["undefined"] == (
            f"4 of 5; {quantity} failed at (phi=3e+307): 2 ell phi must be finite"
        )

    def test_a_form_without_the_phase_is_defined(self):
        cfg = ExperimentConfig(g=1.0, ell=5, alpha_mag=1.0, theta=0.0, phi=1e308)
        for name in ("qcrb", "snl", "hl", "visibility"):
            assert math.isfinite(SCALAR[name](cfg))


def test_table_broadcasts_and_names_the_failing_point():
    g = np.array([[0.0], [0.5]])
    alpha = np.array([0.0, 1.0, 2.0])
    values = metrology.snl_table(g[1:], 1, alpha, 0.0, 0.0, 1.0)
    assert values.shape == (1, 3)
    for a, value in zip(alpha, values[0]):
        cfg = ExperimentConfig(g=0.5, ell=1, alpha_mag=float(a), theta=0.0, phi=0.0)
        assert value == shot_noise_limit(cfg)
    # arrays never raise: the undefined point is nan, and the scalar call
    # there raises the closed form's error
    values = metrology.snl_table(g, 1, alpha, 0.0, 0.0, 1.0)
    assert values.shape == (2, 3)
    assert [math.isnan(v) for v in values.ravel()] == [True] + [False] * 5
    with pytest.raises(ValueError, match="zero photon number"):
        metrology.snl_table(0.0, 1, 0.0, 0.0, 0.0, 1.0)


def test_scalar_inputs_give_the_scalar_value():
    cfg = ExperimentConfig(g=1.3, ell=2, alpha_mag=2.5, theta=0.2, phi=0.1, transmissivity=0.4)
    fields = (cfg.g, cfg.ell, cfg.alpha_mag, cfg.theta, cfg.phi, cfg.transmissivity)
    for name, fn in SCALAR.items():
        assert float(metrology.TABLE[name](*fields)) == fn(cfg)


@pytest.mark.parametrize("figure", ["fig2", "fig3", "fig4", "fig6"])
def test_figure_rows_equal_direct_calls(figure):
    result = reproduce(figure)
    if figure == "fig4":
        assert [row[:3] for row in result.rows] == [
            (g, asq, quantity)
            for asq in (10.0, 100.0, 1000.0)
            for g in np.linspace(0.25, 3.0, 56).tolist()
            for quantity in ("sensitivity_opt", "qcrb")
        ]
    for row in result.rows:
        if figure == "fig4":
            g, asq, quantity, value, _ = row
            if quantity == "sensitivity_opt":
                assert value == optimal_sensitivity(g, 1, math.sqrt(asq))
            else:
                cfg = ExperimentConfig(g=g, ell=1, alpha_mag=math.sqrt(asq), theta=0.0, phi=0.0)
                assert value == quantum_cramer_rao_bound(cfg)
            continue
        if figure == "fig2":
            phi, theta, value, _ = row
            cfg = ExperimentConfig(g=1.0, ell=3, alpha_mag=math.sqrt(10.0), theta=theta, phi=phi)
            assert value == homodyne_mean(cfg)
            continue
        phi, quantity, value, _ = row
        cfg = ExperimentConfig(
            g=2.0,
            ell=1,
            alpha_mag=10.0,
            theta=math.pi / 2.0,
            phi=phi,
            transmissivity=1.0 if figure == "fig3" else 0.62,
        )
        fn = {"snl": shot_noise_limit, "sensitivity": sensitivity}.get(quantity, sensitivity_lossy)
        expected = fn(cfg)
        assert value == expected or (math.isinf(value) and math.isinf(expected))


# sweeps whose columns repeat entries or hold the entries a text map could
# confuse: inf, nan, one value throughout, and zeros of both signs
EDGE_SWEEPS = {
    "signal over phi": "g = 1\nell = 3\nalpha_sq = 10\nquantity = signal\nsweep = phi 0 1 40\n",
    "sensitivity 200x50": (
        "g = 2\nalpha_sq = 100\nquantity = sensitivity\n"
        "sweep = phi 0 3.141592653589793 200\nsweep = theta 0 3 50\n"
    ),
    "snl over phi": "g = 1\nalpha_sq = 4\nquantity = snl\nsweep = phi 0 3 25\n",
    "qcrb to overflow": "alpha_sq = 1\nquantity = qcrb\nsweep = g 0 700 8\n",
    "signal at zero input": (
        "g = 0\nalpha_sq = 0\nquantity = signal\nsweep = theta -3.14159 3.14159 9\n"
        "sweep = phi -1.5707963267948966 1.5707963267948966 7\n"
    ),
}

# one sweep of each table quantity; g and ell are max_loss's axes too
TABLE_SWEEPS = {
    f"{quantity} over g and ell": f"{BASE}quantity = {quantity}\nsweep = g 0 3 13\nsweep = ell 1 4 4\n"
    for quantity in metrology.TABLE
}

POINT = "g = 2.69\nell = 2\nalpha_sq = 84.6\ntheta = 1.18\nphi = 1.48\ntransmissivity = 0.62\n"


def _rendered(case, tmp_path, monkeypatch):
    """The result a figure, a sweep, ``eval`` or ``max-loss`` writes, and its CSV."""
    if case in FIGURE_IDS:
        result = reproduce(case)
        return result, to_csv(result)
    sweeps = {**EDGE_SWEEPS, **TABLE_SWEEPS}
    if case in sweeps:
        result = run_sweep(parse_config(sweeps[case]))
        return result, to_csv(result)
    # eval and max-loss build their row inside main: catch what they render
    rendered = []

    def spy(result):
        rendered.append((result, to_csv(result)))
        return rendered[-1][1]

    monkeypatch.setattr(cli, "to_csv", spy)
    path = tmp_path / "point.txt"
    path.write_text(POINT)
    assert main([case, "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 0
    (only,) = rendered
    return only


@pytest.mark.parametrize("case", [*FIGURE_IDS, *EDGE_SWEEPS, "eval", "max-loss"])
def test_csv_rows_are_the_repr_of_each_value(case, tmp_path, monkeypatch):
    result, text = _rendered(case, tmp_path, monkeypatch)
    body = without_timestamp(text).splitlines()[-len(result.rows):]
    assert body == [
        ",".join(v if isinstance(v, str) else repr(float(v)) for v in row) for row in result.rows
    ]


def test_edge_sweeps_keep_their_edges():
    values = {
        name: [row[-2] for row in run_sweep(parse_config(text)).rows]
        for name, text in EDGE_SWEEPS.items()
    }
    assert len(set(values["signal over phi"])) == len(values["signal over phi"])
    assert any(map(math.isinf, values["sensitivity 200x50"]))
    assert len(set(values["snl over phi"])) == 1 < len(values["snl over phi"])
    assert any(map(math.isnan, values["qcrb to overflow"]))
    signs = {math.copysign(1.0, v) for v in values["signal at zero input"] if v == 0.0}
    assert signs == {1.0, -1.0}


@pytest.mark.parametrize("case", [*FIGURE_IDS, *TABLE_SWEEPS, "eval", "max-loss"])
def test_every_row_entry_is_a_float_or_a_str(case, tmp_path, monkeypatch):
    # to_csv formats each distinct entry once, keyed by value: 1, 1.0 and
    # True would share a text
    result, _ = _rendered(case, tmp_path, monkeypatch)
    assert {type(v) for row in result.rows for v in row} <= {float, str}


class TestAxisDomain:
    @pytest.mark.parametrize(
        "axis, fragment",
        [
            ("g -1 1 3", "g axis must produce values >= 0"),
            ("alpha_sq -4 4 3", "alpha_sq axis must produce values >= 0"),
            ("transmissivity 0 2 3", r"transmissivity axis must produce values in \[0, 1\]"),
            ("transmissivity -0.5 1 3", r"transmissivity axis must produce values in \[0, 1\]"),
            ("phi -1e308 1e308 3", "phi axis must produce finite values"),
        ],
    )
    def test_rejected_at_parse_time_with_the_line(self, axis, fragment):
        with pytest.raises(ConfigError, match=rf"^line 3: {fragment}"):
            parse_config(f"alpha_sq = 1\nquantity = signal\nsweep = {axis}\n")

    def test_values_are_built_once_and_read_only(self):
        axis = SweepAxis("g", 2.0, 0.0, 5)
        assert axis.values() is axis.values()
        assert not axis.values().flags.writeable
        assert axis.values().tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert axis == SweepAxis("g", 2.0, 0.0, 5)
        assert repr(axis) == "SweepAxis(name='g', start=2.0, stop=0.0, count=5)"

    def test_axis_built_in_code_is_checked_too(self):
        with pytest.raises(ValueError, match="^g axis must produce values >= 0"):
            SweepAxis("g", -1.0, 1.0, 3)

    def test_edges_of_the_domain_are_accepted(self):
        spec = parse_config(
            "quantity = signal\nsweep = g 0 1 2\nsweep = transmissivity 0 1 2\n"
        )
        assert [a.name for a in spec.axes] == ["g", "transmissivity"]


class TestGridSizeCap:
    # parse-only: none of these grids is ever evaluated

    def test_one_axis_over_the_cap(self):
        with pytest.raises(ConfigError, match=r"^line 2: sweep grid of \d+ points exceeds"):
            parse_config(f"quantity = signal\nsweep = phi 0 1 {MAX_SWEEP_POINTS + 1}\n")

    def test_extreme_count_is_rejected_before_allocation(self):
        with pytest.raises(ConfigError, match="line 2: sweep grid of 10{18} points"):
            parse_config("quantity = signal\nsweep = phi 0 1 1e18\n")

    def test_product_over_the_cap_names_the_second_axis(self):
        side = math.isqrt(MAX_SWEEP_POINTS) + 1
        assert side * side > MAX_SWEEP_POINTS
        with pytest.raises(ConfigError, match=rf"^line 3: sweep grid of {side * side} points"):
            parse_config(f"quantity = signal\nsweep = phi 0 1 {side}\nsweep = theta 0 1 {side}\n")

    def test_grid_at_the_cap_parses(self):
        spec = parse_config(
            f"quantity = signal\nsweep = phi 0 1 {MAX_SWEEP_POINTS // 1000}\nsweep = theta 0 1 1000\n"
        )
        assert math.prod(a.count for a in spec.axes) == MAX_SWEEP_POINTS
