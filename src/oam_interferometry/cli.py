"""Command-line front end: config files, parameter sweeps, figure datasets,
and the cross-validation harness.

Config files are UTF-8 key=value lines with ``#`` comments.  Scalar keys:
``g``, ``ell``, ``alpha_sq``, ``theta``, ``phi``, ``transmissivity`` (angles
in radians, ``alpha_sq`` is the squared coherent amplitude).  A sweep adds
``quantity = <name>`` and one or two ``sweep = <param> <start> <stop>
<count>`` lines.  Output is CSV with a ``#``-prefixed metadata header; every
non-finite or sentinel value carries a flag column entry.  A point where the
quantity is undefined is a nan row, counted in an ``# undefined=`` header line.

Exit codes: 0 success, 1 usage/parse error or a sweep with no defined point,
2 validation failure.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from . import __version__, metrology
from .interferometer import ExperimentConfig
from .validation import run_validation

QUANTITIES = tuple(metrology.TABLE)

_SCALAR_KEYS = ("g", "ell", "alpha_sq", "theta", "phi", "transmissivity")
_AXIS_NAMES = _SCALAR_KEYS
# max_loss optimises phi/theta internally and solves for T itself
_MAX_LOSS_AXES = ("g", "ell", "alpha_sq")

# Largest sweep grid (product of the axis counts), checked at parse time before
# anything is allocated.  A grid is evaluated and formatted at once: measured
# peak memory is about 225 bytes per point after run_sweep and 455 after
# to_csv, so the cap keeps a sweep under about 1 GB.
MAX_SWEEP_POINTS = 2_000_000

_DEFAULTS = {
    "g": 0.0,
    "ell": 1,
    "alpha_sq": 0.0,
    "theta": 0.0,
    "phi": 0.0,
    "transmissivity": 1.0,
}


class ConfigError(ValueError):
    """Malformed or out-of-range configuration input."""


class SweepError(RuntimeError):
    """Evaluation failure inside a sweep, annotated with grid coordinates."""


@dataclass(frozen=True)
class SweepAxis:
    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        # every value the axis produces must be a valid working-point field:
        # a sweep evaluates its grid at once and builds no per-point config
        if self.count < 1:
            raise ValueError("sweep count must be >= 1")
        if not math.isfinite(self.stop - self.start):
            raise ValueError(f"{self.name} axis must produce finite values")
        values = self.values()
        if self.name == "ell" and (
            np.any(np.abs(values - np.round(values)) > 1e-9) or round(values[0]) < 1
        ):
            raise ValueError("ell axis must produce positive integers")
        if self.name in ("g", "alpha_sq") and values[0] < 0:
            raise ValueError(f"{self.name} axis must produce values >= 0")
        if self.name == "transmissivity" and not (0.0 <= values[0] and values[-1] <= 1.0):
            raise ValueError("transmissivity axis must produce values in [0, 1]")

    def values(self) -> np.ndarray:
        vals = np.linspace(self.start, self.stop, self.count)
        return np.sort(vals)


@dataclass(frozen=True)
class SweepSpec:
    base: ExperimentConfig
    axes: tuple[SweepAxis, ...]
    quantity: str


@dataclass(frozen=True)
class SweepResult:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: dict


def _parse_float(key: str, text: str, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"line {line_no}: {key} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"line {line_no}: {key} must be finite")
    return value


def _parse_int(key: str, text: str, line_no: int) -> int:
    value = _parse_float(key, text, line_no)
    if int(value) != value:
        raise ConfigError(f"line {line_no}: {key} must be an integer, got {text!r}")
    return int(value)


def _config_from_scalars(scalars: dict, line_of: dict) -> ExperimentConfig:
    values = dict(_DEFAULTS)
    values.update(scalars)
    if values["ell"] < 1:
        raise ConfigError(f"line {line_of.get('ell', '?')}: ell must be >= 1")
    if values["g"] < 0:
        raise ConfigError(f"line {line_of.get('g', '?')}: g must be >= 0")
    if values["alpha_sq"] < 0:
        raise ConfigError(f"line {line_of.get('alpha_sq', '?')}: alpha_sq must be >= 0")
    if not 0.0 <= values["transmissivity"] <= 1.0:
        raise ConfigError(
            f"line {line_of.get('transmissivity', '?')}: transmissivity must lie in [0, 1]"
        )
    return ExperimentConfig(
        g=values["g"],
        ell=int(values["ell"]),
        alpha_mag=math.sqrt(values["alpha_sq"]),
        theta=values["theta"],
        phi=values["phi"],
        transmissivity=values["transmissivity"],
    )


def parse_config(text: str) -> ExperimentConfig | SweepSpec:
    """Parse a key=value config; returns a sweep when sweep axes are present.

    Unknown keys are rejected; parse errors carry line numbers and range
    violations name the offending field.
    """
    scalars: dict = {}
    line_of: dict = {}
    axes: list[SweepAxis] = []
    quantity: str | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in _SCALAR_KEYS:
            if key in scalars:
                raise ConfigError(f"line {line_no}: duplicate key {key}")
            if key == "ell":
                scalars[key] = _parse_int(key, value, line_no)
            else:
                scalars[key] = _parse_float(key, value, line_no)
            line_of[key] = line_no
        elif key == "quantity":
            if quantity is not None:
                raise ConfigError(f"line {line_no}: duplicate key quantity")
            if value not in QUANTITIES:
                raise ConfigError(
                    f"line {line_no}: unknown quantity {value!r} "
                    f"(expected one of {', '.join(QUANTITIES)})"
                )
            quantity = value
        elif key == "sweep":
            parts = value.split()
            if len(parts) != 4:
                raise ConfigError(
                    f"line {line_no}: sweep needs '<param> <start> <stop> <count>'"
                )
            name = parts[0]
            if name not in _AXIS_NAMES:
                raise ConfigError(f"line {line_no}: unknown sweep parameter {name!r}")
            if any(axis.name == name for axis in axes):
                raise ConfigError(f"line {line_no}: duplicate sweep axis {name!r}")
            if len(axes) >= 2:
                raise ConfigError(f"line {line_no}: at most 2 sweep axes are supported")
            start = _parse_float("sweep start", parts[1], line_no)
            stop = _parse_float("sweep stop", parts[2], line_no)
            count = _parse_int("sweep count", parts[3], line_no)
            points = count * math.prod(axis.count for axis in axes)
            if points > MAX_SWEEP_POINTS:
                raise ConfigError(
                    f"line {line_no}: sweep grid of {points} points exceeds the limit "
                    f"of {MAX_SWEEP_POINTS}"
                )
            try:
                axes.append(SweepAxis(name, start, stop, count))
            except ValueError as exc:
                raise ConfigError(f"line {line_no}: {exc}") from None
        else:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")

    base = _config_from_scalars(scalars, line_of)
    if not axes and quantity is None:
        return base
    if not axes:
        raise ConfigError("quantity given but no sweep axes")
    if quantity is None:
        raise ConfigError("sweep axes given but no quantity")
    if quantity == "max_loss":
        for axis in axes:
            if axis.name not in _MAX_LOSS_AXES:
                raise ConfigError(
                    f"sweep axis {axis.name!r} not supported for max_loss "
                    f"(use one of {', '.join(_MAX_LOSS_AXES)})"
                )
    return SweepSpec(base=base, axes=tuple(axes), quantity=quantity)


def _alpha_sq_text(alpha_mag: float) -> str:
    # pick a representation whose sqrt round-trips to alpha_mag exactly
    v = alpha_mag * alpha_mag
    for cand in (v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf)):
        if math.sqrt(cand) == alpha_mag:
            return repr(cand)
    return repr(v)


def render_config(config: ExperimentConfig) -> str:
    """Canonical config text; parse_config(render_config(c)) == c."""
    return "\n".join(
        [
            f"g = {config.g!r}",
            f"ell = {config.ell}",
            f"alpha_sq = {_alpha_sq_text(config.alpha_mag)}",
            f"theta = {config.theta!r}",
            f"phi = {config.phi!r}",
            f"transmissivity = {config.transmissivity!r}",
        ]
    )


def _flags(values, quantity: str = "") -> list[str]:
    """Flag column for numeric results: inf is divergent, nan non-finite, and
    a max_loss of 0 means no loss keeps the optimum below the shot-noise limit."""
    values = np.asarray(values)
    flags = np.where(np.isinf(values), "divergent", np.where(np.isnan(values), "non-finite", ""))
    if quantity == "max_loss":
        flags = np.where(values == 0.0, "no-sub-snl-region", flags)
    return flags.ravel().tolist()


def _grid_rows(axis_values: Sequence[np.ndarray], value, flags: Sequence[str]) -> tuple:
    """Rows ``(*coordinates, value, flag)`` of an open grid, in C order."""
    shape = tuple(len(v) for v in axis_values)
    coords = [np.broadcast_to(grid, shape).ravel().tolist() for grid in np.ix_(*axis_values)]
    return tuple(zip(*coords, np.ravel(value).tolist(), flags))


def _table_inputs(base: ExperimentConfig, axes: Sequence[SweepAxis], values) -> list:
    """The six table inputs: each swept field from ``values`` (open-grid
    arrays, or one point's floats), every other field the base config's."""
    inputs = {  # keyed by axis name, in table order; "alpha_sq" carries |alpha|
        "g": base.g,
        "ell": base.ell,
        "alpha_sq": base.alpha_mag,
        "theta": base.theta,
        "phi": base.phi,
        "transmissivity": base.transmissivity,
    }
    for axis, value in zip(axes, values):
        if axis.name == "alpha_sq":
            value = np.sqrt(value)
        elif axis.name == "ell":
            value = np.round(value)
        inputs[axis.name] = value
    return [inputs[name] for name in _AXIS_NAMES]


def _failed_at(spec: SweepSpec, point: Sequence[float]) -> SweepError:
    """The error of one undefined grid point: the quantity evaluated at that
    point's scalars raises the closed form's own error."""
    try:
        metrology.TABLE[spec.quantity](*_table_inputs(spec.base, spec.axes, point))
        reason = "value is nan"  # an overflow to inf met 0 or inf, no step failed
    except (ValueError, ArithmeticError) as exc:
        reason = str(exc)
    coords = ", ".join(f"{a.name}={v:g}" for a, v in zip(spec.axes, point))
    return SweepError(f"{spec.quantity} failed at ({coords}): {reason}")


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the grid; rows come back in lexicographic axis order.

    The grid is one broadcast call of the quantity's table function on
    open-grid axis arrays.  Divergent and undefined (nan) values are flagged,
    not dropped; ``undefined`` in the metadata counts the latter and names the
    first in row order.  Only a grid with no defined point raises, a SweepError.
    """
    if spec.quantity not in metrology.TABLE:
        raise ConfigError(f"unknown quantity {spec.quantity!r}")
    axes = spec.axes
    axis_values = [axis.values() for axis in axes]
    value = metrology.TABLE[spec.quantity](*_table_inputs(spec.base, axes, np.ix_(*axis_values)))
    flags = _flags(value, spec.quantity)
    rows = _grid_rows(axis_values, value, flags)

    metadata = {
        "quantity": spec.quantity,
        "config_sha256": hashlib.sha256(render_config(spec.base).encode()).hexdigest(),
        "axes": ";".join(f"{a.name}[{a.start:g}:{a.stop:g}:{a.count}]" for a in axes),
    }
    undefined = np.flatnonzero(np.isnan(value))  # row indices: rows are in C order
    if undefined.size:
        error = _failed_at(spec, rows[undefined[0]][:-2])
        if undefined.size == len(rows):
            raise error
        metadata["undefined"] = f"{undefined.size} of {len(rows)}; {error}"
    columns = tuple(a.name for a in axes) + ("value", "flag")
    return SweepResult(columns=columns, rows=rows, metadata=metadata)


def to_csv(result: SweepResult, timestamp: bool = True) -> str:
    """Render a result as CSV with a '#'-prefixed metadata header.

    The generated-at line is the only non-deterministic one; everything else
    is byte-stable for identical inputs.
    """
    lines = [f"# oam-interferometry {__version__}"]
    for key, value in result.metadata.items():
        lines.append(f"# {key}={value}")
    lines.append("# angles=radians")
    if timestamp:
        lines.append(f"# generated={datetime.now(timezone.utc).isoformat()}")
    lines.append(",".join(result.columns))
    # rows hold Python floats and strings, and str(float) is the shortest
    # round-tripping repr
    row_format = ",".join(["%s"] * len(result.columns))
    lines.extend([row_format % row for row in result.rows])
    return "\n".join(lines) + "\n"


# --- figure datasets -------------------------------------------------------

FIGURE_IDS = ("fig2", "fig3", "fig4", "fig6", "fig7", "fig8")

FIGURE_HELP = {
    "fig2": "homodyne signal vs rotation angle and input phase (g=1, ell=3, alpha_sq=10)",
    "fig3": "sensitivity vs rotation angle with the shot-noise line (g=2, ell=1, alpha_sq=100)",
    "fig4": "optimal sensitivity and quantum bound vs squeezing (ell=1; alpha_sq 10/100/1000)",
    "fig6": "lossy sensitivity vs rotation angle at T=0.62 (g=2, ell=1, alpha_sq=100)",
    "fig7": "maximum allowable loss at g=2, ell=1, alpha_sq=100 (single row)",
    "fig8": "maximum allowable loss vs squeezing (ell=1; alpha_sq 10/100/1000)",
}


def _figure_metadata(figure_id: str, quantity: str, params: str) -> dict:
    return {
        "figure": figure_id,
        "quantity": quantity,
        "config_sha256": hashlib.sha256(params.encode()).hexdigest(),
    }


def reproduce(figure_id: str) -> SweepResult:
    """Emit the dataset behind a named figure with its parameters baked in."""
    if figure_id == "fig2":
        phis = np.linspace(-math.pi / 2.0, math.pi / 2.0, 101)
        thetas = np.linspace(-math.pi, math.pi, 81)
        phi, theta = np.ix_(phis, thetas)
        value = metrology.signal_table(1.0, 3, math.sqrt(10.0), theta, phi, 1.0)
        return SweepResult(
            ("phi", "theta", "value", "flag"),
            _grid_rows((phis, thetas), value, _flags(value)),
            _figure_metadata("fig2", "signal", "g=1,ell=3,alpha_sq=10"),
        )

    if figure_id in ("fig3", "fig6"):
        t = 1.0 if figure_id == "fig3" else 0.62
        quantity = "sensitivity" if figure_id == "fig3" else "sensitivity_lossy"
        phis = np.linspace(0.0, math.pi, 201)
        point = (2.0, 1, 10.0, math.pi / 2.0)  # g, ell, |alpha|, theta
        values = metrology.TABLE[quantity](*point, phis, t)
        snl = float(metrology.snl_table(*point, 0.0, t))
        rows = []
        for ph, value, flag in zip(phis.tolist(), values.tolist(), _flags(values)):
            rows.append((ph, quantity, value, flag))
            rows.append((ph, "snl", snl, ""))
        return SweepResult(
            ("phi", "quantity", "value", "flag"),
            tuple(rows),
            _figure_metadata(figure_id, quantity, f"g=2,ell=1,alpha_sq=100,theta=pi/2,T={t}"),
        )

    if figure_id == "fig4":
        gs = np.linspace(0.25, 3.0, 56)
        rows = []
        for asq in (10.0, 100.0, 1000.0):
            amag = math.sqrt(asq)
            sens = [metrology.optimal_sensitivity(g, 1, amag) for g in gs.tolist()]
            bound = metrology.qcrb_table(gs, 1, amag, 0.0, 0.0, 1.0).tolist()
            for g, s, b, s_flag, b_flag in zip(gs.tolist(), sens, bound, _flags(sens), _flags(bound)):
                rows.append((g, asq, "sensitivity_opt", s, s_flag))
                rows.append((g, asq, "qcrb", b, b_flag))
        return SweepResult(
            ("g", "alpha_sq", "quantity", "value", "flag"),
            tuple(rows),
            _figure_metadata("fig4", "sensitivity_opt+qcrb", "ell=1,alpha_sq=10|100|1000"),
        )

    if figure_id == "fig7":
        loss = metrology.max_allowable_loss(2.0, 1, 10.0).loss
        rows = ((2.0, 1.0, 100.0, loss, _flags([loss], "max_loss")[0]),)
        return SweepResult(
            ("g", "ell", "alpha_sq", "value", "flag"),
            rows,
            _figure_metadata("fig7", "max_loss", "g=2,ell=1,alpha_sq=100"),
        )

    if figure_id == "fig8":
        alpha_sqs = np.array([10.0, 100.0, 1000.0])
        gs = np.linspace(0.5, 4.0, 36)
        alpha_sq_grid, g_grid = np.ix_(alpha_sqs, gs)
        value = metrology.max_loss_table(g_grid, 1, np.sqrt(alpha_sq_grid), 0.0, 0.0, 1.0)
        rows = _grid_rows((alpha_sqs, gs), value, _flags(value, "max_loss"))
        return SweepResult(
            ("g", "alpha_sq", "value", "flag"),
            tuple((g, asq, v, flag) for asq, g, v, flag in rows),
            _figure_metadata("fig8", "max_loss", "ell=1,alpha_sq=10|100|1000"),
        )

    raise ConfigError(f"unknown figure {figure_id!r} (expected one of {', '.join(FIGURE_IDS)})")


# --- entry points ----------------------------------------------------------


def _read_config(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# eval's columns after the working point, each a closed form at that point:
# signal, fluctuation and sensitivity honour its transmissivity, and the
# benchmarks are the lossless references
EVAL_COLUMNS = (
    ("signal", metrology.signal_table),
    ("fluctuation", metrology.fluctuation_table),
    ("sensitivity", metrology.sensitivity_lossy_table),
    ("snl", metrology.snl_table),
    ("hl", metrology.hl_table),
    ("qcrb", metrology.qcrb_table),
    ("visibility", metrology.visibility_table),
)


def _cmd_eval(args) -> int:
    config = _read_config(args.config)
    if not isinstance(config, ExperimentConfig):
        raise ConfigError("eval expects a plain configuration, not sweep axes")
    # 0-d array inputs: a form is nan where it is undefined instead of raising
    inputs = [np.asarray(v) for v in _table_inputs(config, (), ())]
    values = {name: float(form(*inputs)) for name, form in EVAL_COLUMNS}
    # a divergent sensitivity names the row; any other undefined value flags it
    flag = _flags(values["sensitivity"])[0] or (
        "non-finite" if any(map(math.isnan, values.values())) else ""
    )
    row = (
        config.g, float(config.ell), config.alpha_mag**2, config.theta, config.phi,
        config.transmissivity, *values.values(), flag,
    )
    result = SweepResult(
        ("g", "ell", "alpha_sq", "theta", "phi", "transmissivity", *values, "flag"),
        (row,),
        {
            "quantity": "report",
            "config_sha256": hashlib.sha256(render_config(config).encode()).hexdigest(),
        },
    )
    _emit(to_csv(result), args.out)
    return 0


def _cmd_sweep(args) -> int:
    spec = _read_config(args.config)
    if not isinstance(spec, SweepSpec):
        raise ConfigError("sweep expects a config with sweep axes and a quantity")
    result = run_sweep(spec)
    _emit(to_csv(result), args.out)
    return 0


def _cmd_reproduce(args) -> int:
    result = reproduce(args.figure)
    _emit(to_csv(result), args.out)
    return 0


def _cmd_max_loss(args) -> int:
    config = _read_config(args.config)
    if not isinstance(config, ExperimentConfig):
        raise ConfigError("max-loss expects a plain configuration, not sweep axes")
    loss = metrology.max_allowable_loss(config.g, config.ell, config.alpha_mag).loss
    out = SweepResult(
        ("g", "ell", "alpha_sq", "value", "flag"),
        ((config.g, float(config.ell), config.alpha_mag**2, loss, _flags([loss], "max_loss")[0]),),
        {
            "quantity": "max_loss",
            "config_sha256": hashlib.sha256(render_config(config).encode()).hexdigest(),
        },
    )
    _emit(to_csv(out), args.out)
    return 0


def _cmd_validate(args) -> int:
    report = run_validation(args.preset)
    _emit(report.render() + "\n", args.out)
    return 0 if report.passed else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oam-interferometry",
        description=(
            "Angular-displacement estimation in an OAM-fed hybrid interferometer: "
            "homodyne signal, sensitivity, metrology benchmarks, loss robustness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p_eval = sub.add_parser("eval", help="full report for one working point")
    add_common(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_sweep = sub.add_parser("sweep", help="evaluate a quantity over 1 or 2 axes")
    add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_rep = sub.add_parser("reproduce", help="emit a named figure dataset")
    p_rep.add_argument(
        "figure",
        choices=FIGURE_IDS,
        help="; ".join(f"{k}: {v}" for k, v in FIGURE_HELP.items()),
    )
    add_common(p_rep, config_required=False)
    p_rep.set_defaults(func=_cmd_reproduce)

    p_val = sub.add_parser("validate", help="cross-check closed forms, engine, and Fock force")
    p_val.add_argument("--preset", choices=("quick", "full"), default="quick")
    p_val.add_argument("--out", default=None, help="output path (default: stdout)")
    p_val.set_defaults(func=_cmd_validate)

    p_ml = sub.add_parser("max-loss", help="maximum allowable loss for a working point")
    add_common(p_ml)
    p_ml.set_defaults(func=_cmd_max_loss)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract reserves 2 for
        # validation failures, so usage problems map to 1
        return 0 if exc.code in (0, None) else 1
    print("note: theta and phi are interpreted as radians", file=sys.stderr)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, SweepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
