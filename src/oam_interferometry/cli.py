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
import functools
import hashlib
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from . import __version__, metrology
from .metrology import ExperimentConfig
from .validation import PRESETS, run_validation

QUANTITIES = tuple(metrology.TABLE)

# max_loss optimises phi/theta internally and solves for T itself
_MAX_LOSS_AXES = ("g", "ell", "alpha_sq")

# Largest sweep grid (product of the axis counts), checked at parse time before
# anything is allocated.  A grid is evaluated and formatted at once: the peak
# resident memory at the cap is about 95 bytes per point after run_sweep and
# 295 after to_csv (562 MB), so the cap keeps a sweep under about 1 GB.
MAX_SWEEP_POINTS = 2_000_000

# the config-file fields, in metrology.TABLE's argument order, and their defaults
_DEFAULTS = {
    "g": 0.0,
    "ell": 1,
    "alpha_sq": 0.0,
    "theta": 0.0,
    "phi": 0.0,
    "transmissivity": 1.0,
}
_FIELDS = tuple(_DEFAULTS)


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
        # a sweep evaluates its grid at once and builds no per-point config,
        # so ExperimentConfig's rules are checked here on the whole axis, kept
        # for values() outside the fields (equality and repr are unchanged)
        if self.count < 1:
            raise ValueError("sweep count must be >= 1")
        if not math.isfinite(self.stop - self.start):
            raise ValueError(f"{self.name} axis must produce finite values")
        values = np.sort(np.linspace(self.start, self.stop, self.count))
        values.flags.writeable = False
        object.__setattr__(self, "_values", values)
        if self.name == "ell" and (
            np.any(np.abs(values - np.round(values)) > 1e-9) or round(values[0]) < 1
        ):
            raise ValueError("ell axis must produce positive integers")
        if self.name in ("g", "alpha_sq") and values[0] < 0:
            raise ValueError(f"{self.name} axis must produce values >= 0")
        if self.name == "transmissivity" and not (0.0 <= values[0] and values[-1] <= 1.0):
            raise ValueError("transmissivity axis must produce values in [0, 1]")

    def values(self) -> np.ndarray:
        return self._values


@dataclass(frozen=True)
class SweepSpec:
    base: ExperimentConfig
    axes: tuple[SweepAxis, ...]
    quantity: str


# One CSV column over a result's rows, ``(entries, inner, outer)``: the
# entries, each repeated ``inner`` times in a row, and that whole run ``outer``
# times.  An open grid's axis is its values, repeated over the inner axes and
# outer times over the outer ones; a value or flag column has one entry per
# row.  The entries are all ``float`` or all ``str``.
Column = tuple[list, int, int]


def _expand(items: list, inner: int, outer: int) -> list:
    """``items`` laid out over the rows as a column lays out its entries, the
    same objects repeated; the list itself where nothing repeats."""
    if inner > 1:
        items = np.repeat(np.array(items, dtype=object), inner).tolist()
    return items * outer if outer > 1 else items


@dataclass(frozen=True, init=False)
class SweepResult:
    """A CSV's column names, each column's ``Column`` data and the header
    metadata.

    ``to_csv`` formats each column from its entries; ``rows`` is derived.
    A result made with ``rows=`` takes its columns from those row tuples, one
    entry per row, in place of ``data``, so ``dataclasses.replace(result,
    rows=...)`` is the result of the new rows.
    """

    columns: tuple[str, ...]
    data: tuple[Column, ...]
    metadata: dict

    def __init__(self, columns, data=(), metadata=None, *, rows=None):
        if rows is not None:
            rows = tuple(rows)
            data = tuple((list(column), 1, 1) for column in zip(*rows))
            self.__dict__["rows"] = rows  # the cached view is the rows given
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "metadata", {} if metadata is None else metadata)

    @functools.cached_property
    def rows(self) -> tuple[tuple, ...]:
        """The row tuples, built on first read: each is ``(*coordinates,
        value, flag)`` for a sweep, its entries the columns' own objects."""
        return tuple(zip(*(_expand(*column) for column in self.data)))


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
    """The working point of a file's scalars; an error names its field's line."""
    values = {**_DEFAULTS, **scalars}
    # alpha_sq is a file key, not a config field: its sign goes before its root
    if values["alpha_sq"] < 0:
        raise ConfigError(f"line {line_of.get('alpha_sq', '?')}: alpha_sq must be >= 0")
    try:
        return ExperimentConfig(
            g=values["g"],
            ell=values["ell"],
            alpha_mag=math.sqrt(values["alpha_sq"]),
            theta=values["theta"],
            phi=values["phi"],
            transmissivity=values["transmissivity"],
        )
    except ValueError as exc:
        field = str(exc).split(maxsplit=1)[0]
        raise ConfigError(f"line {line_of.get(field, '?')}: {exc}") from None


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
        if key in _FIELDS:
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
            if name not in _FIELDS:
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


def render_config(config: ExperimentConfig) -> str:
    """Canonical config text; parse_config(render_config(c)) == c wherever
    |alpha|^2 is a normal double, since then sqrt(x * x) == x exactly."""
    return "\n".join(
        [
            f"g = {config.g!r}",
            f"ell = {config.ell}",
            f"alpha_sq = {config.alpha_mag * config.alpha_mag!r}",
            f"theta = {config.theta!r}",
            f"phi = {config.phi!r}",
            f"transmissivity = {config.transmissivity!r}",
        ]
    )


def render_sweep(spec: SweepSpec) -> str:
    """Canonical text of a whole sweep: the base config, the quantity and one
    line per axis; parse_config(render_sweep(s)) == s wherever render_config
    round-trips the base."""
    axes = [f"sweep = {a.name} {a.start!r} {a.stop!r} {a.count}" for a in spec.axes]
    return "\n".join([render_config(spec.base), f"quantity = {spec.quantity}", *axes])


# the flag of each code: 1 inf, 2 nan, 3 a max_loss of 0
_FLAG_TEXTS = np.array(["", "divergent", "non-finite", "no-sub-snl-region"], dtype=object)


def _flags(values, quantity: str = "") -> list[str]:
    """Flag column for numeric results: inf is divergent, nan non-finite, and
    a max_loss of 0 means no loss keeps the optimum below the shot-noise limit."""
    values = np.ravel(values)
    codes = np.isinf(values) + 2 * np.isnan(values)
    if quantity == "max_loss":
        codes[values == 0.0] = 3
    return _FLAG_TEXTS[codes].tolist()


def _grid_columns(axis_values: Sequence[np.ndarray]) -> list[Column]:
    """The coordinate columns of an open grid, in C order: each axis's Python
    values, repeated over the inner axes and outer times over the outer ones."""
    shape = [len(v) for v in axis_values]
    return [
        (values.tolist(), math.prod(shape[i + 1 :]), math.prod(shape[:i]))
        for i, values in enumerate(axis_values)
    ]


def _value_columns(value, quantity: str = "") -> list[Column]:
    """The value and flag columns of a grid's values, in C order."""
    return [(np.ravel(value).tolist(), 1, 1), (_flags(value, quantity), 1, 1)]


def _table_inputs(base: ExperimentConfig, axes: Sequence[SweepAxis], values) -> list:
    """The six table inputs: each swept field from ``values`` (open-grid
    arrays, or one point's floats), every other field the base config's."""
    # keyed by field, in table order; "alpha_sq" carries |alpha|
    base_values = (base.g, base.ell, base.alpha_mag, base.theta, base.phi, base.transmissivity)
    inputs = dict(zip(_FIELDS, base_values))
    for axis, value in zip(axes, values):
        if axis.name == "alpha_sq":
            value = np.sqrt(value)
        elif axis.name == "ell":
            value = np.round(value)
        inputs[axis.name] = value
    return list(inputs.values())


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


def _metadata(quantity: str, params: str) -> dict:
    """The header's quantity and the hash of the parameters' text."""
    return {"quantity": quantity, "config_sha256": hashlib.sha256(params.encode()).hexdigest()}


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the grid; its rows are in lexicographic axis order.

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

    metadata = {
        **_metadata(spec.quantity, render_sweep(spec)),
        "axes": ";".join(f"{a.name}[{a.start!r}:{a.stop!r}:{a.count}]" for a in axes),
    }
    undefined = np.flatnonzero(np.isnan(value))  # row indices: rows are in C order
    if undefined.size:
        index = np.unravel_index(undefined[0], value.shape)
        error = _failed_at(spec, [float(v[i]) for v, i in zip(axis_values, index)])
        if undefined.size == value.size:
            raise error
        metadata["undefined"] = f"{undefined.size} of {value.size}; {error}"
    columns = tuple(a.name for a in axes) + ("value", "flag")
    data = (*_grid_columns(axis_values), *_value_columns(value, spec.quantity))
    return SweepResult(columns=columns, data=data, metadata=metadata)


def _column_texts(column: Column) -> list[str]:
    """The text of each row's entry: ``str`` called once per distinct entry,
    a ``str`` entry taken as it is, then laid out over the rows.

    0.0 and -0.0 are one key with two texts, so a zero is formatted by
    itself; each nan object is its own key, found by identity.
    """
    entries, inner, outer = column
    if entries and not isinstance(entries[0], str):
        distinct = set(entries)
        if len(distinct) == len(entries):
            entries = list(map(str, entries))
        else:
            text = {v: str(v) for v in distinct}
            entries = [text[v] if v else str(v) for v in entries]
    return _expand(entries, inner, outer)


def to_csv(result: SweepResult) -> str:
    """Render a result as CSV with a '#'-prefixed metadata header.

    The generated-at line is the only non-deterministic one; everything else
    is byte-stable for identical inputs.  Each entry is its ``str``, the
    shortest round-tripping repr for a float, formatted from its column's
    entries once per distinct entry; the rows are never built.  That is
    exact because a column holds only ``float`` or only ``str`` entries (a
    dict would take 1, 1.0 and True for one key).
    """
    lines = [f"# oam-interferometry {__version__}"]
    for key, value in result.metadata.items():
        lines.append(f"# {key}={value}")
    lines.append("# angles=radians")
    lines.append(f"# generated={datetime.now(timezone.utc).isoformat()}")
    lines.append(",".join(result.columns))
    # the column texts are freed before the join, and the final newline ends
    # an empty last line instead of copying the whole text
    lines.extend(map(",".join, zip(*[_column_texts(c) for c in result.data])))
    lines.append("")
    return "\n".join(lines)


# --- figure datasets -------------------------------------------------------

FIGURE_HELP = {
    "fig2": "homodyne signal vs rotation angle and input phase (g=1, ell=3, alpha_sq=10)",
    "fig3": "sensitivity vs rotation angle with the shot-noise line (g=2, ell=1, alpha_sq=100)",
    "fig4": "optimal sensitivity and quantum bound vs squeezing (ell=1; alpha_sq 10/100/1000)",
    "fig6": "lossy sensitivity vs rotation angle at T=0.62 (g=2, ell=1, alpha_sq=100)",
    "fig7": "maximum allowable loss at g=2, ell=1, alpha_sq=100 (single row)",
    "fig8": "maximum allowable loss vs squeezing (ell=1; alpha_sq 10/100/1000)",
}

FIGURE_IDS = tuple(FIGURE_HELP)


def _figure_metadata(figure_id: str, quantity: str, params: str) -> dict:
    return {"figure": figure_id, **_metadata(quantity, params)}


def _max_loss_result(g: float, ell: int, alpha_mag: float, metadata: dict) -> SweepResult:
    """The one-row maximum allowable loss at a working point."""
    loss = metrology.max_allowable_loss(g, ell, alpha_mag)
    row = (g, float(ell), alpha_mag * alpha_mag, loss)
    return SweepResult(
        ("g", "ell", "alpha_sq", "value", "flag"),
        (*(([entry], 1, 1) for entry in row), (_flags(loss, "max_loss"), 1, 1)),
        metadata,
    )


def reproduce(figure_id: str) -> SweepResult:
    """Emit the dataset behind a named figure with its parameters baked in."""
    if figure_id == "fig2":
        phis = np.linspace(-math.pi / 2.0, math.pi / 2.0, 101)
        thetas = np.linspace(-math.pi, math.pi, 81)
        phi, theta = np.ix_(phis, thetas)
        value = metrology.signal_table(1.0, 3, math.sqrt(10.0), theta, phi, 1.0)
        return SweepResult(
            ("phi", "theta", "value", "flag"),
            (*_grid_columns((phis, thetas)), *_value_columns(value)),
            _figure_metadata("fig2", "signal", "g=1,ell=3,alpha_sq=10"),
        )

    if figure_id in ("fig3", "fig6"):
        t = 1.0 if figure_id == "fig3" else 0.62
        quantity = "sensitivity" if figure_id == "fig3" else "sensitivity_lossy"
        phis = np.linspace(0.0, math.pi, 201)
        point = (2.0, 1, 10.0, math.pi / 2.0)  # g, ell, |alpha|, theta
        values = metrology.TABLE[quantity](*point, phis, t)
        # the quantity is an inner axis, so each phi has its two rows in turn
        snl = np.broadcast_to(metrology.snl_table(*point, 0.0, t), values.shape)
        value = np.stack([values, snl], axis=-1)
        return SweepResult(
            ("phi", "quantity", "value", "flag"),
            (*_grid_columns((phis, np.array([quantity, "snl"]))), *_value_columns(value)),
            _figure_metadata(figure_id, quantity, f"g=2,ell=1,alpha_sq=100,theta=pi/2,T={t}"),
        )

    if figure_id == "fig4":
        alpha_sqs = np.array([10.0, 100.0, 1000.0])
        gs = np.linspace(0.25, 3.0, 56)
        alpha_sq_grid, g_grid = np.ix_(alpha_sqs, gs)
        point = (g_grid, 1, np.sqrt(alpha_sq_grid), 0.0, 0.0, 1.0)
        forms = {
            "sensitivity_opt": metrology.optimal_sensitivity_table,
            "qcrb": metrology.qcrb_table,
        }
        # the quantity is a third, innermost axis, so each g has its two rows in turn
        value = np.stack([form(*point) for form in forms.values()], axis=-1)
        asq, g, quantity = _grid_columns((alpha_sqs, gs, np.array(list(forms))))
        # g is written before alpha_sq
        return SweepResult(
            ("g", "alpha_sq", "quantity", "value", "flag"),
            (g, asq, quantity, *_value_columns(value)),
            _figure_metadata("fig4", "sensitivity_opt+qcrb", "ell=1,alpha_sq=10|100|1000"),
        )

    if figure_id == "fig7":
        metadata = _figure_metadata("fig7", "max_loss", "g=2,ell=1,alpha_sq=100")
        return _max_loss_result(2.0, 1, 10.0, metadata)

    if figure_id == "fig8":
        alpha_sqs = np.array([10.0, 100.0, 1000.0])
        gs = np.linspace(0.5, 4.0, 36)
        alpha_sq_grid, g_grid = np.ix_(alpha_sqs, gs)
        value = metrology.max_loss_table(g_grid, 1, np.sqrt(alpha_sq_grid), 0.0, 0.0, 1.0)
        asq, g = _grid_columns((alpha_sqs, gs))
        # g is written before alpha_sq
        return SweepResult(
            ("g", "alpha_sq", "value", "flag"),
            (g, asq, *_value_columns(value, "max_loss")),
            _figure_metadata("fig8", "max_loss", "ell=1,alpha_sq=10|100|1000"),
        )

    raise ConfigError(f"unknown figure {figure_id!r} (expected one of {', '.join(FIGURE_IDS)})")


# --- entry points ----------------------------------------------------------


def _read_config(path: str):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return parse_config(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    try:
        if out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
            return
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        target = "<stdout>" if out is None else repr(out)
        raise ConfigError(f"cannot write output {target}: {exc}") from exc


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
        config.g, float(config.ell), config.alpha_mag * config.alpha_mag, config.theta,
        config.phi, config.transmissivity, *values.values(), flag,
    )
    result = SweepResult(
        ("g", "ell", "alpha_sq", "theta", "phi", "transmissivity", *values, "flag"),
        tuple(([entry], 1, 1) for entry in row),
        _metadata("report", render_config(config)),
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
    result = _max_loss_result(
        config.g, config.ell, config.alpha_mag, _metadata("max_loss", render_config(config))
    )
    _emit(to_csv(result), args.out)
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

    p_eval = sub.add_parser("eval", help="full report for one working point")
    p_eval.set_defaults(func=_cmd_eval)

    p_sweep = sub.add_parser("sweep", help="evaluate a quantity over 1 or 2 axes")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_rep = sub.add_parser("reproduce", help="emit a named figure dataset")
    p_rep.add_argument(
        "figure",
        choices=FIGURE_IDS,
        help="; ".join(f"{k}: {v}" for k, v in FIGURE_HELP.items()),
    )
    p_rep.set_defaults(func=_cmd_reproduce)

    p_val = sub.add_parser("validate", help="cross-check closed forms, engine, and Fock oracle")
    p_val.add_argument("--preset", choices=PRESETS, default="quick")
    p_val.set_defaults(func=_cmd_validate)

    p_ml = sub.add_parser("max-loss", help="maximum allowable loss for a working point")
    p_ml.set_defaults(func=_cmd_max_loss)

    for p in (p_eval, p_sweep, p_ml):
        p.add_argument("--config", required=True, help="path to a key=value config file")
    for p in (p_eval, p_sweep, p_rep, p_val, p_ml):
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract reserves 2 for
        # validation failures, so usage problems map to 1
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, SweepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
