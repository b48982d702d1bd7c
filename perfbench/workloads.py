"""The four benchmark workloads: seeded inputs, the timed call of each op, and
the correctness gate that checks its outputs outside the timed region.

A workload is a fixed list of op templates, one cycle.  The seed draws every
parameter value and the order of the ops in the cycle; the shapes (sweep
sizes, figure ids) are fixed, so every seed gives a cycle of the same cost
and the medians compare across seeds.  ``tiny`` shrinks the shapes for the
self-tests.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np

# ops call the package through module attributes, where the tracer's
# wrappers are installed
from oam_interferometry import cli, interferometer, metrology, validation
from oam_interferometry.interferometer import (
    ExperimentConfig,
    mean_photon_number,
    quadrature_mean,
    quadrature_second_moment,
    run_lossless,
    run_lossy,
)
from oam_interferometry.phase_space import photon_number

WORKLOADS = ("sweep", "maxloss", "validate_cold", "engine")
TWO_PI = 2.0 * math.pi
RUN_PY = Path(__file__).resolve().parent / "run.py"

VALUE_RTOL = 1e-12  # sweep value vs a direct scalar metrology call
ENGINE_SIGNAL_TOL = 1e-9  # sweep signal vs the engine's quadrature_mean
VISIBILITY_TOL = 1e-12
ROOT_TOL = 2e-6  # max-loss transmissivity vs the closed-form root
FIG7_LOSS, FIG7_TOL = 0.38, 0.01
SAMPLES_PER_OP = 32

SCALAR_QUANTITIES = {
    "signal": metrology.homodyne_mean_lossy,
    "sensitivity": metrology.sensitivity,
    "sensitivity_lossy": metrology.sensitivity_lossy,
    "qcrb": metrology.quantum_cramer_rao_bound,
    "snl": metrology.shot_noise_limit,
    "hl": metrology.heisenberg_limit,
    "visibility": metrology.visibility,
}


@dataclasses.dataclass
class Op:
    """One user-level operation: ``call`` is timed, ``check`` is not.

    ``check`` takes the outputs and returns the list of problems found.
    """

    label: str
    points: int
    call: object
    check: object

    def execute(self, tracer):
        with tracer.op(self.label):
            start = time.perf_counter()
            out = self.call()
            return time.perf_counter() - start, out


class ChildOp(Op):
    """An op run in a fresh interpreter, so nothing the package caches
    survives from an earlier op.  The child times the call itself, after its
    imports."""

    def execute(self, tracer):
        with tracer.op(self.label):
            proc = subprocess.run(
                [sys.executable, str(RUN_PY), "--child-op", self.label,
                 "--trace", "1" if tracer.enabled else "0"],
                capture_output=True, text=True, timeout=170, check=False,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"child op {self.label} exited {proc.returncode}: {proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.splitlines()[-1])
            tracer.absorb(result["spans"], result["counters"])
            return result["seconds"], result["outputs"]


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The op list of one cycle."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = {
        "sweep": _sweep_ops,
        "maxloss": _maxloss_ops,
        "validate_cold": _validate_ops,
        "engine": _engine_ops,
    }[workload](rng, tiny)
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# --- helpers -----------------------------------------------------------------


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _config(params: dict) -> ExperimentConfig:
    return ExperimentConfig(
        g=params["g"],
        ell=int(round(params["ell"])),
        alpha_mag=math.sqrt(params["alpha_sq"]),
        theta=params["theta"],
        phi=params["phi"],
        transmissivity=params["transmissivity"],
    )


def _config_text(base: dict, quantity: str, axes) -> str:
    lines = [f"{key} = {value!r}" for key, value in base.items()]
    lines.append(f"quantity = {quantity}")
    lines += [f"sweep = {name} {start!r} {stop!r} {count}" for name, start, stop, count in axes]
    return "\n".join(lines) + "\n"


def _grid(axes) -> list[tuple]:
    """The grid coordinates ``run_sweep`` must emit, in lexicographic order."""
    values = [np.sort(np.linspace(a, b, c)) for _, a, b, c in axes]
    return [tuple(float(v) for v in point) for point in itertools.product(*values)]


def _close(actual: float, expected: float, rtol: float) -> bool:
    if math.isinf(expected) or math.isinf(actual):
        return actual == expected
    return abs(actual - expected) <= rtol * abs(expected)


def _guarded(actual: float, expected: float) -> float:
    return abs(actual - expected) / max(1.0, abs(expected))


def _check_csv(result, text: str) -> list[str]:
    body = [line for line in text.splitlines() if not line.startswith("#")]
    if body[:1] != [",".join(result.columns)] or len(body) != len(result.rows) + 1:
        return [f"csv has {len(body) - 1} data lines for {len(result.rows)} rows"]
    return []


def _sample(n: int, label: str) -> list[int]:
    """A fixed sample of row indices for the value checks."""
    rng = np.random.default_rng([zlib.crc32(label.encode()), n])
    return sorted(set(rng.integers(0, n, size=min(n, SAMPLES_PER_OP)).tolist()))


def _cli_op(label: str, points: int, text: str, check_rows) -> Op:
    def call():
        result = cli.run_sweep(cli.parse_config(text))
        return result, cli.to_csv(result)

    def check(out):
        result, csv_text = out
        return check_rows(result) + _check_csv(result, csv_text)

    return Op(label, points, call, check)


def _figure_op(figure: str, rows: int, check_rows) -> Op:
    def call():
        result = cli.reproduce(figure)
        return result, cli.to_csv(result)

    def check(out):
        result, csv_text = out
        problems = [] if len(result.rows) == rows else [f"{figure}: {len(result.rows)} rows, expected {rows}"]
        return problems + check_rows(result) + _check_csv(result, csv_text)

    return Op(figure, rows, call, check)


# --- sweep -------------------------------------------------------------------

# 1-D sweeps stay below cli's 64-point thread-pool threshold and 2-D sweeps
# go through the pool; the 200x50 sensitivity sweep is the reference size.
# Each quantity gets four 1-D sweeps, one per axis listed, with sizes on a
# ramp from 8 to 63 points: 28 small ops of graded cost against 11 large ones
# (the 2-D sweeps and the figures), so the median op falls inside the ramp and
# not on the gap between small and large.  Sweeps over alpha_sq from 0 or T
# from 0 give the sensitivities divergent points to flag.
SWEEP_1D_AXES = {
    "signal": ("phi", "theta", "g", "alpha_sq"),
    "sensitivity": ("alpha_sq", "phi", "theta", "g"),
    "sensitivity_lossy": ("transmissivity", "phi", "alpha_sq", "theta"),
    "qcrb": ("g", "alpha_sq", "phi", "theta"),
    "snl": ("alpha_sq", "g", "phi", "theta"),
    "hl": ("g", "alpha_sq", "phi", "theta"),
    "visibility": ("theta", "g", "alpha_sq", "phi"),
}
SWEEP_1D_SIZES = np.linspace(8, 63, 4 * len(SWEEP_1D_AXES)).round().astype(int).tolist()
SWEEP_TEMPLATES = tuple(
    (quantity, ((axes[i], SWEEP_1D_SIZES[i * len(SWEEP_1D_AXES) + k]),))
    for i in range(4)
    for k, (quantity, axes) in enumerate(SWEEP_1D_AXES.items())
) + (
    ("sensitivity", (("phi", 200), ("theta", 50))),
    ("signal", (("phi", 60), ("theta", 40))),
    ("sensitivity_lossy", (("phi", 50), ("transmissivity", 40))),
    ("qcrb", (("g", 40), ("alpha_sq", 40))),
    ("snl", (("g", 32), ("alpha_sq", 32))),
    ("hl", (("alpha_sq", 48), ("g", 32))),
    ("visibility", (("theta", 40), ("g", 25))),
)


def _sweep_axis(rng, quantity: str, name: str, count: int) -> tuple:
    if name in ("phi", "theta"):
        return (name, 0.0, _u(rng, 1.0, TWO_PI), count)
    if name == "g":
        return (name, 0.0, _u(rng, 1.0, 3.0), count)
    if name == "alpha_sq":
        # zero amplitude makes the sensitivity divergent; the benchmarks and
        # visibility are undefined there, so they start above it
        start = 0.0 if quantity in ("signal", "sensitivity", "sensitivity_lossy") else 0.25
        return (name, start, _u(rng, 10.0, 1000.0), count)
    if name == "transmissivity":
        return (name, 0.0, 1.0, count)
    raise ValueError(name)


def _base_params(rng) -> dict:
    return {
        "g": _u(rng, 0.0, 2.5),
        "ell": int(rng.integers(1, 6)),
        "alpha_sq": _u(rng, 0.25, 100.0),
        "theta": _u(rng, 0.0, TWO_PI),
        "phi": _u(rng, 0.0, TWO_PI),
        "transmissivity": _u(rng, 0.05, 1.0),
    }


def _slope(config: ExperimentConfig, quantity: str) -> float:
    """|d<X_A>/dphi| as the sensitivity forms compute it (scaled by T with loss)."""
    if quantity == "sensitivity":
        return abs(metrology.homodyne_mean_slope(config))
    delta = config.theta + 2.0 * config.ell * config.phi
    return (
        config.transmissivity * 2.0 * math.sqrt(2.0) * config.ell
        * math.cosh(config.g) * config.alpha_mag * abs(math.sin(delta))
    )


def check_sweep_rows(base: dict, quantity: str, axes, label: str, result) -> list[str]:
    problems = []
    grid = _grid(axes)
    n_axes = len(axes)
    if len(result.rows) != len(grid):
        return [f"{label}: {len(result.rows)} rows, expected {len(grid)}"]
    if [row[:n_axes] for row in result.rows] != grid:
        problems.append(f"{label}: rows are not the lexicographic grid")

    def config_at(row) -> ExperimentConfig:
        params = dict(base)
        params.update({name: value for (name, *_), value in zip(axes, row[:n_axes])})
        return _config(params)

    fn = SCALAR_QUANTITIES[quantity]
    for i in _sample(len(result.rows), label):
        row = result.rows[i]
        config = config_at(row)
        value = row[n_axes]
        expected = fn(config)
        if not _close(value, expected, VALUE_RTOL):
            problems.append(f"{label}: row {i} value {value!r}, direct call {expected!r}")
        if quantity == "signal":
            state = run_lossless(config) if config.transmissivity == 1.0 else run_lossy(config)
            if _guarded(value, quadrature_mean(state)) > ENGINE_SIGNAL_TOL:
                problems.append(f"{label}: row {i} signal {value!r} differs from the engine")

    for i, row in enumerate(result.rows):
        value, flag = row[n_axes], row[n_axes + 1]
        if quantity == "visibility" and abs(value - 1.0) > VISIBILITY_TOL:
            problems.append(f"{label}: row {i} visibility {value!r}")
        if quantity in ("sensitivity", "sensitivity_lossy"):
            divergent = _slope(config_at(row), quantity) < metrology.DERIVATIVE_FLOOR
            if divergent != (flag == "divergent") or divergent != math.isinf(value):
                problems.append(f"{label}: row {i} flag {flag!r} value {value!r}, divergent={divergent}")
        elif flag or not math.isfinite(value):
            problems.append(f"{label}: row {i} flag {flag!r} value {value!r}")
    return problems


def _fig_value_check(figure: str, expected_for) -> object:
    def check_rows(result):
        problems = []
        for i in _sample(len(result.rows), figure):
            row = result.rows[i]
            expected = expected_for(row)
            value = row[-2]
            if not _close(value, expected, VALUE_RTOL):
                problems.append(f"{figure}: row {i} value {value!r}, direct call {expected!r}")
        return problems

    return check_rows


def _fig2_expected(row):
    return metrology.homodyne_mean(
        ExperimentConfig(g=1.0, ell=3, alpha_mag=math.sqrt(10.0), theta=row[1], phi=row[0])
    )


def _fig36_expected(transmissivity):
    base = ExperimentConfig(
        g=2.0, ell=1, alpha_mag=10.0, theta=math.pi / 2.0, phi=0.0, transmissivity=transmissivity
    )
    fn = metrology.sensitivity if transmissivity == 1.0 else metrology.sensitivity_lossy

    def expected(row):
        if row[1] == "snl":
            return metrology.shot_noise_limit(base)
        return fn(dataclasses.replace(base, phi=row[0]))

    return expected


def _fig4_expected(row):
    g, asq, quantity = row[0], row[1], row[2]
    if quantity == "qcrb":
        return metrology.quantum_cramer_rao_bound(
            ExperimentConfig(g=g, ell=1, alpha_mag=math.sqrt(asq), theta=0.0, phi=0.0)
        )
    return metrology.optimal_sensitivity(g, 1, math.sqrt(asq))


def _sweep_ops(rng, tiny: bool) -> list[Op]:
    ops = []
    for k, (quantity, shape) in enumerate(SWEEP_TEMPLATES):
        base = _base_params(rng)
        axes = [
            _sweep_axis(rng, quantity, name, max(2, count // 8) if tiny else count)
            for name, count in shape
        ]
        label = f"sweep{k}-{quantity}-{'x'.join(str(a[3]) for a in axes)}"
        points = math.prod(a[3] for a in axes)
        text = _config_text(base, quantity, axes)
        check_rows = functools.partial(check_sweep_rows, base, quantity, axes, label)
        ops.append(_cli_op(label, points, text, check_rows))
    ops += [
        _figure_op("fig2", 101 * 81, _fig_value_check("fig2", _fig2_expected)),
        _figure_op("fig3", 2 * 201, _fig_value_check("fig3", _fig36_expected(1.0))),
        _figure_op("fig4", 2 * 3 * 56, _fig_value_check("fig4", _fig4_expected)),
        _figure_op("fig6", 2 * 201, _fig_value_check("fig6", _fig36_expected(0.62))),
    ]
    return ops


# --- maxloss -----------------------------------------------------------------


def transmissivity_root(g: float, alpha_sq: float) -> float:
    """Positive root T of 2 c^2 T^2 + N k T - N = 0, with c = |alpha| cosh g,
    k = 1 - e^(-2g), N = cosh(2g) |alpha|^2 + 2 sinh^2 g; written in the
    form that does not cancel."""
    c2 = alpha_sq * math.cosh(g) ** 2
    k = -math.expm1(-2.0 * g)
    n = math.cosh(2.0 * g) * alpha_sq + 2.0 * math.sinh(g) ** 2
    return 2.0 * n / (n * k + math.sqrt((n * k) ** 2 + 8.0 * c2 * n))


def check_max_loss_row(g: float, alpha_sq: float, loss: float, flag: str) -> str | None:
    root = transmissivity_root(g, alpha_sq)
    if abs(root - 1.0) < 1e-9:
        return None  # on the boundary either answer is right
    if root > 1.0:
        if flag != "no-sub-snl-region" or loss != 0.0:
            return f"g={g!r} alpha_sq={alpha_sq!r}: expected no sub-SNL region, got {loss!r} {flag!r}"
        return None
    if flag or abs((1.0 - loss) - root) > ROOT_TOL:
        return f"g={g!r} alpha_sq={alpha_sq!r}: T={1.0 - loss!r}, root {root!r}, flag {flag!r}"
    return None


MAXLOSS_TEMPLATES = (
    (("g", 24),),
    (("alpha_sq", 24),),
    (("ell", 5),),
    (("g", 12), ("alpha_sq", 8)),
)


def check_max_loss_rows(base: dict, axes, label: str, result) -> list[str]:
    grid = _grid(axes)
    if [row[: len(axes)] for row in result.rows] != grid:
        return [f"{label}: rows are not the lexicographic grid of {len(grid)} points"]
    problems = []
    for row in result.rows:
        params = dict(base)
        params.update({a[0]: v for a, v in zip(axes, row)})
        problem = check_max_loss_row(params["g"], params["alpha_sq"], row[-2], row[-1])
        if problem:
            problems.append(f"{label}: {problem}")
    return problems


def _maxloss_axis(rng, name: str, count: int) -> tuple:
    if name == "g":
        return (name, _u(rng, 0.05, 0.5), _u(rng, 2.0, 4.0), count)
    if name == "alpha_sq":
        # reaching below 0.1 puts points in the no-sub-SNL region
        return (name, _u(rng, 0.01, 0.1), _u(rng, 100.0, 1000.0), count)
    return (name, 1.0, float(count), count)


def _maxloss_ops(rng, tiny: bool) -> list[Op]:
    ops = []
    for k, shape in enumerate(MAXLOSS_TEMPLATES):
        base = _base_params(rng)
        base["g"] = _u(rng, 0.3, 1.0)
        axes = [_maxloss_axis(rng, name, max(2, count // 4) if tiny else count) for name, count in shape]
        label = f"maxloss{k}-{'x'.join(f'{a[0]}{a[3]}' for a in axes)}"
        check_rows = functools.partial(check_max_loss_rows, base, axes, label)
        points = math.prod(a[3] for a in axes)
        ops.append(_cli_op(label, points, _config_text(base, "max_loss", axes), check_rows))

    def check_fig7(result):
        g, _, asq, loss, flag = result.rows[0]
        problems = [p for p in [check_max_loss_row(g, asq, loss, flag)] if p]
        if abs(loss - FIG7_LOSS) > FIG7_TOL:
            problems.append(f"fig7 reads {loss!r}, expected {FIG7_LOSS} +/- {FIG7_TOL}")
        return problems

    def check_fig8(result):
        return [p for p in (check_max_loss_row(r[0], r[1], r[2], r[3]) for r in result.rows) if p]

    ops += [_figure_op("fig7", 1, check_fig7), _figure_op("fig8", 3 * 36, check_fig8)]
    return ops


# --- validate_cold -----------------------------------------------------------

VALIDATE_PRESET = "quick"
VALIDATE_POINTS, VALIDATE_LOSS_DRAWS = 72, 30


def check_validation(summary: dict) -> list[str]:
    problems = []
    if summary["passed"] is not True:
        problems.append(f"validation failed: {summary['report']}")
    if summary["point_count"] != VALIDATE_POINTS:
        problems.append(f"{summary['point_count']} grid points, expected {VALIDATE_POINTS}")
    if summary["loss_draws"] != VALIDATE_LOSS_DRAWS:
        problems.append(f"{summary['loss_draws']} loss draws, expected {VALIDATE_LOSS_DRAWS}")
    return problems


def validation_summary(report) -> dict:
    return {
        "passed": report.passed,
        "point_count": report.point_count,
        "loss_draws": report.loss_draws,
        "report": report.render(),
    }


def local_validate_op() -> Op:
    """The validate op as the child process runs it."""
    return Op("validate_cold", VALIDATE_POINTS, lambda: validation.run_validation(VALIDATE_PRESET), None)


def _validate_ops(rng, tiny: bool) -> list[Op]:
    # the preset fixes every input: the seed changes nothing here
    return [ChildOp("validate_cold", VALIDATE_POINTS, None, check_validation)]


# --- engine ------------------------------------------------------------------

ENGINE_CONFIGS = 256


def check_engine(config: ExperimentConfig, states) -> list[str]:
    lossless, lossy = states
    t = config.transmissivity
    mean_cf = metrology.homodyne_mean(config)
    second_cf = metrology.homodyne_second_moment(config)
    deviations = {
        "lossless mean": (_guarded(quadrature_mean(lossless), mean_cf), validation.ENGINE_TOL),
        "lossless second moment": (
            _guarded(quadrature_second_moment(lossless), second_cf),
            validation.ENGINE_TOL,
        ),
        "lossless photon number": (
            _guarded(photon_number(lossless), mean_photon_number(config)),
            validation.ENGINE_TOL,
        ),
        "lossy mean law": (
            _guarded(quadrature_mean(lossy), math.sqrt(t) * mean_cf),
            validation.LOSS_LAW_TOL,
        ),
        "lossy second-moment law": (
            _guarded(quadrature_second_moment(lossy), t * second_cf + 1.0 - t),
            validation.LOSS_LAW_TOL,
        ),
    }
    return [
        f"{config}: {name} off by {dev:.3e} (tol {tol:.0e})"
        for name, (dev, tol) in deviations.items()
        if not dev <= tol
    ]


def _both_pipelines(config: ExperimentConfig):
    return interferometer.run_lossless(config), interferometer.run_lossy(config)


def _engine_ops(rng, tiny: bool) -> list[Op]:
    ops = []
    for i in range(16 if tiny else ENGINE_CONFIGS):
        # the ranges of validation.random_lossy_configs
        config = ExperimentConfig(
            g=_u(rng, 0.0, 2.5),
            ell=int(rng.integers(1, 6)),
            alpha_mag=math.sqrt(_u(rng, 0.25, 100.0)),
            theta=_u(rng, 0.0, TWO_PI),
            phi=_u(rng, 0.0, TWO_PI),
            transmissivity=_u(rng, 0.05, 1.0),
        )
        ops.append(Op(f"engine{i}", 2, functools.partial(_both_pipelines, config),
                      functools.partial(check_engine, config)))
    return ops
