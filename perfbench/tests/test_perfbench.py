"""Self-tests of the benchmark: a tiny run of each workload emits every
metric named in BENCHMARK.json with its unit, and each workload's correctness
gate counts a deliberately wrong value as a failure.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
import workloads
from oam_interferometry.phase_space import GaussianState

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, kind):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def _one_op(workload, prefix):
    return next(op for op in workloads.build(workload, 7, tiny=True) if op.label.startswith(prefix))


def _replace_row(result, i, value, flag):
    rows = list(result.rows)
    rows[i] = rows[i][:-2] + (value, flag)
    return dataclasses.replace(result, rows=tuple(rows))


def _wrong_value(op):
    """The op with one row value, among those the gate samples, off by 1e-9."""

    def corrupt(out):
        result, csv_text = out
        i = next(i for i in workloads._sample(len(result.rows), op.label)
                 if math.isfinite(result.rows[i][-2]))
        row = result.rows[i]
        return _replace_row(result, i, row[-2] * (1.0 + 1e-9), row[-1]), csv_text

    return _tampered(op, corrupt)


def _wrong_loss(op):
    """The op with one found loss 1e-5 away from the closed-form root."""

    def corrupt(out):
        result, csv_text = out
        i = next(i for i, row in enumerate(result.rows) if not row[-1])
        return _replace_row(result, i, result.rows[i][-2] + 1e-5, ""), csv_text

    return _tampered(op, corrupt)


def _wrong_state(op):
    """The op with the lossy output mean off by 1e-6."""

    def corrupt(states):
        lossless, lossy = states
        mean = np.array(lossy.mean)
        mean[0] += 1e-6 * max(1.0, abs(mean[0]))
        return lossless, GaussianState(mean, lossy.cov)

    return _tampered(op, corrupt)


def _tampered(op, corrupt):
    call = op.call
    return dataclasses.replace(op, call=lambda: corrupt(call()))


def _failed_validation():
    summary = {"passed": False, "point_count": 72, "loss_draws": 30, "report": "overall: FAIL"}
    return workloads.Op("validate_cold", 72, lambda: summary, workloads.check_validation)


@pytest.mark.parametrize(
    "make_op",
    [
        lambda: _wrong_value(_one_op("sweep", "sweep")),
        lambda: _wrong_value(_one_op("sweep", "fig3")),
        lambda: _wrong_loss(_one_op("maxloss", "maxloss")),
        lambda: _wrong_loss(_one_op("maxloss", "fig7")),
        _failed_validation,
        lambda: _wrong_state(_one_op("engine", "engine")),
    ],
    ids=["sweep", "sweep-fig3", "maxloss", "maxloss-fig7", "validate_cold", "engine"],
)
def test_gate_counts_a_wrong_value_as_failed(make_op):
    outcome = run._run_cycles([make_op()], 0.0, tracing.NullTracer())
    assert outcome["attempted"] == 1 and outcome["failed"] == 1 and outcome["points"] == 0
