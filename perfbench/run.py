"""Benchmark entry point for the oam-interferometry package.

    python3 perfbench/run.py --workload <sweep|maxloss|validate_cold|engine|all>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else.  Load comes from one process, one op at a
time (a closed loop with one client).  The loop runs whole cycles of the
workload's op list until ``--seconds`` have passed, times each op, and checks
its outputs outside the timed region.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half the time
untraced and half traced and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it is a JSON ``detail`` record with provenance,
the op and point counts behind each metric, ``op_ms_tail`` and
``failed_ratio``; the same record, and the spans of a traced run, are written
under ``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))
SETUP_PROBES = 3
TAIL_MIN_BEYOND = 10

# One process on one CPU with one BLAS thread; children inherit both.  Measured
# on a two-vCPU virtual machine: unpinned, handing work between the load thread
# and cli's sweep pool threads across vCPUs made the 200x50 sweep take
# 0.66-1.07 s, pinned 0.39-0.49 s; a two-thread BLAS spread the cold oracle
# build by about 6% from op to op, one thread by about 2%.
CPU = min(os.sched_getaffinity(0))
BLAS_THREADS = 1


def _pin(cpu: bool) -> None:
    """Before numpy loads: one BLAS thread and, if asked, one CPU."""
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    if cpu:
        os.sched_setaffinity(0, {CPU})


def _import_package():
    """Imports the package from this checkout's src/ or exits non-zero."""
    if not (SRC / "oam_interferometry" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'oam_interferometry'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import oam_interferometry

    if Path(oam_interferometry.__file__).resolve().parent != SRC / "oam_interferometry":
        sys.exit(f"perfbench: imported {oam_interferometry.__file__}, not this checkout")


# --- measurements ---------------------------------------------------------------


def _tail(latencies: list[float]) -> dict | None:
    """Latency at the highest percentile with at least ten ops beyond it."""
    n = len(latencies)
    ordered = sorted(latencies)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = -(-n * pct // 100)  # nearest-rank percentile, 1-based
        if n - rank >= TAIL_MIN_BEYOND:
            return {"value": ordered[int(rank) - 1] * 1e3, "unit": "ms", "percentile": pct,
                    "ops": n, "beyond": int(n - rank)}
    return None


def _peak_rss_mb() -> float:
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def _setup_seconds(workload: str, seed: int, tiny: bool, probes: int) -> list[float]:
    """Fresh interpreter to package imported and inputs generated, per probe."""
    times = []
    for _ in range(probes):
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: setup probe failed with exit code {code}")
        times.append(elapsed)
    return times


def _run_cycles(cycle, seconds: float, tracer) -> dict:
    """Whole cycles until ``seconds`` have passed; every op timed and checked."""
    latencies, cycle_rates, points, failed, attempted = [], [], 0, 0, 0
    # Each op starts with an empty young generation and the set-up heap frozen
    # out of collections, so a collection inside an op is caused by that op
    # and not by where the seed put it in the cycle.
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    while not cycle_rates or time.perf_counter() - start < seconds:
        cycle_points, cycle_seconds = 0, 0.0
        for op in cycle:
            attempted += 1
            gc.collect()
            try:
                elapsed, out = op.execute(tracer)
                latencies.append(elapsed)
                cycle_seconds += elapsed
                problems = op.check(out)
            except Exception:  # one broken op is a failure, not the end of the run
                problems = [traceback.format_exc()]
            if problems:
                failed += 1
                print(f"perfbench: {op.label} failed: " + "; ".join(problems[:3]), file=sys.stderr)
            else:
                cycle_points += op.points
        points += cycle_points
        cycle_rates.append(cycle_points / cycle_seconds if cycle_seconds else 0.0)
    return {"latencies": latencies, "cycle_rates": cycle_rates, "points": points,
            "failed": failed, "attempted": attempted, "cycles": len(cycle_rates),
            "op_seconds": sum(latencies)}


# --- provenance -----------------------------------------------------------------


def _git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas_threads() -> dict:
    """Threads each bundled OpenBLAS reports, or the configured count."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("libscipy_openblas*.so")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    found[pkg.__name__] = getattr(handle, symbol)()
                    break
    return found or {"OPENBLAS_NUM_THREADS": int(os.environ["OPENBLAS_NUM_THREADS"])}


def _provenance(args) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "pinned_cpu": CPU,
        "blas_threads": _blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


# --- modes ----------------------------------------------------------------------


def _end_to_end(args) -> tuple[dict, dict, dict]:
    import tracing
    import workloads

    setup = _setup_seconds(args.workload, args.seed, args.tiny, 1 if args.tiny else SETUP_PROBES)
    cycle = workloads.build(args.workload, args.seed, args.tiny)
    run = _run_cycles(cycle, args.seconds, tracing.NullTracer())
    lat = run["latencies"]
    metrics = {
        "points_per_s": {"value": statistics.median(run["cycle_rates"]), "unit": "points/s"},
        "op_ms_p50": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
    }
    detail = {
        "op_ms_tail": _tail(lat),
        "failed_ratio": {"value": run["failed"] / run["attempted"], "unit": "ratio"},
        "counts": {"ops": run["attempted"], "ops_timed": len(lat), "points": run["points"],
                   "cycles": run["cycles"], "op_seconds": run["op_seconds"],
                   "setup_probes": setup},
    }
    return run, metrics, detail


def _per_layer(args) -> tuple[dict, dict, dict]:
    import tracing
    import workloads

    cycle = workloads.build(args.workload, args.seed, args.tiny)
    half = args.seconds / 2.0
    plain = _run_cycles(cycle, half, tracing.NullTracer())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _run_cycles(cycle, half, tracer)
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer.spans, tracer.counters, traced["cycles"],
                                   traced["op_seconds"])
    layers["trace.overhead_ratio"] = (
        (traced["op_seconds"] / traced["cycles"]) / (plain["op_seconds"] / plain["cycles"]),
        "ratio",
    )
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{args.workload}.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": tracing.FIELDS, "spans": tracer.spans, "op_labels": tracer.op_labels,
                   "counters": tracer.counters}, fh)
    run = {key: plain[key] + traced[key] for key in ("failed", "attempted")}
    detail = {"counts": {"untraced": {k: plain[k] for k in ("attempted", "cycles", "op_seconds")},
                         "traced": {k: traced[k] for k in ("attempted", "cycles", "op_seconds")},
                         "spans": len(tracer.spans)}}
    return run, metrics, detail


def _child_op(args) -> None:
    """Runs one validate op in this fresh process and prints its result."""
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracer.install()
    op = workloads.local_validate_op()
    seconds, report = op.execute(tracer)
    print(json.dumps({
        "seconds": seconds,
        "outputs": workloads.validation_summary(report),
        "spans": getattr(tracer, "spans", []),
        "counters": getattr(tracer, "counters", {}),
    }))


def _run_all(args) -> None:
    """Each workload in its own process; prints every metric by name and unit."""
    import workloads

    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.exit(f"perfbench: workload {name} exited {proc.returncode}: {proc.stderr[-2000:]}")
        print("\n".join(lines[:-2]))
        result = json.loads(lines[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        totals["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(totals))


def _report_lines(workload: str, metrics: dict, detail: dict) -> list[str]:
    lines = [f"{workload:<14s} {name:<36s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    if "op_ms_tail" in detail:
        tail = detail["op_ms_tail"]
        lines.append(
            f"{workload:<14s} {'op_ms_tail':<36s} {tail['value']:.6g} ms "
            f"(p{tail['percentile']:g} of {tail['ops']} ops, {tail['beyond']} beyond)"
            if tail else f"{workload:<14s} {'op_ms_tail':<36s} omitted: too few ops for ten beyond a percentile"
        )
    if "failed_ratio" in detail:
        lines.append(f"{workload:<14s} {'failed_ratio':<36s} {detail['failed_ratio']['value']:.6g} ratio")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken inputs, for the self-tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child-op", choices=("validate_cold",), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # the all-workloads parent stays unpinned so each child reads the real nproc
    _pin(cpu=args.workload != "all")
    _import_package()
    import workloads

    if args.child_op:
        _child_op(args)
        return 0
    if args.workload == "all":
        _run_all(args)
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_probe:
        workloads.build(args.workload, args.seed, args.tiny)
        print("ready", flush=True)
        return 0

    run, metrics, detail = (_per_layer if args.trace else _end_to_end)(args)
    detail["provenance"] = _provenance(args)
    detail["metrics"] = metrics
    print("\n".join(_report_lines(args.workload, metrics, detail)))
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
