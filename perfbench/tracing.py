"""In-memory spans around the package's public functions, for the traced run.

``Tracer.install`` rebinds every public function of the six layer modules, in
every package module that imported it, to a wrapper that records a span:
name, start, end, parent span and op id.  A few calls sit in the tightest
loops and are counted instead (constructors of the config, state and
symplectic-operator dataclasses, and ``phase_space.omega``), so their time
stays with the caller.  ``uninstall`` restores the originals.  Nothing in the
package itself changes.

Spans are kept in memory while ops run and written out by the caller when the
run ends; ``layer_metrics`` derives self times and the per-layer metrics from
them.

Cost of a span: wall time on the load thread.  ``cli.run_sweep`` hands large
grids to a thread pool while the load thread waits, so a span opened in a
pool thread is parented to the span open on the load thread (the
``run_sweep`` that caused it) and costed by that thread's CPU time, which
leaves out time spent waiting for the interpreter lock.  A span's self time
is its cost minus the costs of its children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import sys
import threading
import time

PACKAGE = "oam_interferometry"
LAYERS = ("cli", "metrology", "interferometer", "phase_space", "fock_oracle", "validation")

# (module, attribute) -> counter name; counted, never spanned
COUNTED_FUNCTIONS = {("phase_space", "omega"): "phase_space.omega_calls"}
COUNTED_CONSTRUCTORS = {
    ("interferometer", "ExperimentConfig"): "interferometer.configs_built",
    ("phase_space", "GaussianState"): "phase_space.states_built",
    ("phase_space", "SymplecticOp"): "phase_space.symplectic_ops_built",
}
# metrology functions that are not scalar closed forms
METROLOGY_SEARCHES = {
    "metrology.visibility",
    "metrology.max_allowable_loss",
    "metrology.grid_min_sensitivity",
    "metrology.evaluate",
}

FIELDS = ("id", "parent", "name", "op", "start_ns", "end_ns", "cost_ns", "attrs")


def _rows_attrs(fn, args, kwargs, result):
    return {"points": len(result.rows)}


def _validation_attrs(fn, args, kwargs, report):
    return {"points": report.point_count, "loss_draws": report.loss_draws}


def _evolve_attrs(fn, args, kwargs, state):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    if bound.arguments["cutoff"] is not None:
        visited = [int(bound.arguments["cutoff"])]
    else:
        # evolve walks the schedule from its start until the tail passes
        schedule = [int(c) for c in bound.arguments["cutoff_schedule"]]
        visited = schedule[: schedule.index(state.cutoff) + 1]
    return {
        "g": float(bound.arguments["config"].g),
        "cutoffs": visited,
        "tail_mass": float(state.tail_mass),
    }


# attributes recorded on a span from the call and its result
ANNOTATORS = {
    ("cli", "run_sweep"): _rows_attrs,
    ("cli", "reproduce"): _rows_attrs,
    ("validation", "run_validation"): _validation_attrs,
    ("fock_oracle", "evolve"): _evolve_attrs,
}


class NullTracer:
    """Stand-in for untraced runs: ops run with no wrappers installed."""

    enabled = False

    def op(self, label):
        return contextlib.nullcontext()

    def absorb(self, spans, counters):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.op_labels = []  # indexed by the spans' op id
        self.counters = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._load_stack = []
        self._load_ident = None
        self._active = False
        self._op_id = -1
        self._patches = []

    # --- installation ---------------------------------------------------

    def install(self):
        modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}
        package_modules = [
            m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        self._load_ident = threading.get_ident()
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                counter = COUNTED_FUNCTIONS.get((layer, attr))
                if counter:
                    wrapper = self._counting(obj, counter)
                else:
                    wrapper = self._spanning(obj, f"{layer}.{attr}", ANNOTATORS.get((layer, attr)))
                for target in package_modules:
                    for tname, tobj in list(vars(target).items()):
                        if tobj is obj:
                            self._patch(target, tname, wrapper)
        for (layer, cls_name), counter in COUNTED_CONSTRUCTORS.items():
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, "__post_init__", self._counting(cls.__post_init__, counter))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    # --- recording --------------------------------------------------------

    @contextlib.contextmanager
    def op(self, label):
        """Marks one op: spans and counts are recorded only inside it."""
        self._op_id += 1
        self.op_labels.append(label)
        self._active = True
        try:
            yield
        finally:
            self._active = False

    def _count(self, counter):
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + 1

    def _counting(self, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._active:
                tracer._count(counter)
            return fn(*args, **kwargs)

        return wrapper

    def _spanning(self, fn, name, annotate):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            return tracer._span(fn, name, annotate, args, kwargs)

        return wrapper

    def _span(self, fn, name, annotate, args, kwargs):
        sid = next(self._ids)
        on_load = threading.get_ident() == self._load_ident
        if on_load:
            stack = self._load_stack
        else:
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            parent = self._load_stack[-1] if self._load_stack else -1
        stack.append(sid)
        cpu0 = 0 if on_load else time.thread_time_ns()
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            cost = end - start if on_load else time.thread_time_ns() - cpu0
            stack.pop()
        attrs = annotate(fn, args, kwargs, result) if annotate else None
        self.spans.append((sid, parent, name, self._op_id, start, end, cost, attrs))
        return result

    def absorb(self, spans, counters):
        """Adds spans and counts recorded by a child process for the current op."""
        offset = next(self._ids)
        top = offset
        for sid, parent, name, _, start, end, cost, attrs in spans:
            top = max(top, offset + sid)
            parent = offset + parent if parent >= 0 else -1
            self.spans.append((offset + sid, parent, name, self._op_id, start, end, cost, attrs))
        self._ids = itertools.count(top + 1)
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0) + value


def layer_metrics(spans, counters, cycles, op_seconds):
    """Per-layer metrics from one traced phase.

    Counts and times are per cycle (one pass over the workload's op list), so
    with the same seed the counts repeat exactly between runs; ratios are
    taken over the whole phase.  ``op_seconds`` is the traced ops' total time.
    """
    name_of = {s[0]: s[2] for s in spans}
    child_cost = {}
    for s in spans:
        if s[1] >= 0:
            child_cost[s[1]] = child_cost.get(s[1], 0) + s[6]

    layer_self = dict.fromkeys(LAYERS, 0)
    calls, inclusive = {}, {}
    closed_form_calls = closed_form_ns = search_evals = 0
    evolve_passes = cold_ns = warm_ns = 0
    operator_bytes = 0
    cutoff_points = {}
    max_tail = 0.0
    seen = {}
    attr_sums = {}
    for sid, parent, name, op, _, _, cost, attrs in sorted(spans, key=lambda s: s[0]):
        layer = name.split(".", 1)[0]
        layer_self[layer] += cost - child_cost.get(sid, 0)
        calls[name] = calls.get(name, 0) + 1
        inclusive[name] = inclusive.get(name, 0) + cost
        parent_name = name_of.get(parent, "")
        if layer == "metrology" and name not in METROLOGY_SEARCHES:
            if not parent_name.startswith("metrology."):
                closed_form_calls += 1
                closed_form_ns += cost
            if name == "metrology.optimal_sensitivity" and parent_name == "metrology.max_allowable_loss":
                search_evals += 1
        for key, value in (attrs or {}).items():
            if isinstance(value, (int, float)):
                attr_sums[(name, key)] = attr_sums.get((name, key), 0) + value
        if name == "fock_oracle.evolve":
            built = seen.setdefault(op, set())
            new = {("opa", attrs["g"], c) for c in attrs["cutoffs"]}
            new |= {("bs", c) for c in attrs["cutoffs"]}
            new -= built
            built |= new
            if any(kind == "opa" for kind, *_ in new):
                cold_ns += cost
            else:
                warm_ns += cost
            operator_bytes += sum((key[-1] + 1) ** 4 * 16 for key in new)
            evolve_passes += len(attrs["cutoffs"])
            final = attrs["cutoffs"][-1]
            cutoff_points[final] = cutoff_points.get(final, 0) + 1
            max_tail = max(max_tail, attrs["tail_mass"])

    per_cycle = 1.0 / cycles
    s = lambda ns: ns * 1e-9 * per_cycle
    n = lambda count: count * per_cycle
    incl = lambda name: s(inclusive.get(name, 0))
    count = lambda name: n(calls.get(name, 0))
    cli_points = attr_sums.get(("cli.run_sweep", "points"), 0) + attr_sums.get(
        ("cli.reproduce", "points"), 0
    )
    searches = calls.get("metrology.max_allowable_loss", 0)
    evolves = calls.get("fock_oracle.evolve", 0)
    op_ns = op_seconds * 1e9

    out = {
        "cli.points": (n(cli_points), "count/cycle"),
        "cli.self_s": (s(layer_self["cli"]), "s/cycle"),
        "cli.us_per_point": (layer_self["cli"] * 1e-3 / cli_points if cli_points else 0.0, "us/point"),
        "cli.parse_config_s": (incl("cli.parse_config"), "s/cycle"),
        "cli.to_csv_s": (incl("cli.to_csv"), "s/cycle"),
        "metrology.closed_form_calls": (n(closed_form_calls), "count/cycle"),
        "metrology.closed_form_s": (s(closed_form_ns), "s/cycle"),
        "metrology.visibility_calls": (count("metrology.visibility"), "count/cycle"),
        "metrology.visibility_s": (incl("metrology.visibility"), "s/cycle"),
        "metrology.max_loss_calls": (count("metrology.max_allowable_loss"), "count/cycle"),
        "metrology.max_loss_s": (incl("metrology.max_allowable_loss"), "s/cycle"),
        "metrology.grid_scan_s": (incl("metrology.grid_min_sensitivity"), "s/cycle"),
        "metrology.evals_per_search": (search_evals / searches if searches else 0.0, "evals/search"),
        "interferometer.configs_built": (n(counters.get("interferometer.configs_built", 0)), "count/cycle"),
        "interferometer.run_lossless_calls": (count("interferometer.run_lossless"), "count/cycle"),
        "interferometer.run_lossless_s": (incl("interferometer.run_lossless"), "s/cycle"),
        "interferometer.run_lossy_calls": (count("interferometer.run_lossy"), "count/cycle"),
        "interferometer.run_lossy_s": (incl("interferometer.run_lossy"), "s/cycle"),
        "phase_space.symplectic_ops_built": (
            n(counters.get("phase_space.symplectic_ops_built", 0)),
            "count/cycle",
        ),
        "phase_space.omega_calls": (n(counters.get("phase_space.omega_calls", 0)), "count/cycle"),
        "phase_space.states_built": (n(counters.get("phase_space.states_built", 0)), "count/cycle"),
        "phase_space.apply_calls": (count("phase_space.apply"), "count/cycle"),
        "phase_space.apply_s": (incl("phase_space.apply"), "s/cycle"),
        "phase_space.trace_out_s": (incl("phase_space.trace_out"), "s/cycle"),
        "fock_oracle.evolve_calls": (n(evolves), "count/cycle"),
        "fock_oracle.evolve_cold_s": (s(cold_ns), "s/cycle"),
        "fock_oracle.evolve_warm_s": (s(warm_ns), "s/cycle"),
        "fock_oracle.moments_calls": (count("fock_oracle.moments"), "count/cycle"),
        "fock_oracle.moments_s": (incl("fock_oracle.moments"), "s/cycle"),
        "fock_oracle.points_at_cutoff_40": (n(cutoff_points.get(40, 0)), "count/cycle"),
        "fock_oracle.points_at_cutoff_60": (n(cutoff_points.get(60, 0)), "count/cycle"),
        "fock_oracle.points_at_cutoff_80": (n(cutoff_points.get(80, 0)), "count/cycle"),
        "fock_oracle.passes_per_point": (evolve_passes / evolves if evolves else 0.0, "passes/point"),
        "fock_oracle.max_tail_mass": (max_tail, "probability"),
        "fock_oracle.operator_mb_computed": (operator_bytes * 1e-6 * per_cycle, "MB/cycle"),
        "validation.points": (
            n(attr_sums.get(("validation.run_validation", "points"), 0)),
            "count/cycle",
        ),
        "validation.loss_draws": (
            n(attr_sums.get(("validation.run_validation", "loss_draws"), 0)),
            "count/cycle",
        ),
        "validation.self_s": (s(layer_self["validation"]), "s/cycle"),
        "metrology.max_loss_op_share": (
            inclusive.get("metrology.max_allowable_loss", 0) / op_ns if op_ns else 0.0,
            "ratio",
        ),
    }
    for layer in LAYERS:
        out[f"{layer}.op_share"] = (layer_self[layer] / op_ns if op_ns else 0.0, "ratio")
    for layer in ("metrology", "interferometer", "phase_space", "fock_oracle"):
        out[f"{layer}.self_s"] = (s(layer_self[layer]), "s/cycle")
    return out
