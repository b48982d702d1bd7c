"""The package's public surface: the names the package root exports, and the
names and parameters that left it for the test references or were deleted."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oam_interferometry
from oam_interferometry import cli, fock_oracle, interferometer, metrology, phase_space, validation

PACKAGE_DIR = Path(oam_interferometry.__file__).parent
PERFBENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"

ROOT_NAMES = {
    # fock_oracle
    "FockState",
    "OracleReport",
    "UnreliableStateError",
    "evolve",
    "moments",
    # interferometer
    "ExperimentConfig",
    "mean_photon_number",
    "quadrature_mean",
    "quadrature_second_moment",
    "run_lossless",
    "run_lossy",
    # metrology
    "heisenberg_limit",
    "homodyne_mean",
    "homodyne_mean_lossy",
    "homodyne_mean_slope",
    "homodyne_second_moment",
    "homodyne_second_moment_lossy",
    "max_allowable_loss",
    "optimal_operating_point",
    "optimal_sensitivity",
    "quantum_cramer_rao_bound",
    "sensitivity",
    "sensitivity_lossy",
    "shot_noise_limit",
    "visibility",
    # phase_space
    "GaussianState",
    "SymplecticOp",
    "angular_displacement_matrix",
    "apply",
    "bs_matrix",
    "displace",
    "omega",
    "opa_matrix",
    "photon_number",
    "symplectic_defect",
    "vacuum_state",
    "virtual_bs_matrix",
    # validation
    "ValidationReport",
    "run_validation",
}

# name -> the module that exported it.  Each left the root and that module:
# the Pipeline layer, eval's report layer, the lifted 8x8 elements
# (phase_space.attenuate is the loss stage) and MaxLossResult
# (max_allowable_loss returns the loss) are deleted, the fluctuation
# became metrology.fluctuation_table, opa_unitary became the squeezer
# columns the vacuum mode B meets (its general form is tests/reference.py's
# squeezer_unitary), BlockUnitary became the coupler's slot maps (its dense
# apply is tests/reference.py's apply_blocked), and the rest, the coupler's
# blocks (bs_unitary) too, moved to tests/reference.py; trace_out had one
# caller, attenuate, which always dropped the two environment modes and now
# keeps the system's 4x4 block by slicing
REMOVED = {
    "TwoModeOperators": fock_oracle,
    "build_operators": fock_oracle,
    "annihilation": fock_oracle,
    "opa_unitary": fock_oracle,
    "BlockUnitary": fock_oracle,
    "bs_unitary": fock_oracle,
    "grid_min_sensitivity": metrology,
    "optimal_sensitivity_asymptotic": metrology,
    "su11_phase_sensitivity": metrology,
    "hybrid_phase_sensitivity": metrology,
    "SensitivityReport": metrology,
    "evaluate": metrology,
    "quadrature_fluctuation": metrology,
    "quadrature_fluctuation_lossy": metrology,
    "MaxLossResult": metrology,
    "LossChannel": phase_space,
    "apply_loss": phase_space,
    "min_uncertainty_eigenvalue": phase_space,
    "extend_with_environment": phase_space,
    "trace_out": phase_space,
    "Pipeline": interferometer,
    "build_lossless": interferometer,
    "build_lossy": interferometer,
    "run_pipeline": interferometer,
}

REMOVED_PARAMETERS = [
    (validation.run_validation, "tail_tolerance"),
    (fock_oracle.evolve, "tail_tolerance"),
    (fock_oracle.FockState, "tail_tolerance"),
    (fock_oracle.moments, "allow_unreliable"),
    (interferometer.quadrature_mean, "mode"),
    (interferometer.quadrature_second_moment, "mode"),
    (metrology.optimal_operating_point, "g"),
    (metrology.optimal_operating_point, "alpha_mag"),
    (cli.to_csv, "timestamp"),
    # one value in use outside the tests: displace always displaces mode A,
    # the vacuum always has two modes, and the loss draws take one seed
    (phase_space.displace, "mode"),
    (phase_space.vacuum_state, "modes"),
    (validation.random_lossy_configs, "seed"),
]


def _root_names():
    return {
        name
        for name, obj in vars(oam_interferometry).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }


def test_root_exports_exactly_the_used_api():
    assert _root_names() == ROOT_NAMES
    assert len(ROOT_NAMES) == 39


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_name_is_gone(name):
    module = REMOVED[name]
    assert not hasattr(oam_interferometry, name)
    assert name not in module.__all__
    assert not hasattr(module, name)


def test_module_exports_are_defined():
    for module in (fock_oracle, interferometer, metrology, phase_space):
        assert all(hasattr(module, name) for name in module.__all__), module.__name__


@pytest.mark.parametrize(
    "fn, parameter", REMOVED_PARAMETERS, ids=[f"{f.__name__}-{p}" for f, p in REMOVED_PARAMETERS]
)
def test_removed_parameter_is_gone(fn, parameter):
    assert parameter not in inspect.signature(fn).parameters


def test_reliable_is_no_longer_reported():
    assert "reliable" not in {f.name for f in fock_oracle.OracleReport.__dataclass_fields__.values()}


def test_evolve_keeps_the_signature_the_benchmark_binds():
    assert list(inspect.signature(fock_oracle.evolve).parameters) == [
        "config",
        "cutoff",
        "cutoff_schedule",
    ]


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _benchmark_bindings():
    """(package module, name) for each package name the benchmark binds: the
    names ``perfbench/workloads.py`` imports from the package or reads off its
    modules, and the keys of the tracer's counter and annotator tables."""
    bindings = set()
    modules = {"cli", "interferometer", "metrology", "validation"}
    for node in ast.walk(_parse(PERFBENCH_DIR / "workloads.py")):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("oam_interferometry"):
            bindings.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                bindings.add((f"oam_interferometry.{node.value.id}", node.attr))
    tables = {"COUNTED_FUNCTIONS", "COUNTED_CONSTRUCTORS", "ANNOTATORS"}
    found = set()
    for node in _parse(PERFBENCH_DIR / "tracing.py").body:
        if isinstance(node, ast.Assign) and node.targets[0].id in tables:
            found.add(node.targets[0].id)
            for layer, name in (ast.literal_eval(key) for key in node.value.keys):
                bindings.add((f"oam_interferometry.{layer}", name))
    assert found == tables
    return bindings


def test_every_name_the_benchmark_binds_exists():
    bindings = _benchmark_bindings()
    assert ("oam_interferometry.interferometer", "ExperimentConfig") in bindings
    missing = [
        f"{module}.{name}"
        for module, name in sorted(bindings)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing


def test_interferometer_re_exports_the_working_point():
    for name in ("ExperimentConfig", "mean_photon_number"):
        assert name in interferometer.__all__ and name in metrology.__all__
        assert getattr(interferometer, name) is getattr(metrology, name)
        assert getattr(oam_interferometry, name) is getattr(metrology, name)


def _package_imports(path):
    """The package modules ``path`` imports, as (module, at module level)."""
    modules = {p.stem for p in PACKAGE_DIR.glob("*.py")}
    tree = _parse(path)
    top_level = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            parts = node.module.split(".") if node.module else []
        elif node.module and node.module.split(".")[0] == "oam_interferometry":
            parts = node.module.split(".")[1:]
        else:
            continue
        top = id(node) in top_level
        if parts:
            yield parts[0], top
        else:
            # "from . import x": x is a module, or a name of the package root
            for alias in node.names:
                yield (alias.name if alias.name in modules else "__init__"), top


def test_package_imports_form_a_dag():
    graph = {}
    for path in PACKAGE_DIR.glob("*.py"):
        imports = list(_package_imports(path))
        assert all(top for _, top in imports), f"{path.name} imports inside a function"
        graph[path.stem] = {target for target, _ in imports}
    assert graph["metrology"] == set()
    assert graph["phase_space"] == set()
    assert graph["fock_oracle"] == {"metrology"}
    assert "interferometer" not in graph["cli"]
    # peel off the modules that import nothing left; a cycle never empties
    remaining = dict(graph)
    while remaining:
        leaves = {m for m, targets in remaining.items() if not targets & remaining.keys()}
        assert leaves, f"import cycle among {sorted(remaining)}"
        for module in leaves:
            del remaining[module]


def test_package_does_not_import_the_tests():
    for path in PACKAGE_DIR.glob("*.py"):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
        assert not imported & {"tests", "reference", "helpers", "conftest"}, path.name


def test_package_runs_without_scipy():
    # scipy is a test dependency only: with every scipy import failing, the
    # package imports and its heaviest command, the oracle's, still passes
    src = str(Path(oam_interferometry.__file__).resolve().parents[1])
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from oam_interferometry.cli import main\n"
        "sys.exit(main(['validate', '--preset', 'quick']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "overall: PASS"
