"""The package's public surface: the names the package root exports, and the
names and parameters that left it for the test references or were deleted."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oam_interferometry
from oam_interferometry import cli, fock_oracle, interferometer, metrology, phase_space, validation

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
    "trace_out",
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
# squeezer_unitary), and the rest moved to tests/reference.py
REMOVED = {
    "TwoModeOperators": fock_oracle,
    "build_operators": fock_oracle,
    "annihilation": fock_oracle,
    "opa_unitary": fock_oracle,
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
    (fock_oracle.bs_unitary, "mixing_angle"),
    (interferometer.quadrature_mean, "mode"),
    (interferometer.quadrature_second_moment, "mode"),
    (metrology.optimal_operating_point, "g"),
    (metrology.optimal_operating_point, "alpha_mag"),
    (cli.to_csv, "timestamp"),
]


def _root_names():
    return {
        name
        for name, obj in vars(oam_interferometry).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }


def test_root_exports_exactly_the_used_api():
    assert _root_names() == ROOT_NAMES
    assert len(ROOT_NAMES) == 40


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


def test_package_does_not_import_the_tests():
    for path in Path(oam_interferometry.__file__).parent.glob("*.py"):
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
