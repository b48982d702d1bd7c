"""Acceptance suite: one test per release criterion, each at its stated
tolerance.  The conftest hook prints a PASS/FAIL line per criterion."""

import dataclasses
import math
import time

import numpy as np
import pytest

from oam_interferometry import (
    ExperimentConfig,
    angular_displacement_matrix,
    bs_matrix,
    homodyne_mean,
    homodyne_mean_slope,
    homodyne_second_moment,
    opa_matrix,
    quadrature_mean,
    quadrature_second_moment,
    quantum_cramer_rao_bound,
    run_lossy,
    symplectic_defect,
    visibility,
)
from oam_interferometry.cli import reproduce
from oam_interferometry.validation import run_validation
from helpers import guarded_rel, random_config
from reference import (
    grid_min_sensitivity,
    hybrid_phase_sensitivity,
    optimal_sensitivity_asymptotic,
    su11_phase_sensitivity,
    virtual_bs_matrix,
)

SYMPLECTIC_TOL = 1e-10


def test_c01_loss_threshold():
    """Maximum allowable loss at g=2, l=1, |alpha|^2=100 is 38% +- 1%."""
    start = time.perf_counter()
    result = reproduce("fig7")
    elapsed = time.perf_counter() - start
    assert len(result.rows) == 1
    g, ell, alpha_sq, loss, flag = result.rows[0]
    assert (g, ell, alpha_sq, flag) == (2.0, 1.0, 100.0, "")
    assert abs(loss - 0.38) <= 0.01
    assert elapsed < 10.0


def test_c02_quantum_bound_saturation():
    """Grid-searched optimum over the quantum bound: <=1.05 at g=2, <=1.005
    at g=3, decreasing between the two."""
    start = time.perf_counter()
    ratios = {}
    for g in (2.0, 3.0):
        best, _, _ = grid_min_sensitivity(g, 1, 10.0)
        cfg = ExperimentConfig(g=g, ell=1, alpha_mag=10.0, theta=0.0, phi=0.0)
        ratios[g] = best / quantum_cramer_rao_bound(cfg)
    elapsed = time.perf_counter() - start
    assert ratios[2.0] <= 1.05
    assert ratios[3.0] <= 1.005
    assert ratios[3.0] < ratios[2.0]
    assert elapsed < 5.0


def test_c03_asymptotic_optimum():
    """Closed-form asymptotic optimum within 0.5% of the grid-searched one
    at g=3, |alpha|^2=100."""
    exact, _, _ = grid_min_sensitivity(3.0, 1, 10.0)
    approx = optimal_sensitivity_asymptotic(3.0, 1, 10.0)
    assert abs(approx / exact - 1.0) <= 0.005


@pytest.mark.parametrize("ell", [1, 2, 3, 5])
def test_c04_super_resolution_count(ell):
    """Exactly 2l signal maxima per turn at theta=0, g=1, |alpha|^2=10."""
    base = ExperimentConfig(g=1.0, ell=ell, alpha_mag=math.sqrt(10.0), theta=0.0, phi=0.0)
    phis = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    values = np.array(
        [homodyne_mean(dataclasses.replace(base, phi=float(p))) for p in phis]
    )
    left, right = np.roll(values, 1), np.roll(values, -1)
    maxima = int(np.sum((values > left) & (values > right)))
    assert maxima == 2 * ell


def test_c05_unit_visibility():
    """Contrast 1.0 +- 1e-9 for 50 random bright configs, lossless and at T=0.5."""
    rng = np.random.default_rng(505)
    for _ in range(50):
        cfg = random_config(rng)
        assert abs(visibility(cfg) - 1.0) <= 1e-9
        assert abs(visibility(dataclasses.replace(cfg, transmissivity=0.5)) - 1.0) <= 1e-9


def test_c06_oracle_equivalence():
    """Fock oracle, closed forms, and engine agree to 1e-5 absolute over the
    full small-parameter grid, in under ten minutes."""
    start = time.perf_counter()
    report = run_validation("full")
    elapsed = time.perf_counter() - start
    for check in report.checks:
        assert check.passed, f"{check.name}: worst {check.worst:.3e} at {check.worst_at}"
    oracle_checks = [c for c in report.checks if "oracle" in c.name]
    assert len(oracle_checks) == 3 and all(c.tolerance == 1e-5 for c in oracle_checks)
    assert report.point_count == 1728
    assert elapsed < 600.0


def test_c07_loss_scaling_laws():
    """Lossy pipeline moments follow sqrt(T) mean and T-interpolated second
    moment to 1e-9 over 100 random configs."""
    rng = np.random.default_rng(707)
    for _ in range(100):
        cfg = random_config(rng, lossy=True)
        t = cfg.transmissivity
        state = run_lossy(cfg)
        mean_law = math.sqrt(t) * homodyne_mean(cfg)
        second_law = t * homodyne_second_moment(cfg) + (1.0 - t)
        assert guarded_rel(quadrature_mean(state), mean_law) <= 1e-9
        assert guarded_rel(quadrature_second_moment(state), second_law) <= 1e-9


def test_c08_symplectic_suite():
    """Every element constructor, including the 8x8 virtual beam splitter,
    passes the symplectic identity to 1e-10 for 100 random draws."""
    rng = np.random.default_rng(808)
    for _ in range(100):
        g = float(rng.uniform(0.0, 4.0))
        ell = int(rng.integers(1, 11))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        t = float(rng.uniform(0.0, 1.0))
        ops = [
            opa_matrix(g),
            angular_displacement_matrix(ell, phi),
            bs_matrix(),
            virtual_bs_matrix(t),
        ]
        for op in ops:
            assert symplectic_defect(op.matrix) <= SYMPLECTIC_TOL


def test_c09_derivative_check():
    """Analytic signal slope matches central differences (h=1e-5) to 1e-6
    guarded-relative at 1000 random configs."""
    rng = np.random.default_rng(909)
    h = 1e-5
    for _ in range(1000):
        cfg = random_config(rng)
        fd = (
            homodyne_mean(dataclasses.replace(cfg, phi=cfg.phi + h))
            - homodyne_mean(dataclasses.replace(cfg, phi=cfg.phi - h))
        ) / (2.0 * h)
        assert guarded_rel(homodyne_mean_slope(cfg), fd) <= 1e-6


def test_c10_su11_comparison():
    """At matched phase conventions the SU(1,1)-to-hybrid sensitivity ratio
    converges to sqrt(2): within 2% by g=3, and improving with gain."""
    deviations = {
        g: abs(su11_phase_sensitivity(g, 10.0) / hybrid_phase_sensitivity(g, 10.0) / math.sqrt(2.0) - 1.0)
        for g in (2.0, 3.0, 4.0)
    }
    assert deviations[3.0] <= 0.02
    assert deviations[4.0] < deviations[3.0] < deviations[2.0]
