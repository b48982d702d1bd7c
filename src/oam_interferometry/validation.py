"""Cross-validation harness: closed forms vs phase-space engine vs Fock force.

Runs a parameter grid through all three routes and tracks the worst deviation
per checked quantity.  Oracle comparisons are held to an absolute tolerance;
engine comparisons (exact linear algebra) to a guarded-relative one.  The
loss scaling laws (mean shrinks by sqrt(T), second moment relaxes as
``T <X^2> + 1 - T``) are checked against the eight-dimensional lossy pipeline
on seeded random configurations.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np
# numpy loads numpy.random lazily: import it here, not in the first loss draw
from numpy.random import default_rng

from . import fock_oracle, metrology
from .interferometer import (
    ExperimentConfig,
    mean_photon_number,
    quadrature_mean,
    quadrature_second_moment,
    run_lossless,
    run_lossy,
)
from .phase_space import photon_number

ORACLE_TOL = 1e-5
ENGINE_TOL = 1e-9
LOSS_LAW_TOL = 1e-9

_LOSS_SEED = 20260809


@dataclass
class CheckResult:
    """Worst-case deviation of one cross-check over the whole grid."""

    name: str
    tolerance: float
    worst: float = 0.0
    worst_at: str = ""
    # oracle checks only: the cutoff and tail mass of the state at the worst point
    cutoff: int | None = None
    tail_mass: float | None = None

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance

    def update(
        self,
        deviation: float,
        where: str,
        cutoff: int | None = None,
        tail_mass: float | None = None,
    ) -> None:
        if deviation > self.worst:
            self.worst = deviation
            self.worst_at = where
            self.cutoff = cutoff
            self.tail_mass = tail_mass


@dataclass
class ValidationReport:
    preset: str
    point_count: int
    loss_draws: int
    elapsed_seconds: float
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [
            f"validation preset={self.preset} grid_points={self.point_count} "
            f"loss_draws={self.loss_draws} elapsed={self.elapsed_seconds:.1f}s"
        ]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = (
                f"  {c.name:<44s} worst {c.worst:.3e}  tol {c.tolerance:.1e}  "
                f"{status}  at {c.worst_at}"
            )
            if c.cutoff is not None:
                line += f"  cutoff={c.cutoff} tail={c.tail_mass:.1e}"
            out.append(line)
        out.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return out

    def render(self) -> str:
        return "\n".join(self.lines())


def _describe(config: ExperimentConfig) -> str:
    return (
        f"g={config.g:g},ell={config.ell},alpha_sq={config.alpha_mag**2:g},"
        f"theta={config.theta:.3f},phi={config.phi:.3f},T={config.transmissivity:g}"
    )


def grid_configs(preset: str) -> list[ExperimentConfig]:
    """Deterministic small-parameter grid reachable by the Fock validator."""
    if preset == "quick":
        gs = (0.0, 0.3)
        alpha_sqs = (1.0, 2.0)
        ells = (1, 2)
        thetas = np.linspace(0.0, 2.0 * math.pi, 3, endpoint=False)
        phis = (0.3, 1.4, 2.5)
    elif preset == "full":
        gs = (0.1, 0.3, 0.5)
        alpha_sqs = (1.0, 2.5, 4.0)
        ells = (1, 2, 3)
        thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        phis = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    else:
        raise ValueError(f"unknown preset {preset!r} (expected 'quick' or 'full')")
    return [
        ExperimentConfig(g=g, ell=ell, alpha_mag=math.sqrt(asq), theta=float(th), phi=float(ph))
        for g, asq, ell, th, ph in itertools.product(gs, alpha_sqs, ells, thetas, phis)
    ]


def random_lossy_configs(count: int, seed: int = _LOSS_SEED) -> list[ExperimentConfig]:
    rng = default_rng(seed)
    out = []
    for _ in range(count):
        out.append(
            ExperimentConfig(
                g=float(rng.uniform(0.0, 2.5)),
                ell=int(rng.integers(1, 6)),
                alpha_mag=math.sqrt(float(rng.uniform(0.25, 100.0))),
                theta=float(rng.uniform(0.0, 2.0 * math.pi)),
                phi=float(rng.uniform(0.0, 2.0 * math.pi)),
                transmissivity=float(rng.uniform(0.05, 1.0)),
            )
        )
    return out


def _rel(actual: float, expected: float) -> float:
    """Guarded-relative deviation: relative above 1 in magnitude, absolute below."""
    return abs(actual - expected) / max(1.0, abs(expected))


def run_validation(preset: str = "quick") -> ValidationReport:
    """Run the oracle-vs-closed-form and engine-vs-closed-form grids plus the
    loss-law draws; nonzero worst deviation above tolerance fails the report."""
    start = time.perf_counter()
    configs = grid_configs(preset)
    loss_draws = 30 if preset == "quick" else 100

    checks = {
        "mean_oracle": CheckResult("signal mean: oracle vs closed form", ORACLE_TOL),
        "second_oracle": CheckResult("second moment: oracle vs closed form", ORACLE_TOL),
        "photon_oracle": CheckResult("photon number: oracle vs closed form", ORACLE_TOL),
        "mean_engine": CheckResult("signal mean: engine vs closed form", ENGINE_TOL),
        "second_engine": CheckResult("second moment: engine vs closed form", ENGINE_TOL),
        "photon_engine": CheckResult("photon number: engine vs closed form", ENGINE_TOL),
        "loss_mean": CheckResult("loss scaling of mean: engine vs law", LOSS_LAW_TOL),
        "loss_second": CheckResult("loss scaling of second moment: engine vs law", LOSS_LAW_TOL),
    }

    for config in configs:
        where = _describe(config)
        mean_cf = metrology.homodyne_mean(config)
        second_cf = metrology.homodyne_second_moment(config)
        photon_cf = mean_photon_number(config)

        state = run_lossless(config)
        checks["mean_engine"].update(_rel(quadrature_mean(state), mean_cf), where)
        checks["second_engine"].update(_rel(quadrature_second_moment(state), second_cf), where)
        checks["photon_engine"].update(_rel(photon_number(state), photon_cf), where)

        report = fock_oracle.moments(fock_oracle.evolve(config))
        gauge = (report.cutoff_used, report.tail_mass)
        checks["mean_oracle"].update(abs(report.x_mean - mean_cf), where, *gauge)
        checks["second_oracle"].update(abs(report.x_second_moment - second_cf), where, *gauge)
        checks["photon_oracle"].update(abs(report.photon_number - photon_cf), where, *gauge)

    for config in random_lossy_configs(loss_draws):
        where = _describe(config)
        state = run_lossy(config)
        mean_law = metrology.homodyne_mean_lossy(config)
        second_law = metrology.homodyne_second_moment_lossy(config)
        checks["loss_mean"].update(_rel(quadrature_mean(state), mean_law), where)
        checks["loss_second"].update(_rel(quadrature_second_moment(state), second_law), where)

    return ValidationReport(
        preset=preset,
        point_count=len(configs),
        loss_draws=loss_draws,
        elapsed_seconds=time.perf_counter() - start,
        checks=list(checks.values()),
    )
