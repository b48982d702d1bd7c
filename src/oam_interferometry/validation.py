"""Cross-validation harness: closed forms vs phase-space engine vs Fock oracle.

Runs a parameter grid through all three routes and tracks the worst deviation
per checked quantity.  Oracle comparisons are held to an absolute tolerance;
engine comparisons (exact linear algebra) to a guarded-relative one.  The
loss scaling laws (mean shrinks by sqrt(T), second moment relaxes as
``T <X^2> + 1 - T``) are checked against the lossy chain, whose loss stage
sits between the rotation and the coupler, on seeded random configurations.

The engine side is one batched pass: ``lossless_chain`` runs the whole grid
and ``lossy_chain`` all loss draws as stacked products, each element and
state checked per point.  Every check is an array of deviations, from the
engine or from the oracle (which evolves one point at a time), against
``metrology``'s broadcast closed forms; its first worst point, a nan first
of all, is the one reported.
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
from .interferometer import lossless_chain, lossy_chain, quadrature_mean, quadrature_second_moment
from .metrology import ExperimentConfig
from .phase_space import photon_number

ORACLE_TOL = 1e-5
ENGINE_TOL = 1e-9
LOSS_LAW_TOL = 1e-9

_TURN_3, _TURN_8 = (tuple(np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)) for n in (3, 8))
# preset -> its grid's (g, alpha_sq, ell, theta, phi) values, each grid small
# enough for the Fock validator to reach, and its count of seeded loss draws
_PRESET_TABLE = {
    "quick": (((0.0, 0.3), (1.0, 2.0), (1, 2), _TURN_3, (0.3, 1.4, 2.5)), 30),
    "full": (((0.1, 0.3, 0.5), (1.0, 2.5, 4.0), (1, 2, 3), _TURN_8, _TURN_8), 100),
}
# the preset names, which the CLI offers as --preset
PRESETS = tuple(_PRESET_TABLE)

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
        # False on nan
        return self.worst <= self.tolerance


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
            f"loss_draws={self.loss_draws} elapsed={self.elapsed_seconds:.3f}s"
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
    """The preset's grid, one config per point."""
    if preset not in _PRESET_TABLE:
        raise ValueError(f"unknown preset {preset!r} (expected {PRESETS[0]!r} or {PRESETS[1]!r})")
    axes, _ = _PRESET_TABLE[preset]
    return [
        ExperimentConfig(g=g, ell=ell, alpha_mag=math.sqrt(asq), theta=float(th), phi=float(ph))
        for g, asq, ell, th, ph in itertools.product(*axes)
    ]


def random_lossy_configs(count: int) -> list[ExperimentConfig]:
    """``count`` seeded draws of lossy working points, the same on every run."""
    rng = default_rng(_LOSS_SEED)
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


def _rel(actual: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Guarded-relative deviation: relative above 1 in magnitude, absolute below."""
    return np.abs(actual - expected) / np.maximum(1.0, np.abs(expected))


def _columns(configs: list[ExperimentConfig]) -> np.ndarray:
    """Rows g, ell, alpha_mag, theta, phi, transmissivity, each over ``configs``."""
    return np.array(
        [(c.g, c.ell, c.alpha_mag, c.theta, c.phi, c.transmissivity) for c in configs]
    ).T


def _record(
    name: str,
    tolerance: float,
    deviations: np.ndarray,
    configs: list[ExperimentConfig],
    cutoffs: np.ndarray | None = None,
    tail_masses: np.ndarray | None = None,
) -> CheckResult:
    """The check ``name`` over ``deviations``, one per config.  The worst is
    the first nan, which fails the check, or else the first largest value
    (``np.argmax`` finds either); all zeros report 0 at no point.  Oracle
    checks pass the cutoff and tail mass of each state."""
    check = CheckResult(name, tolerance)
    i = int(np.argmax(deviations))
    # positive, or nan
    if not deviations[i] <= 0.0:
        check.worst, check.worst_at = float(deviations[i]), _describe(configs[i])
        if cutoffs is not None:
            check.cutoff, check.tail_mass = int(cutoffs[i]), float(tail_masses[i])
    return check


def run_validation(preset: str = "quick") -> ValidationReport:
    """Run the oracle-vs-closed-form and engine-vs-closed-form grids plus the
    loss-law draws; nonzero worst deviation above tolerance fails the report."""
    start = time.perf_counter()
    configs = grid_configs(preset)
    _, draw_count = _PRESET_TABLE[preset]
    draws = random_lossy_configs(draw_count)

    g, ell, alpha_mag, theta, phi, _ = _columns(configs)
    mean_cf = metrology.signal_table(g, ell, alpha_mag, theta, phi, 1.0)
    second_cf = metrology.second_moment_table(g, ell, alpha_mag, theta, phi, 1.0)
    photon_cf = metrology.photon_number_table(g, ell, alpha_mag, theta, phi, 1.0)
    state = lossless_chain(g, ell, alpha_mag, theta, phi)

    oracle = [fock_oracle.moments(fock_oracle.evolve(config)) for config in configs]
    mean_oracle, second_oracle, photon_oracle, cutoffs, tails = np.array(
        [(r.x_mean, r.x_second_moment, r.photon_number, r.cutoff_used, r.tail_mass) for r in oracle]
    ).T
    gauge = (cutoffs, tails)

    columns = _columns(draws)
    lossy = lossy_chain(*columns)
    mean_law = metrology.signal_table(*columns)
    second_law = metrology.second_moment_table(*columns)

    checks = [
        _record("signal mean: oracle vs closed form", ORACLE_TOL,
                np.abs(mean_oracle - mean_cf), configs, *gauge),
        _record("second moment: oracle vs closed form", ORACLE_TOL,
                np.abs(second_oracle - second_cf), configs, *gauge),
        _record("photon number: oracle vs closed form", ORACLE_TOL,
                np.abs(photon_oracle - photon_cf), configs, *gauge),
        _record("signal mean: engine vs closed form", ENGINE_TOL,
                _rel(quadrature_mean(state), mean_cf), configs),
        _record("second moment: engine vs closed form", ENGINE_TOL,
                _rel(quadrature_second_moment(state), second_cf), configs),
        _record("photon number: engine vs closed form", ENGINE_TOL,
                _rel(photon_number(state), photon_cf), configs),
        _record("loss scaling of mean: engine vs law", LOSS_LAW_TOL,
                _rel(quadrature_mean(lossy), mean_law), draws),
        _record("loss scaling of second moment: engine vs law", LOSS_LAW_TOL,
                _rel(quadrature_second_moment(lossy), second_law), draws),
    ]
    return ValidationReport(
        preset=preset,
        point_count=len(configs),
        loss_draws=len(draws),
        elapsed_seconds=time.perf_counter() - start,
        checks=checks,
    )
