"""Cross-validation harness: closed forms vs phase-space engine vs Fock oracle.

Each preset is one open grid, ``np.ix_`` over its axes of g, |alpha|^2, ell,
theta and phi, with |alpha| the square root of each |alpha|^2.  Three routes
evaluate the whole grid in one broadcast pass each: ``metrology``'s closed
forms, the engine's ``lossless_chain``, and the oracle's ``grid_moments``,
which builds one real state per (g, |alpha|) pair and reads it at every
(ell, theta, phi) point.  Oracle comparisons are held to an absolute
tolerance; engine comparisons (exact linear algebra) to a guarded-relative
one.  The loss scaling laws (mean shrinks by sqrt(T), second moment relaxes
as ``T <X^2> + 1 - T``) are checked against ``lossy_chain``, whose loss stage
sits between the rotation and the coupler, on seeded random draws, drawn
into columns.

Every check is an array of deviations against the closed forms; its first
worst point in C order, a nan first of all, is the one reported.  Only that
point is built as an ``ExperimentConfig``, and it is printed with every field
by ``repr`` and with |alpha|^2 as the preset gives it or the draw yields it,
so that the point re-runs to the same deviation.
"""

from __future__ import annotations

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


def _describe(config: ExperimentConfig, alpha_sq: float) -> str:
    """The point as it re-runs: every field by ``repr``, with ``alpha_sq`` as
    the preset gives it or the draw yields it; ``config.alpha_mag`` is its
    square root."""
    return (
        f"g={config.g!r},ell={config.ell!r},alpha_sq={alpha_sq!r},"
        f"theta={config.theta!r},phi={config.phi!r},T={config.transmissivity!r}"
    )


def _grid(preset: str) -> tuple:
    """The preset's open grid, ``np.ix_`` over its axes, as the columns g,
    ell, alpha_sq, theta, phi and transmissivity (1.0)."""
    if preset not in _PRESET_TABLE:
        raise ValueError(f"unknown preset {preset!r} (expected {PRESETS[0]!r} or {PRESETS[1]!r})")
    axes, _ = _PRESET_TABLE[preset]
    g, alpha_sq, ell, theta, phi = np.ix_(*axes)
    return g, ell, alpha_sq, theta, phi, 1.0


def _loss_draws(count: int) -> tuple:
    """``count`` seeded draws of lossy working points, the same on every run,
    as the columns g, ell, alpha_sq, theta, phi and transmissivity."""
    rng = default_rng(_LOSS_SEED)
    # rng.uniform(low, high) is low + (high - low) * rng.random(), in one
    # third of the call's time
    unit, integers = rng.random, rng.integers
    two_pi = 2.0 * math.pi
    draws = [
        (
            2.5 * unit(),
            integers(1, 6),
            0.25 + (100.0 - 0.25) * unit(),
            two_pi * unit(),
            two_pi * unit(),
            0.05 + (1.0 - 0.05) * unit(),
        )
        for _ in range(count)
    ]
    return tuple(np.array(draws).reshape(count, 6).T)


def _config(g, ell, alpha_sq, theta, phi, transmissivity) -> ExperimentConfig:
    return ExperimentConfig(
        g=g, ell=ell, alpha_mag=math.sqrt(alpha_sq), theta=theta, phi=phi,
        transmissivity=transmissivity,
    )


def _configs(columns: tuple) -> list[ExperimentConfig]:
    """One config per point of ``columns``, in C order."""
    flat = (c.ravel().tolist() for c in np.broadcast_arrays(*columns))
    return [_config(*point) for point in zip(*flat)]


def grid_configs(preset: str) -> list[ExperimentConfig]:
    """The preset's grid, one config per point of its open grid, in C order."""
    return _configs(_grid(preset))


def random_lossy_configs(count: int) -> list[ExperimentConfig]:
    """``count`` seeded draws of lossy working points, the same on every run."""
    return _configs(_loss_draws(count))


def _rel(actual: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Guarded-relative deviation: relative above 1 in magnitude, absolute below."""
    return np.abs(actual - expected) / np.maximum(1.0, np.abs(expected))


def _record(
    name: str,
    tolerance: float,
    deviations: np.ndarray,
    points: tuple,
    cutoffs: np.ndarray | None = None,
    tail_masses: np.ndarray | None = None,
) -> CheckResult:
    """The check ``name`` over ``deviations``, one per point of ``points``,
    the columns g, ell, alpha_sq, theta, phi and transmissivity broadcast to
    the shape of ``deviations``.  The worst is the first nan in C order, which
    fails the check, or else the first largest value (``np.argmax`` finds
    either); all zeros report 0 at no point.  Only the worst point is built as
    a config.  Oracle checks pass the cutoff and tail mass of each state."""
    check = CheckResult(name, tolerance)
    i = np.unravel_index(np.argmax(deviations), deviations.shape)
    # positive, or nan
    if not deviations[i] <= 0.0:
        point = [column[i].item() for column in points]
        check.worst, check.worst_at = float(deviations[i]), _describe(_config(*point), point[2])
        if cutoffs is not None:
            check.cutoff, check.tail_mass = int(cutoffs[i]), float(tail_masses[i])
    return check


def run_validation(preset: str = "quick") -> ValidationReport:
    """Run the oracle-vs-closed-form and engine-vs-closed-form grids plus the
    loss-law draws; nonzero worst deviation above tolerance fails the report."""
    start = time.perf_counter()
    grid = _grid(preset)
    _, draw_count = _PRESET_TABLE[preset]
    draws = _loss_draws(draw_count)
    checks = _grid_checks(grid) + _loss_checks(draws)
    return ValidationReport(
        preset=preset,
        point_count=np.broadcast(*grid).size,
        loss_draws=draw_count,
        elapsed_seconds=time.perf_counter() - start,
        checks=checks,
    )


def _grid_checks(grid: tuple) -> list[CheckResult]:
    """The oracle and engine checks over the lossless ``grid``, columns g,
    ell, alpha_sq, theta, phi and transmissivity (1.0) that broadcast."""
    g, ell, alpha_sq, theta, phi, _ = grid
    alpha_mag = np.sqrt(alpha_sq)
    mean_cf = metrology.signal_table(g, ell, alpha_mag, theta, phi, 1.0)
    second_cf = metrology.second_moment_table(g, ell, alpha_mag, theta, phi, 1.0)
    photon_cf = metrology.photon_number_table(g, ell, alpha_mag, theta, phi, 1.0)
    state = lossless_chain(g, ell, alpha_mag, theta, phi)
    oracle = fock_oracle.grid_moments(g, alpha_mag, ell, theta, phi)
    gauge = (oracle.cutoff_used, oracle.tail_mass)
    points = np.broadcast_arrays(*grid)
    return [
        _record("signal mean: oracle vs closed form", ORACLE_TOL,
                np.abs(oracle.x_mean - mean_cf), points, *gauge),
        _record("second moment: oracle vs closed form", ORACLE_TOL,
                np.abs(oracle.x_second_moment - second_cf), points, *gauge),
        _record("photon number: oracle vs closed form", ORACLE_TOL,
                np.abs(oracle.photon_number - photon_cf), points, *gauge),
        _record("signal mean: engine vs closed form", ENGINE_TOL,
                _rel(quadrature_mean(state), mean_cf), points),
        _record("second moment: engine vs closed form", ENGINE_TOL,
                _rel(quadrature_second_moment(state), second_cf), points),
        _record("photon number: engine vs closed form", ENGINE_TOL,
                _rel(photon_number(state), photon_cf), points),
    ]


def _loss_checks(draws: tuple) -> list[CheckResult]:
    """The loss laws checked against the lossy chain over the ``draws``,
    columns g, ell, alpha_sq, theta, phi and transmissivity."""
    g, ell, alpha_sq, theta, phi, t = draws
    columns = (g, ell, np.sqrt(alpha_sq), theta, phi, t)
    lossy = lossy_chain(*columns)
    mean_law = metrology.signal_table(*columns)
    second_law = metrology.second_moment_table(*columns)
    return [
        _record("loss scaling of mean: engine vs law", LOSS_LAW_TOL,
                _rel(quadrature_mean(lossy), mean_law), draws),
        _record("loss scaling of second moment: engine vs law", LOSS_LAW_TOL,
                _rel(quadrature_second_moment(lossy), second_law), draws),
    ]
