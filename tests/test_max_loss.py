"""The maximum allowable loss: the exact root of its quadratic, checked against
the numerical search it replaced, the brute-force optimum scan, and the sweep
and figure paths that read it from the quantity table."""

import math

import numpy as np
import pytest

from oam_interferometry import (
    ExperimentConfig,
    max_allowable_loss,
    metrology,
    optimal_sensitivity,
    shot_noise_limit,
)
from oam_interferometry.cli import parse_config, reproduce, run_sweep
from reference import grid_min_sensitivity

# (g, |alpha|) points where the root was first checked against the bisection
ROADMAP_POINTS = [(2.0, 10.0), (1.0, 3.16), (3.0, 31.6), (0.5, 10.0)]

# fig8's grid: ell = 1, alpha_sq 10 / 100 / 1000, g over [0.5, 4]
FIG8_POINTS = [
    (float(g), math.sqrt(asq))
    for asq in (10.0, 100.0, 1000.0)
    for g in np.linspace(0.5, 4.0, 36)
]


def _snl(g, alpha_mag):
    return shot_noise_limit(ExperimentConfig(g=g, ell=1, alpha_mag=alpha_mag, theta=0.0, phi=0.0))


def bisection_root(g, alpha_mag, resolution=1e-12):
    """Transmissivity where the optimal lossy sensitivity meets the lossless
    shot-noise limit, by bisection on T as the product code once did."""
    snl = _snl(g, alpha_mag)
    lo, hi = 1e-6, 1.0
    assert optimal_sensitivity(g, 1, alpha_mag, transmissivity=lo) > snl
    assert optimal_sensitivity(g, 1, alpha_mag, transmissivity=hi) <= snl
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if optimal_sensitivity(g, 1, alpha_mag, transmissivity=mid) > snl:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestRoot:
    @pytest.mark.parametrize("g, alpha_mag", ROADMAP_POINTS)
    def test_quadratic_residual_vanishes(self, g, alpha_mag):
        t = 1.0 - max_allowable_loss(g, 1, alpha_mag)
        c2 = alpha_mag**2 * math.cosh(g) ** 2
        k = 1.0 - math.exp(-2.0 * g)
        n = math.cosh(2.0 * g) * alpha_mag**2 + 2.0 * math.sinh(g) ** 2
        assert abs(2.0 * c2 * t**2 + n * k * t - n) <= 1e-12 * n

    @pytest.mark.parametrize("g, alpha_mag", ROADMAP_POINTS)
    def test_optimum_meets_the_shot_noise_limit_at_the_root(self, g, alpha_mag):
        t = 1.0 - max_allowable_loss(g, 1, alpha_mag)
        assert optimal_sensitivity(g, 1, alpha_mag, transmissivity=t) == pytest.approx(
            _snl(g, alpha_mag), rel=1e-12
        )

    @pytest.mark.parametrize("g, alpha_mag", ROADMAP_POINTS)
    def test_matches_bisection(self, g, alpha_mag):
        loss = max_allowable_loss(g, 1, alpha_mag)
        assert loss != 0.0
        assert abs((1.0 - loss) - bisection_root(g, alpha_mag)) <= 1e-9

    @pytest.mark.parametrize("g, alpha_mag", ROADMAP_POINTS)
    def test_independent_of_ell(self, g, alpha_mag):
        reference = max_allowable_loss(g, 1, alpha_mag)
        for ell in (2, 3, 7):
            assert max_allowable_loss(g, ell, alpha_mag) == reference

    def test_bright_input_at_large_gain(self):
        # c^2 / N tends to 1/2 and k to 1, so T* tends to 2 / (1 + sqrt 5);
        # (N k)^2 and c^2 N overflow here, and the bisection read 4.8e-7 at g=345
        golden = 2.0 / (1.0 + math.sqrt(5.0))
        for g in (170.0, 345.0):
            loss = max_allowable_loss(g, 1, 1e6)
            assert 1.0 - loss == pytest.approx(golden, rel=1e-12)

    @pytest.mark.parametrize("alpha_mag", [3.0, 1e-200])  # |alpha|^2 underflows
    def test_zero_gain(self, alpha_mag):
        # without squeezing the optimum beats the shot-noise limit by sqrt 2
        loss = max_allowable_loss(0.0, 1, alpha_mag)
        assert 1.0 - loss == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert (max_allowable_loss(0.5, 1, alpha_mag) != 0.0) == (alpha_mag == 3.0)

    def test_no_region_exactly_when_loss_is_zero(self):
        for g in (0.1, 0.5, 1.0, 2.0):
            for alpha_mag in (0.01, 0.1, 0.3, 1.0, 10.0):
                loss = max_allowable_loss(g, 1, alpha_mag)
                assert isinstance(loss, float)
                lossless = optimal_sensitivity(g, 1, alpha_mag)
                assert (loss != 0.0) == (lossless < _snl(g, alpha_mag))


class TestChecksMovedOutOfTheSearch:
    def test_grid_scan_finds_nothing_below_the_optimum_at_fig8_points(self):
        # the 2048 x 64 scan that ran inside every call before the root
        for g, alpha_mag in FIG8_POINTS:
            scanned, _, _ = grid_min_sensitivity(
                g, 1, alpha_mag, phi_points=2048, theta_points=64, refine=False
            )
            assert scanned >= optimal_sensitivity(g, 1, alpha_mag) * (1.0 - 1e-9)

    @pytest.mark.parametrize("g, alpha_mag", ROADMAP_POINTS + [(0.05, 1.0), (4.0, 0.3)])
    def test_optimum_decreases_with_transmissivity(self, g, alpha_mag):
        ts = np.linspace(1e-3, 1.0, 400)
        best = [optimal_sensitivity(g, 1, alpha_mag, transmissivity=float(t)) for t in ts]
        assert all(b < a for a, b in zip(best, best[1:]))


class TestTablePaths:
    @pytest.mark.parametrize(
        "axes",
        [
            "sweep = g 0 3 13\nsweep = alpha_sq 0.01 200 9",
            "sweep = alpha_sq 0.01 50 7\nsweep = ell 1 4 4",
            "sweep = ell 1 3 3\nsweep = g 0.05 4 11",
        ],
    )
    def test_two_axis_sweep_equals_scalar_calls(self, axes):
        spec = parse_config(f"g = 1.3\nell = 2\nalpha_sq = 0.001\nquantity = max_loss\n{axes}\n")
        result = run_sweep(spec)
        for row in result.rows:
            fields = {"g": spec.base.g, "ell": spec.base.ell, "alpha_sq": spec.base.alpha_mag**2}
            fields.update(zip(result.columns, row))
            alpha_mag = spec.base.alpha_mag
            if any(axis.name == "alpha_sq" for axis in spec.axes):
                alpha_mag = math.sqrt(fields["alpha_sq"])
            expected = max_allowable_loss(fields["g"], int(round(fields["ell"])), alpha_mag)
            assert row[-2] == expected
            assert row[-1] == ("" if expected != 0.0 else "no-sub-snl-region")
        assert {row[-1] for row in result.rows} == {"", "no-sub-snl-region"}

    def test_fig8_rows_equal_scalar_calls(self):
        rows = reproduce("fig8").rows
        assert [(g, math.sqrt(asq)) for g, asq, _, _ in rows] == FIG8_POINTS
        for g, asq, value, flag in rows:
            assert value == max_allowable_loss(g, 1, math.sqrt(asq))
            assert flag == ""

    def test_table_ignores_angles_and_transmissivity(self):
        reference = metrology.max_loss_table(2.0, 1, 10.0, 0.0, 0.0, 1.0)
        assert metrology.max_loss_table(2.0, 3, 10.0, 1.1, -0.4, 0.2) == reference


class TestErrors:
    def test_zero_amplitude_axis(self):
        result = run_sweep(parse_config("quantity = max_loss\nsweep = alpha_sq 0 1 3\n"))
        assert result.metadata["undefined"] == (
            "1 of 3; max_loss failed at (alpha_sq=0): alpha_mag must be > 0"
        )
        assert math.isnan(result.rows[0][1]) and result.rows[0][2] == "non-finite"
        for alpha_sq, value, flag in result.rows[1:]:
            # at g = 0 the loss is 1 - 1/sqrt(2) for any |alpha| > 0
            assert value == max_allowable_loss(0.0, 1, math.sqrt(alpha_sq))
            assert flag == ""

    def test_overflowing_gain(self):
        result = run_sweep(parse_config("alpha_sq = 4\nquantity = max_loss\nsweep = g 350 360 3\n"))
        assert result.metadata["undefined"] == "1 of 3; max_loss failed at (g=360): math range error"
        for g, value, flag in result.rows[:2]:
            assert value == max_allowable_loss(g, 1, 2.0)
            assert flag == ""
        assert math.isnan(result.rows[2][1]) and result.rows[2][2] == "non-finite"

    def test_scalar_errors(self):
        with pytest.raises(ValueError, match="alpha_mag must be > 0"):
            max_allowable_loss(1.0, 1, 0.0)
        with pytest.raises(OverflowError, match="math range error"):
            max_allowable_loss(360.0, 1, 2.0)
        with pytest.raises(ValueError, match="ell must be a positive integer"):
            max_allowable_loss(1.0, 0, 2.0)
