import dataclasses
import math
import re

import numpy as np
import pytest

from oam_interferometry import (
    ExperimentConfig,
    heisenberg_limit,
    homodyne_mean,
    homodyne_mean_lossy,
    homodyne_mean_slope,
    homodyne_second_moment,
    homodyne_second_moment_lossy,
    max_allowable_loss,
    mean_photon_number,
    metrology,
    optimal_operating_point,
    optimal_sensitivity,
    quantum_cramer_rao_bound,
    run_lossy,
    sensitivity,
    sensitivity_lossy,
    shot_noise_limit,
    visibility,
)
from oam_interferometry.cli import EVAL_COLUMNS
from helpers import guarded_rel, random_config
from reference import (
    grid_min_sensitivity,
    hybrid_phase_sensitivity,
    optimal_sensitivity_asymptotic,
    optimal_sensitivity_math,
    su11_phase_sensitivity,
)


def _cfg(**kw):
    base = dict(g=1.0, ell=1, alpha_mag=1.0, theta=0.0, phi=0.0)
    base.update(kw)
    return ExperimentConfig(**base)


def _fields(cfg):
    return (cfg.g, cfg.ell, cfg.alpha_mag, cfg.theta, cfg.phi, cfg.transmissivity)


def fluctuation(cfg):
    """Delta X_A at the config's working point, with its transmissivity."""
    return float(metrology.fluctuation_table(*_fields(cfg)))


def report(cfg):
    """The columns of the eval row: each form on the point's 0-d inputs."""
    inputs = [np.asarray(v) for v in _fields(cfg)]
    return {name: float(form(*inputs)) for name, form in EVAL_COLUMNS}


class TestSignalMean:
    def test_zero_amplitude_gives_zero(self):
        assert homodyne_mean(_cfg(alpha_mag=0.0, g=1.2, phi=0.7)) == 0.0

    def test_zero_gain_reduces_to_plain_interference(self):
        cfg = _cfg(g=0.0, ell=2, alpha_mag=1.5, theta=0.0, phi=0.4)
        expected = math.sqrt(2.0) * 1.5 * math.cos(4 * 0.4)
        assert homodyne_mean(cfg) == pytest.approx(expected, rel=1e-12)

    def test_bright_amplified_point(self):
        cfg = _cfg(g=1.0, ell=3, alpha_mag=math.sqrt(10.0))
        assert homodyne_mean(cfg) == pytest.approx(math.sqrt(20.0) * math.e, rel=1e-12)

    def test_rotation_period_is_pi_over_ell(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            cfg = random_config(rng)
            shifted = dataclasses.replace(cfg, phi=cfg.phi + math.pi / cfg.ell)
            assert homodyne_mean(shifted) == pytest.approx(homodyne_mean(cfg), rel=1e-12, abs=1e-12)

    def test_super_resolution_slope_sign_changes(self):
        # 2l maxima and 2l minima per turn: 4l slope sign changes
        for ell, theta in [(1, 0.0), (2, 1.1), (4, 2.9)]:
            cfg = _cfg(ell=ell, theta=theta, alpha_mag=2.0)
            phis = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
            slopes = np.array(
                [homodyne_mean_slope(dataclasses.replace(cfg, phi=float(p))) for p in phis]
            )
            signs = np.sign(slopes)
            signs = signs[signs != 0]  # grid points landing exactly on a node
            changes = int(np.sum(signs != np.roll(signs, 1)))
            assert changes == 4 * ell


class TestSecondMomentAndFluctuation:
    def test_vacuum_second_moment(self):
        assert homodyne_second_moment(_cfg(g=0.0, alpha_mag=0.0, phi=0.9)) == pytest.approx(1.0)

    def test_vacuum_input_second_moment(self):
        for g, ell, phi in [(0.4, 1, 0.3), (1.1, 2, 1.2)]:
            cfg = _cfg(g=g, ell=ell, alpha_mag=0.0, phi=phi)
            expected = math.cosh(2 * g) + math.cos(2 * ell * phi) * math.sinh(2 * g)
            assert homodyne_second_moment(cfg) == pytest.approx(expected, rel=1e-12)

    def test_pinned_bright_point(self):
        # frozen from a cutoff-210 truncated-Fock run (edge mass 3.7e-12)
        cfg = _cfg(g=1.0, ell=3, alpha_mag=math.sqrt(10.0), theta=math.pi / 4.0, phi=0.1)
        assert homodyne_second_moment(cfg) == pytest.approx(31.6397434070, abs=1e-6)

    def test_fluctuation_is_unity_without_gain(self):
        for phi in np.linspace(0.0, 2.0 * math.pi, 7):
            assert fluctuation(_cfg(g=0.0, phi=float(phi))) == pytest.approx(1.0)

    def test_fluctuation_extremes(self):
        g = 0.9
        squeezed = _cfg(g=g, ell=1, phi=math.pi / 2.0)  # cos(2 l phi) = -1
        antisqueezed = _cfg(g=g, ell=1, phi=math.pi)  # cos(2 l phi) = +1
        assert fluctuation(squeezed) == pytest.approx(math.exp(-g), rel=1e-12)
        assert fluctuation(antisqueezed) == pytest.approx(math.exp(g), rel=1e-12)

    def test_fluctuation_ignores_theta_and_amplitude(self):
        ref = fluctuation(_cfg(g=0.7, ell=2, phi=0.33))
        for theta, amag in [(0.5, 0.0), (2.2, 3.0), (4.0, 9.0)]:
            cfg = _cfg(g=0.7, ell=2, phi=0.33, theta=theta, alpha_mag=amag)
            assert fluctuation(cfg) == pytest.approx(ref, rel=1e-9)

    def test_matches_noise_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            cfg = random_config(rng)
            expected = math.sqrt(
                math.cosh(2 * cfg.g) + math.sinh(2 * cfg.g) * math.cos(2 * cfg.ell * cfg.phi)
            )
            assert guarded_rel(fluctuation(cfg), expected) < 1e-9

    def test_matches_moment_subtraction_at_moderate_amplitude(self):
        # the defining sqrt(<X^2> - <X>^2) is accurate while |alpha| is modest
        rng = np.random.default_rng(17)
        for _ in range(30):
            cfg = random_config(rng, lossy=True)
            lossless = dataclasses.replace(cfg, transmissivity=1.0)
            direct = math.sqrt(homodyne_second_moment(lossless) - homodyne_mean(lossless) ** 2)
            direct_lossy = math.sqrt(
                homodyne_second_moment_lossy(cfg) - homodyne_mean_lossy(cfg) ** 2
            )
            assert guarded_rel(fluctuation(lossless), direct) < 1e-9
            assert guarded_rel(fluctuation(cfg), direct_lossy) < 1e-9

    @pytest.mark.parametrize("alpha_mag", [1e6, 1e9])
    def test_bright_input_keeps_the_squeezed_noise(self, alpha_mag):
        # g=3 at cos(2 l phi) = -1: exactly e^-3; subtracting the two moments
        # instead leaves 0.23 at |alpha| = 1e6 and 239 at 1e9
        cfg = _cfg(g=3.0, ell=1, alpha_mag=alpha_mag, theta=0.3, phi=math.pi / 2.0)
        assert fluctuation(cfg) == pytest.approx(math.exp(-3.0), rel=1e-9)
        assert report(cfg)["fluctuation"] == pytest.approx(math.exp(-3.0), rel=1e-9)
        lossy = dataclasses.replace(cfg, transmissivity=0.4)
        expected = math.sqrt(0.4 * math.exp(-6.0) + 0.6)
        assert fluctuation(lossy) == pytest.approx(expected, rel=1e-9)
        assert report(lossy)["fluctuation"] == pytest.approx(expected, rel=1e-9)


class TestSensitivity:
    def test_optimum_substitution(self):
        # squeezed noise and maximal slope: e^-g / (2 sqrt2 l cosh g |alpha|)
        g, ell, amag = 1.4, 2, 3.0
        phi, theta = optimal_operating_point(ell)
        cfg = _cfg(g=g, ell=ell, alpha_mag=amag, theta=theta, phi=phi)
        expected = math.exp(-g) / (2.0 * math.sqrt(2.0) * ell * math.cosh(g) * amag)
        assert sensitivity(cfg) == pytest.approx(expected, rel=1e-12)
        assert optimal_sensitivity(g, ell, amag) == pytest.approx(expected, rel=1e-12)

    def test_bright_squeezed_point_beats_shot_noise(self):
        phi, theta = optimal_operating_point(1)
        cfg = _cfg(g=2.0, ell=1, alpha_mag=10.0, theta=theta, phi=phi)
        assert sensitivity(cfg) == pytest.approx(1.2718171032039976e-3, rel=1e-12)
        assert shot_noise_limit(cfg) == pytest.approx(9.522286914940415e-3, rel=1e-12)
        assert sensitivity(cfg) < shot_noise_limit(cfg)

    def test_zero_slope_is_reported_divergent(self):
        assert math.isinf(sensitivity(_cfg(theta=0.0, phi=0.0)))
        assert math.isinf(sensitivity(_cfg(alpha_mag=0.0, theta=0.8, phi=0.2)))

    def test_slope_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        h = 1e-5
        for _ in range(100):
            cfg = random_config(rng)
            fd = (
                homodyne_mean(dataclasses.replace(cfg, phi=cfg.phi + h))
                - homodyne_mean(dataclasses.replace(cfg, phi=cfg.phi - h))
            ) / (2 * h)
            assert guarded_rel(homodyne_mean_slope(cfg), fd) < 1e-6

    def test_sub_snl_region_nonempty_for_bright_squeezed_inputs(self):
        for g in (1.0, 1.5, 2.0, 3.0):
            for asq in (10.0, 50.0, 100.0):
                amag = math.sqrt(asq)
                cfg = _cfg(g=g, alpha_mag=amag)
                assert optimal_sensitivity(g, 1, amag) < shot_noise_limit(cfg)


class TestLossySensitivity:
    def test_full_transmission_equals_lossless(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            cfg = random_config(rng)
            assert sensitivity_lossy(cfg) == sensitivity(cfg)

    def test_total_loss_is_divergent(self):
        cfg = dataclasses.replace(_cfg(theta=0.5, phi=0.3), transmissivity=0.0)
        assert math.isinf(sensitivity_lossy(cfg))

    def test_lossy_moment_laws(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            cfg = random_config(rng, lossy=True)
            t = cfg.transmissivity
            assert homodyne_mean_lossy(cfg) == pytest.approx(
                math.sqrt(t) * homodyne_mean(cfg), rel=1e-12, abs=1e-12
            )
            assert homodyne_second_moment_lossy(cfg) == pytest.approx(
                t * homodyne_second_moment(cfg) + (1 - t), rel=1e-12
            )

    def test_closed_form_against_engine_moments(self):
        # numerator from the engine's lossy variance, denominator with the
        # closed form's T bookkeeping
        cfg = ExperimentConfig(
            g=2.0, ell=1, alpha_mag=10.0, theta=0.4, phi=1.1, transmissivity=0.62
        )
        state = run_lossy(cfg)
        noise = math.sqrt(state.cov[0, 0])
        delta = cfg.theta + 2 * cfg.ell * cfg.phi
        denom = (
            0.62
            * 2.0
            * math.sqrt(2.0)
            * math.cosh(cfg.g)
            * cfg.alpha_mag
            * abs(math.sin(delta))
        )
        assert sensitivity_lossy(cfg) == pytest.approx(noise / denom, rel=1e-9)

    @pytest.mark.parametrize("t", [0.3, 0.62, 0.9])
    def test_divides_the_lossy_error_propagation_ratio_by_root_t(self, t):
        # the denominator is T times the lossless slope, while the lossy
        # mean's slope is sqrt(T) times it
        cfg = ExperimentConfig(
            g=2.0, ell=1, alpha_mag=10.0, theta=0.4, phi=1.1, transmissivity=t
        )
        h = 1e-6
        slope = (
            homodyne_mean_lossy(dataclasses.replace(cfg, phi=cfg.phi + h))
            - homodyne_mean_lossy(dataclasses.replace(cfg, phi=cfg.phi - h))
        ) / (2 * h)
        ratio = fluctuation(cfg) / abs(slope)
        assert sensitivity_lossy(cfg) * math.sqrt(t) == pytest.approx(ratio, rel=1e-7)

    def test_lossy_fluctuation_interpolates_to_vacuum(self):
        cfg = dataclasses.replace(_cfg(g=1.0, phi=0.2), transmissivity=0.5)
        expected = math.sqrt(
            0.5 * (math.cosh(2.0) + math.sinh(2.0) * math.cos(0.4)) + 0.5
        )
        assert fluctuation(cfg) == pytest.approx(expected, rel=1e-12)


class TestVisibility:
    def test_unit_visibility_across_configs(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            cfg = random_config(rng)
            assert abs(visibility(cfg) - 1.0) < 1e-9

    def test_loss_does_not_degrade_contrast(self):
        cfg = dataclasses.replace(_cfg(g=1.3, ell=2, alpha_mag=2.0, theta=0.9), transmissivity=0.5)
        assert abs(visibility(cfg) - 1.0) < 1e-9

    def test_zero_amplitude_is_an_error(self):
        with pytest.raises(ValueError, match="zero input amplitude"):
            visibility(_cfg(alpha_mag=0.0))


class TestBenchmarks:
    def test_shot_noise_and_heisenberg_examples(self):
        cfg = _cfg(g=0.0, ell=1, alpha_mag=10.0)
        assert shot_noise_limit(cfg) == pytest.approx(0.05, rel=1e-12)
        assert heisenberg_limit(cfg) == pytest.approx(0.005, rel=1e-12)

    def test_oam_boost_halves_the_limits(self):
        c1 = _cfg(g=0.8, ell=1, alpha_mag=3.0)
        c2 = _cfg(g=0.8, ell=2, alpha_mag=3.0)
        assert shot_noise_limit(c2) == pytest.approx(shot_noise_limit(c1) / 2.0, rel=1e-12)
        assert heisenberg_limit(c2) == pytest.approx(heisenberg_limit(c1) / 2.0, rel=1e-12)

    def test_quantum_bound_examples(self):
        assert quantum_cramer_rao_bound(_cfg(g=0.0, alpha_mag=2.0)) == pytest.approx(
            1.0 / 8.0, rel=1e-12
        )
        cfg = _cfg(g=2.0, alpha_mag=10.0)
        assert quantum_cramer_rao_bound(cfg) == pytest.approx(1.2685522558092493e-3, rel=1e-12)

    def test_degenerate_bound_raises(self):
        with pytest.raises(ValueError):
            quantum_cramer_rao_bound(_cfg(g=0.0, alpha_mag=0.0))

    def test_zero_photon_limits_raise(self):
        cfg = _cfg(g=0.0, alpha_mag=0.0)
        with pytest.raises(ValueError):
            shot_noise_limit(cfg)
        with pytest.raises(ValueError):
            heisenberg_limit(cfg)

    def test_ordering_of_benchmarks(self):
        # the quantum bound never beats the shot-noise line from above;
        # at dim inputs it can cross below the Heisenberg line (recorded as a
        # finding, deliberately not asserted against)
        crossings = []
        for g in (0.5, 1.0, 2.0):
            for asq in (0.01, 1.0, 10.0, 100.0):
                for ell in (1, 3):
                    cfg = _cfg(g=g, ell=ell, alpha_mag=math.sqrt(asq))
                    assert quantum_cramer_rao_bound(cfg) <= shot_noise_limit(cfg) * (1 + 1e-12)
                    if quantum_cramer_rao_bound(cfg) < heisenberg_limit(cfg):
                        crossings.append((g, asq, ell))
        if crossings:
            print(f"finding: quantum bound below Heisenberg line at {crossings}")


class TestOptimum:
    def test_operating_point_for_unit_oam(self):
        phi, theta = optimal_operating_point(1)
        assert phi == pytest.approx(math.pi / 2.0)
        assert theta == pytest.approx(math.pi / 2.0)

    def test_operating_point_scales_with_oam(self):
        phi, _ = optimal_operating_point(3)
        assert phi == pytest.approx(math.pi / 6.0)

    @pytest.mark.parametrize(
        "g, ell, alpha_mag",
        [
            (-1.0, 1, 1.0),
            (math.nan, 1, 1.0),
            (1.0, 0, 1.0),
            (1.0, -2, 1.0),
            (1.0, 1.5, 1.0),
            (1.0, True, 1.0),
            (1.0, 1, math.nan),
            (1.0, 1, math.inf),
        ],
    )
    def test_sensitivity_raises_the_config_error_outside_the_domain(self, g, ell, alpha_mag):
        with pytest.raises(ValueError) as rejected:
            ExperimentConfig(g=g, ell=ell, alpha_mag=alpha_mag, theta=0.0, phi=0.0)
        with pytest.raises(ValueError, match=f"^{re.escape(str(rejected.value))}$"):
            optimal_sensitivity(g, ell, alpha_mag)

    @pytest.mark.parametrize(
        "alpha_mag, transmissivity, message",
        [
            (0.0, 1.0, "alpha_mag must be > 0"),
            (1.0, 0.0, "transmissivity must lie in (0, 1]"),
            (1.0, 1.5, "transmissivity must lie in (0, 1]"),
        ],
    )
    def test_sensitivity_keeps_its_stricter_rules(self, alpha_mag, transmissivity, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            optimal_sensitivity(1.0, 1, alpha_mag, transmissivity)

    @pytest.mark.parametrize("ell", [True, 0, 1.5, math.nan, math.inf, -math.inf])
    def test_operating_point_rejects_what_the_config_rejects(self, ell):
        with pytest.raises(ValueError, match="^ell must be a positive integer$"):
            optimal_operating_point(ell)

    @pytest.mark.parametrize("ell", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_ell_is_named(self, ell):
        with pytest.raises(ValueError, match="^ell must be a positive integer$"):
            ExperimentConfig(g=1.0, ell=ell, alpha_mag=1.0, theta=0.0, phi=0.0)
        with pytest.raises(ValueError, match="^ell must be a positive integer$"):
            optimal_sensitivity(1.0, ell, 1.0)

    def test_grid_search_confirms_analytic_point(self):
        g, ell, amag = 1.3, 2, 3.0
        analytic = optimal_sensitivity(g, ell, amag)
        coarse, _, _ = grid_min_sensitivity(
            g, ell, amag, phi_points=100, theta_points=100, refine=False
        )
        refined, phi, theta = grid_min_sensitivity(g, ell, amag)
        assert analytic <= coarse + 1e-12  # 1e4-point grid finds nothing smaller
        assert refined == pytest.approx(analytic, rel=1e-6)
        cfg = _cfg(g=g, ell=ell, alpha_mag=amag, theta=theta, phi=phi)
        assert sensitivity(cfg) == pytest.approx(refined, rel=1e-9)

    def test_asymptotic_formula_examples(self):
        assert optimal_sensitivity_asymptotic(2.0, 1, 10.0) == pytest.approx(
            1.2716038333067318e-3, rel=1e-12
        )
        exact = optimal_sensitivity(3.0, 1, 10.0)
        approx = optimal_sensitivity_asymptotic(3.0, 1, 10.0)
        assert abs(approx / exact - 1.0) < 1e-3

    def test_asymptotic_formula_approaches_quantum_bound(self):
        for asq, tol in [(100.0, 3e-3), (1e4, 1e-4)]:
            amag = math.sqrt(asq)
            cfg = _cfg(g=4.0, alpha_mag=amag)
            ratio = optimal_sensitivity_asymptotic(4.0, 1, amag) / quantum_cramer_rao_bound(cfg)
            assert abs(ratio - 1.0) < tol


class TestSu11Comparison:
    def test_quoted_formula_value(self):
        g = 1.0
        n_opa = 2.0 * math.sinh(g) ** 2
        assert su11_phase_sensitivity(g, 5.0) == pytest.approx(
            1.0 / (math.sqrt(n_opa * (n_opa + 2.0)) * 5.0), rel=1e-12
        )
        # N(N+2) telescopes to sinh^2(2g)
        assert su11_phase_sensitivity(g, 5.0) == pytest.approx(
            1.0 / (math.sinh(2 * g) * 5.0), rel=1e-12
        )

    def test_gain_for_gain_advantage_tends_to_sqrt2(self):
        ratios = [
            su11_phase_sensitivity(g, 10.0) / hybrid_phase_sensitivity(g, 10.0)
            for g in (2.0, 3.0, 4.0)
        ]
        assert abs(ratios[1] / math.sqrt(2.0) - 1.0) < 0.02
        assert abs(ratios[2] / math.sqrt(2.0) - 1.0) < abs(ratios[0] / math.sqrt(2.0) - 1.0)

    def test_oam_scaling_of_the_optimum(self):
        base = optimal_sensitivity_asymptotic(2.0, 1, 10.0)
        for ell in (2, 3, 5):
            assert optimal_sensitivity_asymptotic(2.0, ell, 10.0) == pytest.approx(
                base / ell, rel=1e-12
            )


def _outcome(fn, *args):
    """``repr`` of the value, or the error's type and text."""
    try:
        return repr(fn(*args))
    except ArithmeticError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestOptimalSensitivityForm:
    @pytest.mark.parametrize("g_range", [(0.0, 5.0), (0.0, 710.0), (710.0, 800.0)])
    def test_scalar_calls_equal_the_plain_math_formula(self, g_range):
        # bit for bit, lossless and lossy, dim and bright; past g = 710.5 cosh g
        # overflows and both raise the same error
        rng = np.random.default_rng(13)
        for _ in range(2000):
            g = float(rng.uniform(*g_range))
            ell = int(rng.integers(1, 8))
            alpha_mag = float(10.0 ** rng.uniform(-8.0, 8.0))
            t = 1.0 if rng.random() < 0.3 else 1.0 - float(rng.random())
            assert _outcome(optimal_sensitivity, g, ell, alpha_mag, t) == _outcome(
                optimal_sensitivity_math, g, ell, alpha_mag, t
            )

    def test_overflowing_gain_raises_the_math_error(self):
        for fn in (optimal_sensitivity, optimal_sensitivity_math):
            with pytest.raises(OverflowError, match="^math range error$"):
                fn(720.0, 1, 1.0, 0.5)

    def test_underflowing_denominator_is_divergent(self):
        # 2 sqrt2 T l cosh g |alpha| rounds to 0: the ratio reads inf, where
        # the plain formula divides by zero
        assert optimal_sensitivity(0.0, 1, 5e-324, 1e-9) == math.inf
        assert optimal_sensitivity(0.0, 1, 5e-324) == math.inf
        with pytest.raises(ZeroDivisionError):
            optimal_sensitivity_math(0.0, 1, 5e-324, 1e-9)

    def test_table_on_arrays_equals_scalar_calls(self):
        # the angles are ignored; past the overflow the points are nan, no raise
        g = np.linspace(0.0, 800.0, 41)[:, None]
        t = np.array([1e-3, 0.4, 1.0])
        value = metrology.optimal_sensitivity_table(g, 2, 3.0, 0.7, -0.2, t)
        assert value.shape == (41, 3)
        for (i, j), v in np.ndenumerate(value):
            try:
                expected = optimal_sensitivity(float(g[i, 0]), 2, 3.0, float(t[j]))
            except OverflowError:
                assert math.isnan(v) and g[i, 0] > 710.0
            else:
                assert v == expected
        assert np.isnan(value).any() and not np.isnan(value[:36]).any()


class TestMaxAllowableLoss:
    def test_reference_threshold(self):
        loss = max_allowable_loss(2.0, 1, 10.0)
        assert loss != 0.0
        assert loss == pytest.approx(0.38, abs=0.01)
        assert isinstance(loss, float)

    def test_threshold_transmissivity_sits_on_the_boundary(self):
        t = 1.0 - max_allowable_loss(2.0, 1, 10.0)
        cfg = _cfg(g=2.0, alpha_mag=10.0)
        snl = shot_noise_limit(cfg)
        below = optimal_sensitivity(2.0, 1, 10.0, transmissivity=t + 1e-4)
        above = optimal_sensitivity(2.0, 1, 10.0, transmissivity=t - 1e-4)
        assert below < snl < above

    def test_dim_input_has_no_sub_snl_region(self):
        loss = max_allowable_loss(1.0, 1, 0.1)
        assert loss == 0.0

    def test_loss_tolerance_curve_has_interior_maximum(self):
        gs = np.linspace(0.5, 4.0, 15)
        losses = [max_allowable_loss(float(g), 1, 10.0) for g in gs]
        imax = int(np.argmax(losses))
        assert 0 < imax < len(losses) - 1


class TestReportAssembly:
    def test_lossless_report(self):
        phi, theta = optimal_operating_point(1)
        cfg = _cfg(g=2.0, alpha_mag=10.0, theta=theta, phi=phi)
        row = report(cfg)
        assert row["sensitivity"] == pytest.approx(optimal_sensitivity(2.0, 1, 10.0), rel=1e-12)
        assert row["fluctuation"] == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert row["visibility"] == pytest.approx(1.0, abs=1e-9)
        assert row["hl"] < row["qcrb"] < row["snl"]
        assert row["signal"] == pytest.approx(homodyne_mean(cfg), rel=1e-12)

    def test_lossy_report_uses_transmissivity(self):
        cfg = dataclasses.replace(
            _cfg(g=1.0, alpha_mag=2.0, theta=0.7, phi=0.4), transmissivity=0.6
        )
        row = report(cfg)
        assert row["signal"] == pytest.approx(homodyne_mean_lossy(cfg), rel=1e-12)
        assert row["sensitivity"] == pytest.approx(sensitivity_lossy(cfg), rel=1e-12)
        assert row["snl"] == pytest.approx(shot_noise_limit(cfg), rel=1e-12)
