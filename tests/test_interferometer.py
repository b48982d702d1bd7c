import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from oam_interferometry import (
    ExperimentConfig,
    GaussianState,
    SymplecticOp,
    angular_displacement_matrix,
    apply,
    bs_matrix,
    displace,
    homodyne_mean,
    homodyne_second_moment,
    mean_photon_number,
    metrology,
    opa_matrix,
    photon_number,
    quadrature_mean,
    quadrature_second_moment,
    run_lossless,
    run_lossy,
    vacuum_state,
)
from oam_interferometry.interferometer import lossless_chain, lossy_chain
from oam_interferometry.phase_space import MAX_GAIN
from oam_interferometry.validation import (
    ENGINE_TOL,
    LOSS_LAW_TOL,
    _columns,
    grid_configs,
    random_lossy_configs,
)
from helpers import guarded_rel, random_config
from reference import LossChannel, apply_loss


def _cfg(**kw):
    base = dict(g=1.0, ell=1, alpha_mag=1.0, theta=0.0, phi=0.0)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(ell=0),
            dict(ell=1.5),
            dict(g=-0.1),
            dict(alpha_mag=-1.0),
            dict(transmissivity=1.5),
            dict(transmissivity=-0.01),
            dict(theta=math.nan),
            dict(g=math.inf),
        ],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            _cfg(**kw)

    def test_config_is_frozen(self):
        cfg = _cfg()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.g = 2.0


class TestPipelines:
    def test_zero_gain_zero_rotation_is_a_bare_coupler(self):
        cfg = _cfg(g=0.0, phi=0.0, alpha_mag=1.4, theta=0.6)
        manual = apply(bs_matrix(), displace(vacuum_state(), 1.4, 0.6))
        auto = run_lossless(cfg)
        assert np.allclose(auto.mean, manual.mean, atol=1e-15)
        assert np.allclose(auto.cov, manual.cov, atol=1e-15)

    def test_full_transmission_equals_lossless(self):
        for seed in range(5):
            cfg = random_config(np.random.default_rng(seed))
            lossless = run_lossless(cfg)
            lossy = run_lossy(dataclasses.replace(cfg, transmissivity=1.0))
            assert np.max(np.abs(lossless.mean - lossy.mean)) < 1e-10
            assert np.max(np.abs(lossless.cov - lossy.cov)) < 1e-10

    def test_zero_transmission_kills_the_signal(self):
        out = run_lossy(_cfg(alpha_mag=3.0, g=1.2, transmissivity=0.0))
        assert np.max(np.abs(out.mean)) < 1e-12
        assert np.allclose(out.cov, np.eye(4), atol=1e-12)

    def test_loss_placement_matches_direct_channel_after_rotation(self):
        # loss acts between the rotation and the output coupler
        cfg = _cfg(g=0.9, ell=3, alpha_mag=2.0, theta=1.1, phi=0.5, transmissivity=0.63)
        lossless_before_bs = displace(vacuum_state(), cfg.alpha_mag, cfg.theta)
        for op in (opa_matrix(cfg.g), angular_displacement_matrix(cfg.ell, cfg.phi)):
            lossless_before_bs = apply(op, lossless_before_bs)
        attenuated = apply_loss(LossChannel(0.63), lossless_before_bs, (0, 1))
        expected = apply(bs_matrix(), attenuated)
        actual = run_lossy(cfg)
        assert np.allclose(actual.mean, expected.mean, atol=1e-12)
        assert np.allclose(actual.cov, expected.cov, atol=1e-12)


class TestPhotonNumber:
    def test_no_amplification(self):
        assert mean_photon_number(_cfg(g=0.0, alpha_mag=10.0)) == pytest.approx(100.0)

    def test_amplified_bright_input(self):
        cfg = _cfg(g=1.0, alpha_mag=math.sqrt(10.0))
        assert mean_photon_number(cfg) == pytest.approx(40.38415260191995, rel=1e-12)

    def test_vacuum_input_still_radiates(self):
        cfg = _cfg(g=1.0, alpha_mag=0.0)
        assert mean_photon_number(cfg) == pytest.approx(2.762195691083631, rel=1e-12)

    def test_closed_form_matches_state_bookkeeping(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            cfg = random_config(rng)
            state = run_lossless(cfg)
            assert guarded_rel(photon_number(state), mean_photon_number(cfg)) < 1e-9

    def test_bright_input_overflows_loudly_on_both_routes(self):
        # |alpha| = 1e200: the mean entries are finite, their squares are not
        cfg = _cfg(g=2.0, ell=1, alpha_mag=1e200, theta=0.1, phi=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            state = run_lossless(cfg)
            with pytest.raises(OverflowError) as closed_form:
                mean_photon_number(cfg)
            with pytest.raises(OverflowError) as engine:
                photon_number(state)
        assert str(engine.value) == str(closed_form.value)

    def test_photon_number_past_the_double_range_raises(self):
        # cosh(2g) |alpha|^2 is about 5e315 at g = 350, |alpha|^2 = 1e12
        cfg = _cfg(g=350.0, ell=1, alpha_mag=1e6, theta=0.1, phi=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OverflowError, match="^photon number out of range$"):
                mean_photon_number(cfg)
            with pytest.raises(OverflowError):
                photon_number(run_lossless(cfg))

    def test_is_the_table_form_bit_for_bit(self):
        rng = np.random.default_rng(3)
        configs = [random_config(rng, lossy=True) for _ in range(200)] + grid_configs("quick")
        g, ell, alpha_mag, theta, phi, t = _columns(configs)
        table = metrology.photon_number_table(g, ell, alpha_mag, theta, phi, t)
        assert [mean_photon_number(cfg) for cfg in configs] == table.tolist()

    @pytest.mark.parametrize(
        "g, alpha_mag, text",
        [
            (350.0, 1e6, "photon number out of range"),
            (356.0, 1.0, "math range error"),
            (2.0, 1e200, "(34, 'Numerical result out of range')"),
            (700.0, 0.0, "math range error"),
        ],
    )
    def test_overflow_raises_the_table_forms_error(self, g, alpha_mag, text):
        cfg = _cfg(g=g, alpha_mag=alpha_mag, theta=0.1, phi=0.2)
        for call in (
            lambda: mean_photon_number(cfg),
            lambda: metrology.photon_number_table(g, 1, alpha_mag, 0.1, 0.2, 1.0),
        ):
            with pytest.raises(OverflowError) as raised:
                call()
            assert str(raised.value) == text

    def test_displacement_past_the_float_range_names_the_mean(self):
        with pytest.raises(ValueError, match="^mean must be finite$"):
            run_lossless(_cfg(g=2.0, ell=1, alpha_mag=1e308, theta=0.1, phi=0.2))


class TestEngineAgainstClosedForms:
    GRID = list(
        itertools.product(
            (0.0, 0.5, 1.0, 2.0),
            (1, 2, 3),
            (0.0, 1.0, math.sqrt(10.0)),
            (0.0, 1.1, 2.7, 4.5),
            (0.2, 0.9, 1.7, 3.0),
        )
    )

    def test_moments_match_over_grid(self):
        worst_mean = worst_second = 0.0
        for g, ell, amag, theta, phi in self.GRID:
            cfg = ExperimentConfig(g=g, ell=ell, alpha_mag=amag, theta=theta, phi=phi)
            state = run_lossless(cfg)
            worst_mean = max(
                worst_mean, guarded_rel(quadrature_mean(state), homodyne_mean(cfg))
            )
            worst_second = max(
                worst_second,
                guarded_rel(quadrature_second_moment(state), homodyne_second_moment(cfg)),
            )
        assert worst_mean < 1e-9
        assert worst_second < 1e-9

    def test_fluctuation_matches_engine_variance(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            cfg = random_config(rng)
            state = run_lossless(cfg)
            engine = math.sqrt(state.cov[0, 0])
            fluctuation = metrology.fluctuation_table(
                cfg.g, cfg.ell, cfg.alpha_mag, cfg.theta, cfg.phi, cfg.transmissivity
            )
            assert guarded_rel(engine, float(fluctuation)) < 1e-9

    def test_lossy_second_moment_with_opa_off(self):
        # with the amplifier off the lossy variance interpolates to vacuum
        cfg = _cfg(g=0.0, alpha_mag=2.0, theta=0.3, phi=0.8, transmissivity=0.4)
        state = run_lossy(cfg)
        assert state.cov[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert quadrature_mean(state) == pytest.approx(
            math.sqrt(0.4) * homodyne_mean(cfg), rel=1e-12
        )


class TestLargeGain:
    @pytest.mark.parametrize("g", [8.0, 10.0, 50.0, 200.0, 300.0, MAX_GAIN])
    def test_engine_runs_and_keeps_the_laws(self, g):
        cfg = _cfg(g=g, ell=2, alpha_mag=3.0, theta=0.3, phi=0.2, transmissivity=0.7)
        lossless, lossy = run_lossless(cfg), run_lossy(cfg)
        assert guarded_rel(photon_number(lossless), mean_photon_number(cfg)) <= ENGINE_TOL
        law = math.sqrt(0.7) * homodyne_mean(cfg)
        assert guarded_rel(quadrature_mean(lossy), law) <= LOSS_LAW_TOL

    @pytest.mark.parametrize("run", [run_lossless, run_lossy])
    def test_gain_past_the_range_fails_loudly(self, run):
        cfg = _cfg(g=400.0, alpha_mag=3.0, transmissivity=0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=r"^g = 400\.0 is outside the engine's range"):
                run(cfg)


def _large_gain_configs():
    return [
        _cfg(g=g, ell=ell, alpha_mag=3.0, theta=theta, phi=0.2, transmissivity=0.7)
        for g in (8.0, 50.0, 200.0, 300.0, MAX_GAIN)
        for ell in (1, 3)
        for theta in (0.3, 2.0)
    ]


def _error(call):
    with pytest.raises(ValueError) as raised:
        call()
    return str(raised.value)


class TestBatchedChains:
    """The stacked chains that validate runs against the per-point reference."""

    @pytest.mark.parametrize(
        "configs",
        [
            lambda: grid_configs("quick"),
            lambda: grid_configs("full"),
            lambda: random_lossy_configs(1000),
            _large_gain_configs,
        ],
        ids=["quick", "full", "random-lossy", "large-gain"],
    )
    def test_stacks_equal_the_per_point_states(self, configs):
        configs = configs()
        columns = _columns(configs)
        for batched, run in (
            (lossless_chain(*columns[:5]), run_lossless),
            (lossy_chain(*columns), run_lossy),
        ):
            assert batched.mean.shape == (len(configs), 4)
            reference = [run(cfg) for cfg in configs]
            for name in ("mean", "cov"):
                want = np.array([getattr(state, name) for state in reference])
                got = getattr(batched, name)
                assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want))), name

    def test_non_symplectic_element_of_a_stack_is_rejected(self):
        stack = opa_matrix(np.array([0.5, 10.0, 2.0])).matrix.copy()
        stack[1, 0, 0] *= 1.0 + 1e-6
        alone = _error(lambda: SymplecticOp(stack[1], "OPA"))
        assert alone.startswith("OPA: not symplectic (defect ")
        assert _error(lambda: SymplecticOp(stack, "OPA")) == alone

    @pytest.mark.parametrize(
        "field,index,value,text",
        [
            ("mean", (1, 2), math.nan, "mean must be finite"),
            ("mean", (2, 0), -math.inf, "mean must be finite"),
            ("cov", (1, 3, 3), math.inf, "cov must be finite"),
            ("cov", (2, 0, 1), 0.5, "cov must be symmetric"),
        ],
    )
    def test_one_bad_state_of_a_stack_is_rejected(self, field, index, value, text):
        state = lossless_chain(np.array([0.2, 0.7, 1.5]), 2, 1.3, 0.4, 1.1)
        arrays = {"mean": state.mean.copy(), "cov": state.cov.copy()}
        arrays[field][index] = value
        point = index[0]
        alone = _error(lambda: GaussianState(arrays["mean"][point], arrays["cov"][point]))
        assert alone == text
        assert _error(lambda: GaussianState(arrays["mean"], arrays["cov"])) == text

    @pytest.mark.parametrize(
        "chain,run,loss",
        [(lossless_chain, run_lossless, ()), (lossy_chain, run_lossy, (0.7,))],
        ids=["lossless", "lossy"],
    )
    def test_gain_past_the_range_names_g(self, chain, run, loss):
        g = np.array([1.0, 400.0, 2.0])
        alone = _error(lambda: run(_cfg(g=400.0, alpha_mag=3.0, transmissivity=0.7)))
        assert alone.startswith("g = 400.0 is outside the engine's range")
        assert _error(lambda: chain(g, 1, 3.0, 0.0, 0.0, *loss)) == alone
