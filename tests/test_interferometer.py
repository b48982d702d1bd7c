import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oam_interferometry import (
    ExperimentConfig,
    GaussianState,
    SymplecticOp,
    angular_displacement_matrix,
    bs_matrix,
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
)
from oam_interferometry.interferometer import lossless_chain, lossy_chain
from oam_interferometry.phase_space import MAX_GAIN
from oam_interferometry.validation import (
    ENGINE_TOL,
    LOSS_LAW_TOL,
    grid_configs,
    random_lossy_configs,
)
from helpers import config_columns, guarded_rel, random_config
from reference import (
    LossChannel,
    apply_element,
    apply_loss,
    displaced_vacuum,
    stage_by_stage_chain,
)


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
        manual = apply_element(bs_matrix(), displaced_vacuum(1.4, 0.6))
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
        lossless_before_bs = displaced_vacuum(cfg.alpha_mag, cfg.theta)
        for op in (opa_matrix(cfg.g), angular_displacement_matrix(cfg.ell, cfg.phi)):
            lossless_before_bs = apply_element(op, lossless_before_bs)
        attenuated = apply_loss(LossChannel(0.63), lossless_before_bs, (0, 1))
        expected = apply_element(bs_matrix(), attenuated)
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
        g, ell, alpha_mag, theta, phi, t = config_columns(configs)
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


def _raised(call):
    """The type and text of what ``call`` raises, with RuntimeWarning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(Exception) as raised:
            call()
    return type(raised.value), str(raised.value)


def _stacked(point, index):
    """Three-point columns with ``point`` at ``index`` among two working points."""
    other = (0.4, 3, 2.0, 1.1, 2.3, 0.8)
    return tuple(
        np.array([value if i == index else spare for i in range(3)])
        for value, spare in zip(point, other)
    )


# T at each end of its range and next to it
_EDGE_T = (0.0, math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0), 1.0)

# inputs that fail, each with the text that names it
_FAILING = [
    (dict(g=400.0), "g = 400.0 is outside the engine's range |g| <= 350"),
    (dict(g=math.nan), "g = nan is outside the engine's range |g| <= 350"),
    (dict(ell=0), "ell must be a positive integer"),
    (dict(ell=1.5), "ell must be a positive integer"),
    (dict(ell=math.nan), "ell must be a positive integer"),
    (dict(phi=math.nan), "phi must be finite"),
    (dict(phi=math.inf), "phi must be finite"),
    (dict(ell=5, phi=1e308), "2 ell phi must be finite"),
    (dict(alpha_mag=-1.0), "alpha_mag must be >= 0"),
    (dict(theta=math.inf), "theta must be finite"),
    (dict(theta=math.nan), "theta must be finite"),
    (dict(alpha_mag=1e308, theta=0.0), "mean must be finite"),
    (dict(transmissivity=-0.1), "transmissivity must lie in [0, 1]"),
    (dict(transmissivity=1.1), "transmissivity must lie in [0, 1]"),
    (dict(transmissivity=math.nan), "transmissivity must lie in [0, 1]"),
]


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
        columns = config_columns(configs)
        for batched, run in (
            (lossless_chain(*columns[:5]), run_lossless),
            (lossy_chain(*columns), run_lossy),
        ):
            assert batched.mean.shape == (len(configs), 4)
            reference = [run(cfg) for cfg in configs]
            for name in ("mean", "cov"):
                want = np.array([getattr(state, name) for state in reference])
                assert getattr(batched, name).tobytes() == want.tobytes(), name

    @given(
        g=st.one_of(st.floats(0.0, 3.0), st.floats(0.0, MAX_GAIN), st.just(MAX_GAIN)),
        ell=st.integers(1, 5),
        alpha_sq=st.one_of(st.just(0.0), st.floats(0.0, 100.0), st.floats(1e4, 1e12)),
        theta=st.floats(0.0, 2.0 * math.pi),
        phi=st.floats(0.0, 2.0 * math.pi),
        t=st.one_of(st.sampled_from(_EDGE_T), st.floats(0.0, 1.0)),
        index=st.integers(0, 2),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_point_has_its_bytes_inside_a_stack(self, g, ell, alpha_sq, theta, phi, t, index):
        point = (g, ell, math.sqrt(alpha_sq), theta, phi, t)
        stack = _stacked(point, index)
        for alone, stacked in (
            (lossless_chain(*point[:5]), lossless_chain(*stack[:5])),
            (lossy_chain(*point), lossy_chain(*stack)),
        ):
            assert alone.mean.shape == (4,)
            assert alone.mean.tobytes() == stacked.mean[index].tobytes()
            assert alone.cov.tobytes() == stacked.cov[index].tobytes()

    @pytest.mark.parametrize(
        "lossy,bad,text",
        [
            pytest.param(
                lossy,
                bad,
                text,
                id=f"{'lossy' if lossy else 'lossless'}-"
                + ",".join(f"{k}={v}" for k, v in bad.items()),
            )
            for lossy in (False, True)
            for bad, text in _FAILING
            # the lossless chain takes no T
            if lossy or "transmissivity" not in bad
        ],
    )
    def test_a_failing_point_raises_what_it_raises_inside_a_stack(self, lossy, bad, text):
        point = dict(g=1.0, ell=2, alpha_mag=1.5, theta=0.3, phi=0.7, transmissivity=0.6)
        point.update(bad)
        point = tuple(point.values())
        chain, point = (lossy_chain, point) if lossy else (lossless_chain, point[:5])
        alone = _raised(lambda: chain(*point))
        assert alone == (ValueError, text)
        assert _raised(lambda: chain(*_stacked(point, 1))) == alone

    @pytest.mark.parametrize(
        "call",
        [
            lambda: lossless_chain(np.array([]), 1, 1.0, 0.0, 0.0),
            lambda: lossy_chain(1.0, 1, 1.0, 0.0, 0.0, np.array([])),
        ],
        ids=["lossless-no-gains", "lossy-no-transmissivities"],
    )
    def test_an_empty_stack_gives_no_states(self, call):
        state = call()
        assert state.mean.shape == (0, 4)
        assert state.cov.shape == (0, 4, 4)

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


def _draws(rng, count):
    """Seeded columns g, ell, alpha_mag, theta, phi, T: half the gains up to
    3, half up to MAX_GAIN, and T at 0, at 1 and inside."""
    low, high = count - count // 2, count // 2
    g = np.concatenate([rng.uniform(0.0, 3.0, low), rng.uniform(0.0, MAX_GAIN, high)])
    t = rng.uniform(0.0, 1.0, count)
    t[: count // 8], t[count // 8 : count // 4] = 0.0, 1.0
    return (
        g,
        rng.integers(1, 6, count).astype(float),
        np.sqrt(rng.uniform(0.0, 1e4, count)),
        rng.uniform(0.0, 2.0 * math.pi, count),
        rng.uniform(0.0, 2.0 * math.pi, count),
        t,
    )


def _assert_near(state, reference):
    """Every entry within 1e-14 of its state's largest entry."""
    scale = np.maximum(np.abs(reference.mean).max(-1), np.abs(reference.cov).max((-2, -1)))
    assert np.all(np.abs(state.mean - reference.mean).max(-1) <= 1e-14 * scale)
    assert np.all(np.abs(state.cov - reference.cov).max((-2, -1)) <= 1e-14 * scale)


class TestAgainstStageByStageChain:
    """The one-pass chains against a checked state per stage, loss by the
    8x8 dilation and its partial trace (``reference.stage_by_stage_chain``)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stacks(self, seed):
        columns = _draws(np.random.default_rng(seed), 400)
        _assert_near(lossless_chain(*columns[:5]), stage_by_stage_chain(*columns[:5]))
        _assert_near(lossy_chain(*columns), stage_by_stage_chain(*columns))

    def test_points(self):
        g, ell, alpha_mag, theta, phi, t = _draws(np.random.default_rng(3), 48)
        for point in zip(g, ell, alpha_mag, theta, phi, t):
            config = ExperimentConfig(*point)
            _assert_near(run_lossless(config), stage_by_stage_chain(*point[:5]))
            _assert_near(run_lossy(config), stage_by_stage_chain(*point))

    @pytest.mark.parametrize(
        "stack",
        [
            # the input alone is a stack; every element is one matrix
            lambda g, ell, alpha_mag, theta, phi, t: (
                g[0], ell[0], alpha_mag, theta, phi[0], t[0]
            ),
            # only T is a stack
            lambda g, ell, alpha_mag, theta, phi, t: (
                g[0], ell[0], alpha_mag[0], theta[0], phi[0], t
            ),
            # the gains cross the input magnitudes, the rest broadcast along
            lambda g, ell, alpha_mag, theta, phi, t: (
                g[:, None], ell[0], alpha_mag[None, :], theta[0], phi[:, None], t[None, :]
            ),
        ],
        ids=["input-stack", "loss-stack", "crossed"],
    )
    def test_parameters_broadcast(self, stack):
        columns = stack(*_draws(np.random.default_rng(4), 6))
        for state, reference in [
            (lossless_chain(*columns[:5]), stage_by_stage_chain(*columns[:5])),
            (lossy_chain(*columns), stage_by_stage_chain(*columns)),
        ]:
            assert state.cov.shape == reference.cov.shape
            _assert_near(state, reference)


class TestOneStatePerChain:
    """Each chain checks one GaussianState, its output, and no state per stage."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda: run_lossless(_cfg(g=0.7, ell=2, alpha_mag=1.5, theta=0.3, phi=1.1)),
            lambda: run_lossy(
                _cfg(g=0.7, ell=2, alpha_mag=1.5, theta=0.3, phi=1.1, transmissivity=0.4)
            ),
            lambda: lossless_chain(*config_columns(grid_configs("quick"))[:5]),
            lambda: lossy_chain(*config_columns(random_lossy_configs(30))),
        ],
        ids=["run_lossless", "run_lossy", "lossless_chain", "lossy_chain"],
    )
    def test_one_state_is_built(self, run, monkeypatch):
        built = []
        check = GaussianState.__post_init__

        def counted(state):
            built.append(state)
            check(state)

        monkeypatch.setattr(GaussianState, "__post_init__", counted)
        state = run()
        assert built == [state]


# (case, input, bad value, error): each case has the bad inputs of the next
# one and one more, which is the one named
_BAD = [
    ("g", "g", 400.0, r"^g = 400\.0 is outside the engine's range"),
    ("ell", "ell", 0, r"^ell must be a positive integer$"),
    ("phi", "phi", math.nan, r"^phi must be finite$"),
    ("magnitude", "alpha_mag", np.array([-1.0, 1e308]), r"^alpha_mag must be >= 0$"),
    ("theta", "theta", math.inf, r"^theta must be finite$"),
    ("mean", "alpha_mag", np.array([1.0, 1e308]), r"^mean must be finite$"),
    ("T", "transmissivity", 1.5, r"^transmissivity must lie in \[0, 1\]$"),
]


class TestErrorOrder:
    """With several bad inputs the chains name the first in the order g,
    ell, phi, a negative alpha_mag, theta, a displaced mean that is not
    finite, T."""

    @pytest.mark.parametrize(
        "lossy,first",
        [
            pytest.param(lossy, first, id=f"{'lossy' if lossy else 'lossless'}-{_BAD[first][0]}")
            for lossy in (False, True)
            # the lossless chain takes no T
            for first in range(len(_BAD) if lossy else len(_BAD) - 1)
        ],
    )
    def test_first_bad_input_is_named(self, lossy, first):
        inputs = dict(
            g=1.0, ell=1, alpha_mag=np.array([1.0, 2.0]), theta=0.1, phi=0.2, transmissivity=0.5
        )
        for _, name, value, _ in reversed(_BAD[first:]):
            inputs[name] = value
        if not lossy:
            del inputs["transmissivity"]
        with pytest.raises(ValueError, match=_BAD[first][3]):
            (lossy_chain if lossy else lossless_chain)(**inputs)


class TestBadAngles:
    """A non-finite angle is named by its field, with ExperimentConfig's
    text, before any arithmetic can warn on it."""

    @pytest.mark.parametrize(
        "point,text",
        [
            ((1.0, 1, 1.0, 0.0, math.inf), "phi must be finite"),
            ((1.0, 1, 1.0, 0.0, -math.inf), "phi must be finite"),
            ((1.0, 1, 1.0, 0.0, math.nan), "phi must be finite"),
            ((1.0, 1, 1.0, math.inf, 0.0), "theta must be finite"),
            ((1.0, 1, 1.0, math.nan, 0.0), "theta must be finite"),
            ((1.0, 1, 0.0, math.nan, 0.0), "theta must be finite"),
            # phi is finite, but 2 ell phi leaves the double range
            ((1.0, 5, 1.0, 0.0, 1e308), "2 ell phi must be finite"),
            ((1.0, 1, 1.0, 0.0, np.array([0.1, math.nan])), "phi must be finite"),
            ((1.0, 1, 1.0, np.array([0.1, -math.inf]), 0.0), "theta must be finite"),
        ],
    )
    def test_both_chains_name_the_field(self, point, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for call in (lambda: lossless_chain(*point), lambda: lossy_chain(*point, 0.5)):
                assert _error(call) == text

    def test_a_config_whose_2_ell_phi_overflows_names_phi(self):
        # ExperimentConfig accepts the finite phi; the engine names the product
        cfg = _cfg(ell=5, phi=1e308, transmissivity=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for run in (run_lossless, run_lossy):
                assert _error(lambda: run(cfg)) == "2 ell phi must be finite"


class TestSuperResolutionPeriod:
    """The engine's output repeats when phi moves by pi / ell: the rotation
    imprints 2 ell phi, so the signal has 2 ell fringes per turn."""

    @given(
        g=st.floats(0.0, 3.0),
        ell=st.integers(1, 5),
        alpha_sq=st.floats(0.0, 100.0),
        theta=st.floats(0.0, 2.0 * math.pi),
        phi=st.floats(0.0, 2.0 * math.pi),
        t=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_chains_repeat_after_pi_over_ell(self, g, ell, alpha_sq, theta, phi, t):
        args = (g, ell, math.sqrt(alpha_sq), theta)
        for chain, loss in ((lossless_chain, ()), (lossy_chain, (t,))):
            state, moved = chain(*args, phi, *loss), chain(*args, phi + math.pi / ell, *loss)
            scale = max(np.abs(state.mean).max(), np.abs(state.cov).max())
            assert np.abs(moved.mean - state.mean).max() <= 1e-12 * scale
            assert np.abs(moved.cov - state.cov).max() <= 1e-12 * scale
