import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oam_interferometry import (
    ExperimentConfig,
    UnreliableStateError,
    evolve,
    homodyne_mean,
    homodyne_second_moment,
    mean_photon_number,
    moments,
)
from oam_interferometry import fock_oracle
from oam_interferometry.fock_oracle import DEFAULT_TAIL_TOLERANCE, _real_state
from oam_interferometry.validation import ORACLE_TOL, grid_configs
from helpers import flip_mode_b_ladder, random_config
from reference import (
    annihilation,
    apply_blocked,
    bs_unitary,
    build_operators,
    dense_moments,
    ladder_exp_one_shot,
    output_moments,
    pre_coupler_chain,
    squeezer_unitary,
)


def _cfg(**kw):
    base = dict(g=0.0, ell=1, alpha_mag=0.0, theta=0.0, phi=0.0)
    base.update(kw)
    return ExperimentConfig(**base)


class TestLadderOperators:
    def test_superdiagonal_entries(self):
        a = annihilation(2)
        expected = np.array(
            [
                [0.0, 1.0, 0.0],
                [0.0, 0.0, math.sqrt(2.0)],
                [0.0, 0.0, 0.0],
            ]
        )
        assert np.array_equal(a, expected)

    def test_commutator_fails_only_on_the_top_level(self):
        c = 12
        a = annihilation(c)
        comm = a @ a.T - a.T @ a
        assert np.allclose(comm[:c, :c], np.eye(c), atol=1e-14)
        assert comm[c, c] == pytest.approx(-c)

    def test_number_operator_spectrum(self):
        c = 9
        a = annihilation(c)
        assert np.allclose(np.sort(np.linalg.eigvalsh(a.T @ a)), np.arange(c + 1), atol=1e-12)

    def test_cutoff_floor(self):
        with pytest.raises(ValueError):
            annihilation(1)

    def test_two_mode_embedding(self):
        ops = build_operators(3)
        a1 = annihilation(3)
        eye = np.eye(4)
        assert np.array_equal(ops.a, np.kron(a1, eye))
        assert np.array_equal(ops.b, np.kron(eye, a1))
        n = ops.total_number_diagonal()
        assert n[0] == 0.0 and n[-1] == 6.0


def _boxed(column, cutoff):
    """``column`` cut to levels ``0 .. cutoff`` and renormalised there."""
    column = column[: cutoff + 1]
    return column / np.linalg.norm(column)


class TestBlockedUnitaries:
    """The reference's symmetry-blocked squeezer and coupler against dense
    expm of the same truncated generators on the (cutoff+1)^2-dimensional
    two-mode space, and the slots the oracle puts its amplitudes in."""

    CUTOFF = 12

    @pytest.fixture(scope="class")
    def psi(self):
        rng = np.random.default_rng(1212)
        dim = self.CUTOFF + 1
        psi = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return psi / np.linalg.norm(psi)

    @pytest.mark.parametrize("g", [0.3, 0.9])
    def test_squeezer_matches_dense_expm(self, g, psi):
        # the general blocked squeezer of the reference chain, on any input
        ops = build_operators(self.CUTOFF)
        dense = expm(g * (ops.a.T @ ops.b.T - ops.a @ ops.b))
        blocked = apply_blocked(*squeezer_unitary(g, self.CUTOFF), psi)
        assert np.max(np.abs(blocked.ravel() - dense @ psi.ravel())) <= 1e-12

    @pytest.mark.parametrize("mixing_angle", [math.pi / 4.0, 3.0 * math.pi / 4.0])
    def test_coupler_matches_dense_expm(self, mixing_angle, psi):
        # 3 pi/4 is the balanced coupler three times over
        ops = build_operators(self.CUTOFF)
        dense = expm(mixing_angle * (ops.a.T @ ops.b - ops.a @ ops.b.T))
        blocks, index = bs_unitary(self.CUTOFF)
        times = round(mixing_angle / (math.pi / 4.0))
        blocked = apply_blocked(np.linalg.matrix_power(blocks, times), index, psi)
        assert np.max(np.abs(blocked.ravel() - dense @ psi.ravel())) <= 1e-12

    @pytest.mark.parametrize("cutoff", [12, 40])
    def test_coupler_slots_read_the_squeezer_columns(self, cutoff):
        # the coupler's input slot (n_a, n_b) holds the squeezer's amplitude
        # s_{d,k} at d = n_a - n_b, k = n_b, scaled by the displaced amplitude
        # c_d and rotated by e^{i theta d} e^{i 2 l phi n_a}, each evaluated
        # here as a plain product in math; the upper triangle holds nothing
        config = _cfg(g=0.3, ell=2, alpha_mag=1.2, theta=0.5, phi=0.7)
        g, magnitude, dim = config.g, config.alpha_mag, cutoff + 1
        expected = np.zeros((dim, dim), dtype=complex)
        for n_a in range(dim):
            for n_b in range(n_a + 1):
                d = n_a - n_b
                coherent = math.exp(-magnitude**2 / 2.0) * magnitude**d / math.sqrt(math.factorial(d))
                squeezed = math.tanh(g) ** n_b * math.sqrt(math.comb(n_a, n_b)) / math.cosh(g) ** (d + 1)
                phase = np.exp(1j * config.theta * d) * np.exp(1j * 2.0 * config.ell * config.phi * n_a)
                expected[n_a, n_b] = coherent * squeezed * phase
        expected /= np.linalg.norm(expected)
        psi = evolve(config, cutoff=cutoff).amplitudes.reshape(dim, dim)
        assert np.max(np.abs(psi - expected)) <= 1e-15
        assert np.all(psi[np.triu_indices(dim, 1)] == 0.0)


class TestLadderExponential:
    """The reference's squeezer and coupler blocks at the schedule's cutoffs
    are orthogonal to rounding, and the oracle's displaced vacuum (g = 0)
    equals dense expm at twice its cutoff, cut to its box and renormalised:
    measured at most 8.9e-16."""

    @pytest.mark.parametrize("cutoff", [40, 60, 80])
    @pytest.mark.parametrize("element", ["squeezer", "coupler"])
    def test_blocks_are_orthogonal(self, element, cutoff):
        blocks = (squeezer_unitary(0.5, cutoff) if element == "squeezer" else bs_unitary(cutoff))[0]
        defect = blocks @ np.swapaxes(blocks, -1, -2) - np.eye(cutoff + 1)
        assert np.max(np.abs(defect)) <= 1e-14

    @pytest.mark.parametrize("cutoff", [40, 60, 80])
    @pytest.mark.parametrize("alpha_sq", [1.0, 2.5, 4.0])
    def test_displacement_column_matches_dense_expm(self, alpha_sq, cutoff):
        a = annihilation(2 * cutoff)
        dense = _boxed(expm(math.sqrt(alpha_sq) * (a.T - a))[:, 0], cutoff)
        psi = _real_state(0.0, math.sqrt(alpha_sq), cutoff).psi
        assert np.max(np.abs(psi[:, 0] - dense)) <= 2e-15
        assert np.all(psi[:, 1:] == 0.0)


def _converged(cutoff):
    # the reference's ladder at 4 cutoff, and at least 48: at 12 the g = 1.1
    # squeezer block is still 9.3e-5 off at cutoff 3
    return max(4 * cutoff, 48)


class TestBatchedBuild:
    """The oracle builds its state from two closed-form factors: the
    displaced vacuum c_d (its state at g = 0) and the squeezer's column
    s_{0,k} on the diagonal (its state at |alpha| = 0).  Each is pinned
    against column 0 of the one-shot ladder exponential (tests/reference.py)
    at a converged cutoff, cut to the oracle's box and renormalised; the
    chain tests below pin their product.  The one-shot exponential itself is
    checked against scipy's expm on general weight stacks."""

    # measured at most 9.0e-16 (squeezer, g = 1.1, cutoff 12) and 7.8e-16
    # (displacement, cutoff 3)
    BOUND = 2e-15

    @pytest.mark.parametrize("shape", [(1, 11), (4, 11), (5, 11), (25, 11), (161, 11), (11,), (3, 5, 11)])
    def test_weight_stacks(self, shape):
        # level 0 links to levels 1 to 3 only, and the rest to one another;
        # scipy's scaling and squaring differs by at most 2.4e-14, at (161, 11)
        rng = np.random.default_rng(sum(shape))
        weights = rng.normal(size=shape)
        weights[..., 3::4] = 0.0
        one_shot = ladder_exp_one_shot(weights).reshape(-1, 12, 12)
        for w, exp in zip(weights.reshape(-1, 11), one_shot):
            generator = np.diag(w, -1) - np.diag(w, 1)
            assert np.max(np.abs(exp - expm(generator))) <= 5e-14

    @pytest.mark.parametrize("cutoff", [3, 12, 40, 80])
    @pytest.mark.parametrize(
        "g, magnitude",
        [(0.0, 0.0), (0.3, 0.0), (0.9, 0.0), (1.1, 0.0), (0.0, 2.5)],
        ids=["squeezer-0", "squeezer-0.3", "squeezer-0.9", "squeezer-1.1", "displacement"],
    )
    def test_oracle_stacks(self, g, magnitude, cutoff):
        # the squeezer steps (k, k) -> (k + 1, k + 1) with k + 1 and the
        # displacement n -> n + 1 with sqrt(n + 1)
        psi = _real_state(g, magnitude, cutoff).psi
        level = np.arange(1.0, _converged(cutoff) + 1)
        expected = np.zeros_like(psi)
        if magnitude == 0.0:
            column = ladder_exp_one_shot(g * level)[:, 0]
            np.fill_diagonal(expected, _boxed(column, cutoff))
        else:
            column = ladder_exp_one_shot(magnitude * np.sqrt(level))[:, 0]
            expected[:, 0] = _boxed(column, cutoff)
        assert np.max(np.abs(psi - expected)) <= self.BOUND

    def test_cached_results_stay_read_only(self):
        # the real state every point of its gain and amplitude shares, and
        # the amplitudes built from it
        kept = (
            _real_state(0.3, 1.0, 12).psi,
            evolve(_cfg(g=0.3, alpha_mag=1.0, theta=0.4, phi=0.7), cutoff=12).amplitudes,
        )
        for array in kept:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 1.0


class TestColdBuildMemory:
    """A cold real state holds a few (cutoff + 1)^2 arrays at its peak: at
    cutoff 80 it peaked at 0.41 MiB (tracemalloc), about eight of them, and
    keeps one, 51 KiB.  Nothing is kept per cutoff."""

    def test_real_state_peak_below_half_a_mib(self):
        # the builder behind the cache, so the build is cold whatever ran before
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _real_state.__wrapped__(0.3, 1.5, 80)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 2**19


# walks 40 -> 60 -> 80, with tails 7.7e-4, 1.5e-6 and 1.4e-9
FAR_POINT = dict(g=1.0, ell=1, alpha_mag=2.0, theta=0.3, phi=0.2)


class TestAgainstReferenceChain:
    """The oracle's closed-form states against the chain of truncated
    operators (tests/reference.py): the displacement column, then the
    general blocked squeezer on the whole input state, at a cutoff where the
    chain has converged, cut to the oracle's box and renormalised.  The
    amplitudes below differed by at most 1.1e-15; at twice cutoff 12 the
    chain is still 1.1e-6 off."""

    BOUND = 2e-15

    def _assert_close(self, configs, states, chain_cutoff):
        cutoff = states[0].cutoff
        expected = pre_coupler_chain(configs, chain_cutoff)[:, : cutoff + 1, : cutoff + 1]
        expected /= np.linalg.norm(expected, axis=(1, 2))[:, None, None]
        for state, matrix in zip(states, expected):
            assert np.max(np.abs(state.amplitudes - matrix.ravel())) <= self.BOUND

    def test_quick_grid_at_40(self):
        configs = grid_configs("quick")
        self._assert_close(configs, [evolve(config, cutoff=40) for config in configs], 80)

    def test_cutoff_80_rung(self):
        config = _cfg(**FAR_POINT)
        state = evolve(config)
        assert state.cutoff == 80
        self._assert_close([config], [state], 160)

    def test_full_grid_stays_at_40(self):
        configs = grid_configs("full")
        states = [evolve(config) for config in configs]
        assert {state.cutoff for state in states} == {40}
        for start in range(0, len(configs), 192):
            self._assert_close(configs[start : start + 192], states[start : start + 192], 80)

    @pytest.mark.parametrize("cutoff", [12, 25])
    def test_seeded_configs(self, cutoff):
        rng = np.random.default_rng(1400 + cutoff)
        configs = [random_config(rng, g_max=0.8, alpha_sq_range=(0.0, 5.0)) for _ in range(40)]
        self._assert_close(configs, [evolve(config, cutoff=cutoff) for config in configs], 4 * cutoff)


class TestFactoredRead:
    """``moments`` reads each point from its real state's expectations and
    two phase rotations; the reference reads the same state's amplitudes
    densely (tests/reference.py).  The largest deviation measured was
    3.4e-14, on the full grid."""

    BOUND = 1e-13

    def _assert_close(self, states):
        for state in states:
            report = moments(state)
            factored = (report.x_mean, report.x_second_moment, report.photon_number)
            deviation = np.abs(np.subtract(factored, dense_moments(state.amplitudes)))
            assert np.all(deviation <= self.BOUND)

    @pytest.mark.parametrize("preset", ["quick", "full"])
    def test_grid_at_40(self, preset):
        self._assert_close([evolve(config, cutoff=40) for config in grid_configs(preset)])

    def test_cutoff_80_rung(self):
        state = evolve(_cfg(**FAR_POINT))
        assert state.cutoff == 80
        self._assert_close([state])

    @pytest.mark.parametrize("cutoff", [12, 25])
    def test_seeded_configs(self, cutoff):
        # ranges small enough that every state is reliable at its cutoff
        g_max, alpha_sq_max = {12: (0.15, 0.5), 25: (0.4, 2.0)}[cutoff]
        rng = np.random.default_rng(1500 + cutoff)
        configs = [random_config(rng, g_max=g_max, alpha_sq_range=(0.0, alpha_sq_max)) for _ in range(40)]
        self._assert_close([evolve(config, cutoff=cutoff) for config in configs])

    def test_points_differing_in_rotations_share_one_real_state(self):
        base = _cfg(g=0.3, ell=1, alpha_mag=1.2, theta=0.4, phi=0.7)
        rotated = [
            dataclasses.replace(base, theta=2.5),
            dataclasses.replace(base, ell=3),
            dataclasses.replace(base, phi=1.9),
        ]
        real = evolve(base, cutoff=40).real
        assert all(evolve(config, cutoff=40).real is real for config in rotated)
        assert evolve(dataclasses.replace(base, g=0.4), cutoff=40).real is not real
        assert evolve(dataclasses.replace(base, alpha_mag=1.3), cutoff=40).real is not real

    def test_warm_point_builds_no_dense_state(self):
        # one dense cutoff-80 state holds 81^2 complex amplitudes, 105 kB; a
        # warm point peaked at 576 bytes
        config = _cfg(**FAR_POINT)
        moments(evolve(config, cutoff=80))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            moments(evolve(config, cutoff=80))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 81**2 * 16 / 20


class TestAgainstCouplerReference:
    """``moments`` reads the homodyne ahead of the coupler through
    ``X_out = (X_A + X_B)/sqrt2``; the reference carries the oracle's own
    state through the coupler's blocks and reads ``X_A`` after them
    (tests/reference.py)."""

    # (mean, second moment, photon number); the full grid measured 8.2e-6,
    # 6.9e-5, 1.8e-15 at 40 and 2.8e-10, 2.8e-9, 2.7e-15 at 60, where the
    # reference's own truncation after the coupler dominates, and 1.1e-14,
    # 5.3e-14, 1.8e-15 at 80
    BOUNDS = {40: (2e-5, 2e-4, 1e-13), 60: (1e-9, 1e-8, 1e-13), 80: (1e-13, 1e-12, 1e-13)}

    def _deviations(self, configs, cutoff):
        states = [evolve(config, cutoff=cutoff) for config in configs]
        reports = [moments(state) for state in states]
        oracle = np.array([(r.x_mean, r.x_second_moment, r.photon_number) for r in reports])
        psi = np.stack([state.amplitudes for state in states]).reshape(-1, cutoff + 1, cutoff + 1)
        return np.abs(oracle - output_moments(apply_blocked(*bs_unitary(cutoff), psi)))

    @pytest.mark.parametrize("cutoff", [40, 60, 80])
    def test_full_grid(self, cutoff):
        configs = grid_configs("full")
        worst = np.max(
            [self._deviations(configs[s : s + 192], cutoff).max(axis=0) for s in range(0, len(configs), 192)],
            axis=0,
        )
        assert np.all(worst <= self.BOUNDS[cutoff])

    def test_wrong_sign_on_mode_b_is_caught(self, monkeypatch):
        # (X_A - X_B)/sqrt2; mode B is vacuum at g = 0, where the sign is moot
        flip_mode_b_ladder(monkeypatch)
        configs = [_cfg(g=0.3, ell=1, alpha_mag=1.0, theta=0.4, phi=0.7), _cfg(alpha_mag=1.0, theta=0.4)]
        wrong, moot = self._deviations(configs, 40)
        assert wrong[0] > 0.1 and wrong[1] > 0.1
        assert np.all(moot <= self.BOUNDS[40])


class TestDirectExpectations:
    def test_vacuum_moments(self):
        report = moments(evolve(_cfg(), cutoff=12))
        assert report.x_mean == pytest.approx(0.0, abs=1e-12)
        assert report.x_second_moment == pytest.approx(1.0, rel=1e-12)
        assert report.photon_number == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_quadrature_matches_the_dense_operator(self, axis):
        # X_A = a + a^dag is read through a on the rows of psi[n_a, n_b], X_B
        # through b on its columns
        ops = build_operators(12)
        ladder = ops.a if axis == 0 else ops.b
        rng = np.random.default_rng(12 + axis)
        psi = rng.normal(size=(13, 13)) + 1j * rng.normal(size=(13, 13))
        dense = (ladder @ psi.ravel()).reshape(13, 13)
        assert np.max(np.abs(fock_oracle._lowered(psi, axis) - dense)) <= 1e-14

    def test_coherent_state_quadrature_without_any_optics(self):
        # displaced vacuum alone: <X> = 2 for unit amplitude at zero phase
        c = 24
        a = annihilation(c)
        d = expm(1.0 * a.T.astype(complex) - 1.0 * a.astype(complex))
        psi = d[:, 0]
        x = a + a.T
        assert np.real(np.vdot(psi, x @ psi)) == pytest.approx(2.0, abs=1e-10)

    def test_two_mode_squeezed_vacuum_noise_after_coupler(self):
        g = 0.3
        for ell, phi in [(1, 0.35), (2, 1.2)]:
            report = moments(evolve(_cfg(g=g, ell=ell, phi=phi), cutoff=25))
            expected = math.cosh(2 * g) + math.sinh(2 * g) * math.cos(2 * ell * phi)
            assert report.x_mean == pytest.approx(0.0, abs=1e-10)
            assert report.x_second_moment == pytest.approx(expected, abs=1e-9)


class TestAgainstClosedForms:
    def test_small_parameter_reference_point(self):
        cfg = _cfg(g=0.3, ell=1, alpha_mag=1.0, theta=0.0, phi=0.2)
        report = moments(evolve(cfg, cutoff=30))
        assert report.x_mean == pytest.approx(homodyne_mean(cfg), abs=1e-6)
        assert report.photon_number == pytest.approx(mean_photon_number(cfg), abs=1e-6)

    def test_squeezer_direction_pinned_by_photon_gain(self):
        # flipping the squeezer generator sign would leave the photon count
        # unchanged but turn the g=0.4, phi=0 signal gain e^g into e^-g
        cfg = _cfg(g=0.4, ell=1, alpha_mag=1.0, theta=0.6, phi=0.0)
        report = moments(evolve(cfg, cutoff=30))
        assert report.x_mean == pytest.approx(homodyne_mean(cfg), abs=1e-8)
        assert report.photon_number == pytest.approx(mean_photon_number(cfg), abs=1e-8)

    def test_rotation_sign_pinned_at_zero_gain(self):
        # e^{-i 2 l phi n} instead of e^{+i...} would give cos(theta - 2 l phi)
        cfg = _cfg(g=0.0, ell=1, alpha_mag=1.0, theta=math.pi / 4.0, phi=0.3)
        report = moments(evolve(cfg, cutoff=20))
        assert report.x_mean == pytest.approx(homodyne_mean(cfg), abs=1e-10)
        wrong_sign = dataclasses.replace(cfg, phi=-cfg.phi)
        assert abs(report.x_mean - homodyne_mean(wrong_sign)) > 0.1

    def test_second_moment_against_closed_form(self):
        cfg = _cfg(g=0.35, ell=2, alpha_mag=1.3, theta=1.1, phi=0.8)
        report = moments(evolve(cfg, cutoff=32))
        assert report.x_second_moment == pytest.approx(
            homodyne_second_moment(cfg), abs=1e-8
        )


class TestTruncationControl:
    def test_cutoff_doubling_is_converged(self):
        cfg = _cfg(g=0.3, ell=1, alpha_mag=1.0, theta=0.4, phi=0.2)
        lo = moments(evolve(cfg, cutoff=24))
        hi = moments(evolve(cfg, cutoff=48))
        assert abs(lo.x_mean - hi.x_mean) < 1e-7
        assert abs(lo.x_second_moment - hi.x_second_moment) < 1e-7
        assert abs(lo.photon_number - hi.photon_number) < 1e-7

    def test_schedule_escalates_until_reliable(self):
        cfg = _cfg(g=0.3, ell=1, alpha_mag=1.0, theta=0.0, phi=0.1)
        state = evolve(cfg, cutoff_schedule=(6, 24))
        assert state.reliable
        assert state.cutoff == 24

    def test_schedule_reaches_the_cutoff_80_rung(self):
        cfg = _cfg(**FAR_POINT)
        assert not evolve(cfg, cutoff=40).reliable
        assert not evolve(cfg, cutoff=60).reliable
        state = evolve(cfg)
        assert state.cutoff == 80 and state.reliable
        report = moments(state)
        assert abs(report.x_mean - homodyne_mean(cfg)) <= ORACLE_TOL
        assert abs(report.x_second_moment - homodyne_second_moment(cfg)) <= ORACLE_TOL
        assert abs(report.photon_number - mean_photon_number(cfg)) <= ORACLE_TOL

    def test_hot_state_is_flagged_unreliable(self):
        cfg = _cfg(g=0.8, ell=1, alpha_mag=3.0, theta=0.0, phi=0.1)
        state = evolve(cfg, cutoff_schedule=(8, 10))
        assert not state.reliable
        assert state.tail_mass > DEFAULT_TAIL_TOLERANCE
        with pytest.raises(UnreliableStateError):
            moments(state)

    def test_bright_input_is_flagged_not_read(self):
        # the truncated operators kept this state inside the box: they put it
        # at cutoff 60 with a tail of 1.1e-16 and a photon number of 0.131,
        # where the true value is 1020.09
        state = evolve(_cfg(g=0.1, ell=1, alpha_mag=math.sqrt(1000.0), theta=0.1, phi=0.2))
        assert not state.reliable
        with pytest.raises(UnreliableStateError):
            moments(state)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("g, alpha_sq", [(0.0, 1e12), (400.0, 10.0), (2.0, 0.0)])
    def test_edge_inputs_evolve_unreliable_without_warnings(self, g, alpha_sq):
        # every amplitude of the first two underflows; the squeezed vacuum at
        # g = 2 spreads past cutoff 80
        state = evolve(_cfg(g=g, ell=1, alpha_mag=math.sqrt(alpha_sq), theta=0.1, phi=0.2))
        assert not state.reliable and state.tail_mass <= 1.0
        with pytest.raises(UnreliableStateError):
            moments(state)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_vacuum_is_reliable_with_no_tail(self):
        state = evolve(_cfg())
        assert state.reliable and state.tail_mass == 0.0

    @settings(max_examples=500, deadline=None)
    @example(g=0.1, ell=1, alpha_sq=1000.0, theta=0.1, phi=0.2)
    @given(
        g=st.floats(0.0, 3.0),
        ell=st.integers(1, 4),
        alpha_sq=st.floats(0.0, 2000.0),
        theta=st.floats(-2.0 * math.pi, 2.0 * math.pi),
        phi=st.floats(-2.0 * math.pi, 2.0 * math.pi),
    )
    def test_every_reliable_state_reads_the_closed_forms(self, g, ell, alpha_sq, theta, phi):
        cfg = _cfg(g=g, ell=ell, alpha_mag=math.sqrt(alpha_sq), theta=theta, phi=phi)
        state = evolve(cfg)
        if not state.reliable:
            with pytest.raises(UnreliableStateError):
                moments(state)
            return
        report = moments(state)
        assert abs(report.x_mean - homodyne_mean(cfg)) <= ORACLE_TOL
        assert abs(report.x_second_moment - homodyne_second_moment(cfg)) <= ORACLE_TOL
        assert abs(report.photon_number - mean_photon_number(cfg)) <= ORACLE_TOL

    def test_norm_is_preserved(self):
        state = evolve(_cfg(g=0.4, alpha_mag=1.2, theta=0.5, phi=0.7), cutoff=25)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert state.tail_mass >= 0.0

    @pytest.mark.parametrize("schedule", [(60, 24), (40, 40)])
    def test_schedule_that_does_not_increase_is_rejected(self, schedule):
        # (60, 24) would return the cutoff-24 state at FAR_POINT, tail 5.0e-2,
        # after the cutoff-60 state, tail 1.5e-6, failed; (40, 40) evolves twice
        message = f"cutoff schedule must strictly increase, got {schedule}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evolve(_cfg(**FAR_POINT), cutoff_schedule=schedule)

    def test_empty_schedule_is_rejected(self):
        with pytest.raises(ValueError, match="^cutoff schedule is empty$"):
            evolve(_cfg(alpha_mag=1.0), cutoff_schedule=())

    @pytest.mark.parametrize("kw", [dict(cutoff=1), dict(cutoff_schedule=(40, 1))])
    def test_cutoff_below_two_is_rejected(self, kw):
        with pytest.raises(ValueError, match="^cutoff must be >= 2$"):
            evolve(_cfg(alpha_mag=1.0), **kw)

    @pytest.mark.parametrize(
        "kw", [dict(cutoff=40.7), dict(cutoff="40"), dict(cutoff_schedule=(40.5, 60))]
    )
    def test_non_integer_cutoff_is_rejected(self, kw):
        with pytest.raises(ValueError, match="^cutoff must be an integer"):
            evolve(_cfg(alpha_mag=1.0), **kw)

    def test_numpy_integer_cutoff_is_accepted(self):
        cfg = _cfg(g=0.2, alpha_mag=1.0)
        state = evolve(cfg, cutoff=np.int64(12))
        assert state.cutoff == 12
        assert np.all(state.amplitudes == evolve(cfg, cutoff=12).amplitudes)

    def test_lossy_configs_are_rejected(self):
        cfg = dataclasses.replace(_cfg(alpha_mag=1.0), transmissivity=0.5)
        with pytest.raises(ValueError, match="lossless"):
            evolve(cfg, cutoff=12)
