import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
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
from oam_interferometry.fock_oracle import (
    DEFAULT_TAIL_TOLERANCE,
    _displacement_basis,
    _displacement_column,
    _index_maps,
    _real_state,
    _squeezed_columns,
    _squeezer_basis,
)
from oam_interferometry.validation import ORACLE_TOL, grid_configs
from helpers import flip_mode_b_ladder, random_config
from reference import (
    annihilation,
    apply_blocked,
    blocked_chain,
    bs_unitary,
    build_operators,
    dense_moments,
    ladder_exp_one_shot,
    output_moments,
    pre_coupler_chain,
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


class TestBlockedUnitaries:
    """The symmetry-blocked unitaries (the oracle's squeezer columns and the
    reference coupler) against dense expm of the same truncated generators on
    the (cutoff+1)^2-dimensional two-mode space."""

    CUTOFF = 12

    @pytest.fixture(scope="class")
    def psi(self):
        rng = np.random.default_rng(1212)
        dim = self.CUTOFF + 1
        psi = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return psi / np.linalg.norm(psi)

    @pytest.mark.parametrize("g", [0.3, 0.9])
    def test_squeezer_matches_dense_expm(self, g):
        # mode B enters in vacuum: the squeezer only ever acts on |d, 0>, and
        # sends it along the diagonal (d + k, k) of psi[n_a, n_b]
        ops = build_operators(self.CUTOFF)
        dense = expm(g * (ops.a.T @ ops.b.T - ops.a @ ops.b))
        columns = _squeezed_columns(g, self.CUTOFF)
        dim = self.CUTOFF + 1
        for d in range(dim):
            k = np.arange(dim - d)
            blocked = np.zeros((dim, dim))
            blocked[d + k, k] = columns[d, k]
            assert np.max(np.abs(blocked.ravel() - dense[:, d * dim])) <= 1e-12

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
        # the coupler's input slot (n_a, n_b) holds squeezer entry
        # (n_a - n_b, n_b), scaled by the displaced amplitude at n_a - n_b and
        # rotated by e^{i 2 l phi n_a}; the upper triangle holds nothing
        config = _cfg(g=0.3, ell=2, alpha_mag=1.2, theta=0.5, phi=0.7)
        dim = cutoff + 1
        n = np.arange(dim)
        columns = _squeezed_columns(config.g, cutoff)
        amplitude = np.exp(1j * config.theta * n) * _displacement_column(config.alpha_mag, cutoff)
        phase = np.exp(1j * 2.0 * config.ell * config.phi * n)
        expected = np.zeros((dim, dim), dtype=complex)
        for n_a in range(dim):
            for n_b in range(n_a + 1):
                expected[n_a, n_b] = columns[n_a - n_b, n_b] * amplitude[n_a - n_b] * phase[n_a]
        expected /= np.linalg.norm(expected)
        psi = evolve(config, cutoff=cutoff).amplitudes.reshape(dim, dim)
        assert np.max(np.abs(psi - expected)) <= 1e-15
        assert np.all(psi[np.triu_indices(dim, 1)] == 0.0)


class TestLadderExponential:
    """The reference coupler's blocks, the squeezer columns and the
    displacement column at the schedule's cutoffs: orthogonal or of unit norm
    to rounding, and the displacement column equal to dense expm."""

    @pytest.mark.parametrize("cutoff", [40, 60, 80])
    @pytest.mark.parametrize("element", ["squeezer", "coupler"])
    def test_blocks_are_orthogonal(self, element, cutoff):
        if element == "squeezer":
            # the one column of each block that the state meets has unit norm
            defect = np.linalg.norm(_squeezed_columns(0.5, cutoff), axis=-1) - 1.0
        else:
            blocks = bs_unitary(cutoff)[0]
            defect = blocks @ np.swapaxes(blocks, -1, -2) - np.eye(cutoff + 1)
        assert np.max(np.abs(defect)) <= 1e-14

    @pytest.mark.parametrize("cutoff", [40, 60, 80])
    @pytest.mark.parametrize("alpha_sq", [1.0, 2.5, 4.0])
    def test_displacement_column_matches_dense_expm(self, alpha_sq, cutoff):
        a = annihilation(cutoff)
        dense = expm(math.sqrt(alpha_sq) * (a.T - a))[:, 0]
        column = _displacement_column(math.sqrt(alpha_sq), cutoff)
        assert np.max(np.abs(column - dense)) <= 1e-14


def _squeezer_weights(cutoff):
    d = np.arange(cutoff + 1)[:, None]
    k = np.arange(cutoff)[None, :]
    return np.sqrt(np.where(d + k < cutoff, (d + k + 1) * (k + 1), 0))


def _displacement_weights(cutoff):
    return np.sqrt(np.arange(1.0, cutoff + 1))


class TestBatchedBuild:
    """The squeezer and displacement columns, read from one eigenbasis per
    cutoff, against column 0 of the one-shot build of the whole weight stack
    (tests/reference.py).  The basis rounds differently from the one-shot
    build, so each cutoff has an absolute bound of about twice its measured
    maximum: 5.6e-16, 1.1e-15, 2.5e-15 and 4.2e-15 at cutoffs 3, 12, 40
    and 80, each at g = 1.1.  General weight stacks, with unlinked levels,
    go through the same basis."""

    BOUNDS = {3: 1e-15, 12: 2e-15, 40: 5e-15, 80: 1e-14}

    @pytest.mark.parametrize("shape", [(1, 11), (4, 11), (5, 11), (25, 11), (161, 11), (11,), (3, 5, 11)])
    def test_weight_stacks(self, shape):
        # level 0 links to levels 1 to 3 only, and the rest to one another;
        # measured at most 2.2e-16
        rng = np.random.default_rng(sum(shape))
        weights = rng.normal(size=shape)
        weights[..., 3::4] = 0.0
        expected = ladder_exp_one_shot(weights)[..., 0]
        basis = fock_oracle._ladder_basis(list(weights.reshape(-1, 11)))
        kept = fock_oracle._ladder_columns(basis, 1.0).reshape(expected.shape)
        assert np.max(np.abs(kept - expected)) <= 1e-15

    @pytest.mark.parametrize("cutoff", [3, 12, 40, 80])
    @pytest.mark.parametrize(
        "build, scale, weights",
        [
            (_squeezed_columns, 0.0, _squeezer_weights),
            (_squeezed_columns, 0.3, _squeezer_weights),
            (_squeezed_columns, 1.1, _squeezer_weights),
            (_displacement_column, 2.5, _displacement_weights),
        ],
        ids=["squeezer-0", "squeezer-0.3", "squeezer-1.1", "displacement"],
    )
    def test_oracle_stacks(self, build, scale, weights, cutoff):
        # the squeezer keeps column 0 of cutoff + 1 blocks and the
        # displacement of one
        kept = build.__wrapped__(scale, cutoff)
        expected = ladder_exp_one_shot(scale * weights(cutoff))[..., 0]
        assert kept.shape == expected.shape and kept.flags.c_contiguous
        assert np.max(np.abs(kept - expected)) <= self.BOUNDS[cutoff]

    def test_cached_results_stay_read_only(self):
        # the columns, the basis and index maps every later point reads, the
        # real state every point of its gain and amplitude shares, and the
        # amplitudes built from it
        kept = (
            _squeezed_columns(0.3, 12),
            _displacement_column(1.0, 12),
            *_squeezer_basis(12),
            *_displacement_basis(12),
            *_index_maps(12),
            _real_state(0.3, 1.0, 12).psi,
            evolve(_cfg(g=0.3, alpha_mag=1.0, theta=0.4, phi=0.7), cutoff=12).amplitudes,
        )
        for array in kept:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 1.0


class TestColdBuildMemory:
    """A cold basis build holds only one block's temporaries beside what it
    keeps, and a gain's columns, with the basis warm, a few (cutoff + 1)^2
    arrays.  At cutoff 80 the basis keeps 4.1 MiB and peaked at 1.06 times
    that, and the columns at 0.21 MiB (tracemalloc); built with every block
    at once, the basis peaked at 12.3 MiB."""

    @staticmethod
    def _traced_peak(build, *args):
        # the builder behind the cache, so the build is cold whatever ran before
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = build.__wrapped__(*args)
            return result, tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()

    def test_basis_peak_below_one_and_a_half_times_what_it_keeps(self):
        basis, peak = self._traced_peak(_squeezer_basis, 80)
        assert peak < 1.5 * sum(array.nbytes for array in basis)

    def test_columns_peak_below_half_a_mib_with_the_basis_warm(self):
        _squeezer_basis(80)
        _, peak = self._traced_peak(_squeezed_columns, 0.3, 80)
        assert peak < 2**19


# walks 40 -> 60 -> 80, with tails 4.9e-4, 9.9e-7 and 9.8e-10
FAR_POINT = dict(g=1.0, ell=1, alpha_mag=2.0, theta=0.3, phi=0.2)


class TestAgainstReferenceChain:
    """The oracle's states against the chain that applies the general blocked
    squeezer (tests/reference.py) to the whole input state.  The oracle reads
    its squeezer columns from one eigenbasis per cutoff, so they round
    differently: the amplitudes below differed by at most 6.1e-16."""

    BOUND = 2e-15

    def _assert_close(self, configs, states):
        expected = pre_coupler_chain(configs, states[0].cutoff)
        for state, matrix in zip(states, expected):
            assert np.max(np.abs(state.amplitudes - matrix.ravel())) <= self.BOUND

    def test_quick_grid_at_40(self):
        configs = grid_configs("quick")
        self._assert_close(configs, [evolve(config, cutoff=40) for config in configs])

    def test_cutoff_80_rung(self):
        config = _cfg(**FAR_POINT)
        state = evolve(config)
        assert state.cutoff == 80
        self._assert_close([config], [state])

    def test_full_grid_stays_at_40(self):
        configs = grid_configs("full")
        states = [evolve(config) for config in configs]
        assert {state.cutoff for state in states} == {40}
        for start in range(0, len(configs), 192):
            self._assert_close(configs[start : start + 192], states[start : start + 192])

    @pytest.mark.parametrize("cutoff", [12, 25])
    def test_seeded_configs(self, cutoff):
        rng = np.random.default_rng(1400 + cutoff)
        configs = [random_config(rng, g_max=0.8, alpha_sq_range=(0.0, 5.0)) for _ in range(40)]
        self._assert_close(configs, [evolve(config, cutoff=cutoff) for config in configs])


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
    ``X_out = (X_A + X_B)/sqrt2``; the reference carries the state through the
    coupler's blocks and reads ``X_A`` after them (tests/reference.py)."""

    # (mean, second moment, photon number); the full grid measured 8.2e-6,
    # 6.9e-5, 3.6e-15 at 40 and 2.8e-10, 2.8e-9, 3.6e-15 at 60, where the
    # reference's own truncation after the coupler dominates, and 3.6e-15,
    # 5.3e-14, 3.6e-15 at 80
    BOUNDS = {40: (2e-5, 2e-4, 1e-13), 60: (1e-9, 1e-8, 1e-13), 80: (1e-13, 1e-12, 1e-13)}

    def _deviations(self, configs, cutoff):
        reports = [moments(evolve(config, cutoff=cutoff)) for config in configs]
        oracle = np.array([(r.x_mean, r.x_second_moment, r.photon_number) for r in reports])
        return np.abs(oracle - output_moments(blocked_chain(configs, cutoff)))

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

    def test_norm_is_preserved(self):
        state = evolve(_cfg(g=0.4, alpha_mag=1.2, theta=0.5, phi=0.7), cutoff=25)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert state.tail_mass >= 0.0

    @pytest.mark.parametrize("schedule", [(60, 24), (40, 40)])
    def test_schedule_that_does_not_increase_is_rejected(self, schedule):
        # (60, 24) would return the cutoff-24 state at FAR_POINT, tail 2.9e-2,
        # after the cutoff-60 state, tail 9.9e-7, failed; (40, 40) evolves twice
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
