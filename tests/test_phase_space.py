import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from oam_interferometry import (
    GaussianState,
    SymplecticOp,
    angular_displacement_matrix,
    apply,
    bs_matrix,
    displace,
    omega,
    opa_matrix,
    photon_number,
    symplectic_defect,
    vacuum_state,
    virtual_bs_matrix,
)
from oam_interferometry.phase_space import MAX_GAIN, attenuate
from helpers import random_two_mode_state
from reference import LossChannel, apply_loss, min_uncertainty_eigenvalue

TOL = 1e-10


class TestVacuumAndDisplacement:
    def test_vacuum_is_zero_mean_identity_cov(self):
        state = vacuum_state()
        assert np.array_equal(state.mean, np.zeros(4))
        assert np.array_equal(state.cov, np.eye(4))

    def test_zero_magnitude_is_noop(self):
        state = vacuum_state()
        out = displace(state, 0.0, 1.3)
        assert np.array_equal(out.mean, state.mean)
        assert np.array_equal(out.cov, state.cov)

    def test_unit_amplitude_mean(self):
        out = displace(vacuum_state(), 1.0, 0.0)
        assert out.mean == pytest.approx([2.0, 0.0, 0.0, 0.0], abs=1e-15)
        assert np.array_equal(out.cov, np.eye(4))

    def test_rotated_amplitude_mean(self):
        out = displace(vacuum_state(), math.sqrt(10.0), math.pi / 2.0)
        assert out.mean[0] == pytest.approx(0.0, abs=1e-15)
        assert out.mean[1] == pytest.approx(2.0 * math.sqrt(10.0))

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            displace(vacuum_state(), -0.5, 0.0)


class TestElementMatrices:
    def test_opa_identity_at_zero_gain(self):
        assert np.allclose(opa_matrix(0.0).matrix, np.eye(4), atol=1e-15)

    def test_opa_entries_at_unit_gain(self):
        ch, sh = math.cosh(1.0), math.sinh(1.0)
        expected = np.array(
            [
                [ch, 0, sh, 0],
                [0, ch, 0, -sh],
                [sh, 0, ch, 0],
                [0, -sh, 0, ch],
            ]
        )
        assert np.allclose(opa_matrix(1.0).matrix, expected, atol=1e-15)

    def test_opa_then_inverse_returns_vacuum(self):
        state = apply(opa_matrix(1.3), vacuum_state())
        state = apply(opa_matrix(-1.3), state)
        assert np.max(np.abs(state.mean)) < TOL
        assert np.max(np.abs(state.cov - np.eye(4))) < TOL

    def test_rotation_identity_at_zero_angle(self):
        assert np.allclose(angular_displacement_matrix(2, 0.0).matrix, np.eye(4), atol=1e-15)

    @pytest.mark.parametrize("ell,phi", [(1, math.pi / 2.0), (3, math.pi / 6.0)])
    def test_half_turn_flips_mode_a(self, ell, phi):
        m = angular_displacement_matrix(ell, phi).matrix
        assert np.allclose(m, np.diag([-1.0, -1.0, 1.0, 1.0]), atol=1e-12)

    def test_rotation_requires_positive_integer_ell(self):
        with pytest.raises(ValueError):
            angular_displacement_matrix(0, 0.1)

    def test_bs_columns_are_unit_norm(self):
        m = bs_matrix().matrix
        assert np.allclose(np.linalg.norm(m, axis=0), 1.0, atol=1e-15)

    def test_bs_applied_twice_is_mode_swap_with_sign(self):
        m = bs_matrix().matrix
        expected = np.block(
            [[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]
        )
        assert np.allclose(m @ m, expected, atol=1e-15)

    def test_virtual_bs_full_transmission(self):
        m = virtual_bs_matrix(1.0).matrix
        assert np.allclose(m[:4, :4], np.eye(4), atol=1e-15)
        assert np.allclose(m[4:, 4:], -np.eye(4), atol=1e-15)
        assert np.max(np.abs(m[:4, 4:])) == 0.0

    def test_virtual_bs_zero_transmission_swaps_into_environment(self):
        # four vacuum modes, mode 0 displaced by a unit amplitude
        state = GaussianState(2.0 * np.eye(8)[0], np.eye(8))
        out = apply(virtual_bs_matrix(0.0), state)
        # the system amplitude now lives in the environment block
        assert np.max(np.abs(out.mean[:4])) < 1e-15
        assert out.mean[4] == pytest.approx(2.0)

    def test_virtual_bs_range_error(self):
        with pytest.raises(ValueError):
            virtual_bs_matrix(1.2)
        with pytest.raises(ValueError):
            virtual_bs_matrix(-0.1)

    def test_constructing_non_symplectic_matrix_fails(self):
        with pytest.raises(ValueError, match="not symplectic"):
            SymplecticOp(np.diag([2.0, 2.0, 1.0, 1.0]), "BS")


class TestSymplecticProperties:
    @given(g=st.floats(-4.0, 4.0, allow_nan=False))
    def test_opa_is_symplectic(self, g):
        assert symplectic_defect(opa_matrix(g).matrix) < TOL

    @given(ell=st.integers(1, 10), phi=st.floats(-10.0, 10.0, allow_nan=False))
    def test_rotation_is_symplectic(self, ell, phi):
        assert symplectic_defect(angular_displacement_matrix(ell, phi).matrix) < TOL

    @given(t=st.floats(0.0, 1.0, allow_nan=False))
    def test_virtual_bs_is_symplectic(self, t):
        assert symplectic_defect(virtual_bs_matrix(t).matrix) < TOL


class TestApplyAndTrace:
    def test_identity_apply_is_noop(self):
        state = random_two_mode_state(np.random.default_rng(0))
        out = apply(SymplecticOp(np.eye(4), "BS"), state)
        assert np.allclose(out.mean, state.mean, atol=1e-15)
        assert np.allclose(out.cov, state.cov, atol=1e-15)

    def test_two_mode_squeezed_vacuum_spectrum(self):
        g = 0.8
        state = apply(opa_matrix(g), vacuum_state())
        eig = np.sort(np.linalg.eigvalsh(state.cov))
        expected = np.sort([math.exp(-2 * g)] * 2 + [math.exp(2 * g)] * 2)
        assert np.allclose(eig, expected, rtol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_apply_keeps_cov_symmetric_and_det(self, seed):
        rng = np.random.default_rng(seed)
        state = random_two_mode_state(rng)
        op = opa_matrix(float(rng.uniform(-1.5, 1.5)))
        out = apply(op, state)
        assert np.allclose(out.cov, out.cov.T, atol=1e-12)
        assert np.linalg.det(out.cov) == pytest.approx(np.linalg.det(state.cov), rel=1e-9)

    def test_apply_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply(virtual_bs_matrix(0.5), vacuum_state())

    def test_trace_after_lossless_virtual_bs_keeps_system(self):
        state = apply(opa_matrix(0.6), displace(vacuum_state(), 1.1, 0.7))
        out = attenuate(state, 1.0)
        assert np.allclose(out.mean, state.mean, atol=1e-12)
        assert np.allclose(out.cov, state.cov, atol=1e-12)

    def test_reduced_two_mode_squeezed_vacuum_is_thermal(self):
        g = 0.45
        state = apply(opa_matrix(g), vacuum_state())
        # each mode's reduced state is its 2x2 block: thermal, cosh 2g times the vacuum
        for block in (state.cov[:2, :2], state.cov[2:, 2:]):
            assert np.allclose(block, math.cosh(2 * g) * np.eye(2), rtol=1e-12)
        assert np.max(np.abs(state.mean)) == 0.0


class TestStateValidation:
    def test_asymmetric_cov_rejected(self):
        cov = np.eye(2)
        cov[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(np.zeros(2), cov)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GaussianState(np.zeros(3), np.eye(3))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: omega(0), "modes must be >= 1"),
            (
                lambda: GaussianState(np.zeros(4), np.eye(2)),
                "cov must be square and match the mean vector",
            ),
            (lambda: SymplecticOp(np.eye(3), "X"), "matrix must be square with even dimension"),
        ],
        ids=["omega", "state", "op"],
    )
    def test_shape_rejections_pin_the_whole_message(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_states_are_immutable(self):
        state = vacuum_state()
        with pytest.raises(ValueError):
            state.mean[0] = 1.0

    def test_photon_number_whose_sum_overflows_raises(self):
        # each square is finite (1.44e308), their sum is not
        state = GaussianState(np.array([1.2e154, 1.2e154]), np.eye(2))
        with pytest.raises(OverflowError, match="^photon number out of range$"):
            photon_number(state)

    def test_photon_number_of_displaced_vacuum(self):
        state = displace(vacuum_state(), 2.0, 0.4)
        assert photon_number(state) == pytest.approx(4.0, rel=1e-12)


class TestLossChannel:
    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=100)
    def test_loss_output_stays_physical(self, seed, t):
        state = random_two_mode_state(np.random.default_rng(seed))
        out = apply_loss(LossChannel(t), state, (0, 1))
        assert min_uncertainty_eigenvalue(out) >= -1e-10

    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=50)
    def test_direct_channel_matches_virtual_bs_route(self, seed, t):
        rng = np.random.default_rng(seed)
        sys_state = random_two_mode_state(rng)
        direct = apply_loss(LossChannel(t), sys_state, (0, 1))
        routed = attenuate(sys_state, t)
        assert np.allclose(direct.mean, routed.mean, atol=1e-12)
        assert np.allclose(direct.cov, routed.cov, atol=1e-12)

    def test_channel_range_validation(self):
        with pytest.raises(ValueError):
            LossChannel(-0.2)

    def test_uncertainty_relation_of_vacuum(self):
        assert min_uncertainty_eigenvalue(vacuum_state()) >= -1e-14
        w = omega(2)
        assert np.array_equal(w[:2, :2], np.array([[0.0, 1.0], [-1.0, 0.0]]))


class TestAttenuate:
    def test_full_transmission_returns_the_input_bytes(self):
        state = random_two_mode_state(np.random.default_rng(3))
        out = attenuate(state, 1.0)
        assert out.mean.tobytes() == state.mean.tobytes()
        assert out.cov.tobytes() == state.cov.tobytes()

    def test_zero_transmission_returns_the_two_mode_vacuum(self):
        out = attenuate(random_two_mode_state(np.random.default_rng(4)), 0.0)
        assert np.array_equal(out.mean, vacuum_state().mean)
        assert np.array_equal(out.cov, vacuum_state().cov)

    def test_stack_equals_its_points_bit_for_bit(self):
        rng = np.random.default_rng(5)
        states = [random_two_mode_state(rng) for _ in range(6)]
        t = rng.uniform(0.0, 1.0, 6)
        stack = GaussianState(np.array([s.mean for s in states]), np.array([s.cov for s in states]))
        # a stack of states, and one state over a stack of transmissivities
        cases = ((attenuate(stack, t), states), (attenuate(states[0], t), states[:1] * 6))
        for stacked, points in cases:
            for i, state in enumerate(points):
                point = attenuate(state, t[i])
                assert stacked.mean[i].tobytes() == point.mean.tobytes()
                assert stacked.cov[i].tobytes() == point.cov.tobytes()

    @pytest.mark.parametrize("modes", [1, 3, 4])
    def test_rejects_a_state_that_is_not_two_mode(self, modes):
        with pytest.raises(ValueError, match="two-mode"):
            attenuate(GaussianState(np.zeros(2 * modes), np.eye(2 * modes)), 0.5)


class TestFastPathsMatchReferences:
    @pytest.mark.parametrize("modes", [1, 2, 3, 4])
    def test_omega_equals_block_diag(self, modes):
        block = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(omega(modes), block_diag(*([block] * modes)))

    def test_omega_is_read_only(self):
        with pytest.raises(ValueError):
            omega(2)[0, 0] = 1.0

    @given(
        modes=st.integers(1, 3),
        data=st.data(),
        delta=st.floats(-2e-8, 2e-8),
        poison=st.booleans(),
    )
    @settings(max_examples=300)
    def test_symmetry_check_equals_allclose_on_unit_entries(self, modes, data, delta, poison):
        # with every |entry| <= 1 the scaled tolerance is the old absolute 1e-8
        n = 2 * modes
        entries = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=n * n, max_size=n * n))
        cov = np.array(entries).reshape(n, n)
        cov = np.triu(cov) + np.triu(cov, 1).T
        i, j = data.draw(st.sampled_from([(a, b) for a in range(n) for b in range(n) if a != b]))
        cov[i, j] += delta
        if poison:
            cov[0, 0] = math.nan
        expected = bool(np.allclose(cov, cov.T, rtol=0.0, atol=1e-8))
        try:
            GaussianState(np.zeros(n), cov)
            accepted = True
        except ValueError as exc:
            assert ("finite" if poison else "symmetric") in str(exc)
            accepted = False
        assert accepted == expected


class TestScaledChecks:
    def test_all_nan_matrix_rejected(self):
        with pytest.raises(ValueError, match="not symplectic"):
            SymplecticOp(np.full((4, 4), np.nan), "X")

    def test_one_nan_entry_rejected(self):
        m = np.eye(4)
        m[2, 1] = np.nan
        with pytest.raises(ValueError, match="not symplectic"):
            SymplecticOp(m, "X")

    def test_perturbed_large_gain_squeezer_rejected(self):
        # relative defect about 1e-6, far above SYMPLECTIC_TOL
        m = opa_matrix(10.0).matrix.copy()
        m[0, 0] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="not symplectic"):
            SymplecticOp(m, "OPA")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cov_rejected(self, bad):
        cov = np.eye(2)
        cov[1, 1] = bad
        with pytest.raises(ValueError, match="cov must be finite"):
            GaussianState(np.zeros(2), cov)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_rejected(self, bad):
        with pytest.raises(ValueError, match="mean must be finite"):
            GaussianState(np.array([0.0, bad]), np.eye(2))

    def test_symmetry_boundary_is_inclusive(self):
        # np.allclose(cov, cov.T, rtol=0, atol=1e-8) accepts exactly 1e-8
        cov = np.eye(2)
        cov[0, 1] = 1e-8
        GaussianState(np.zeros(2), cov)
        cov[0, 1] = math.nextafter(1e-8, 1.0)
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(np.zeros(2), cov)

    def test_asymmetry_scales_with_the_entries(self):
        big = np.diag([1e6, 1e6])
        big[0, 1] = 1e-3  # 1e-9 relative: rounding-sized, accepted
        assert GaussianState(np.zeros(2), big).cov[0, 1] == pytest.approx(5e-4)
        big[0, 1] = 1.0  # 1e-6 relative: rejected
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(np.zeros(2), big)

    @pytest.mark.parametrize("g", [math.nextafter(MAX_GAIN, math.inf), -400.0, math.inf, math.nan])
    def test_gain_past_the_range_names_g(self, g):
        with pytest.raises(ValueError, match=r"g = .* outside the engine's range"):
            opa_matrix(g)
