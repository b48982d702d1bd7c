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
    bs_matrix,
    omega,
    opa_matrix,
    photon_number,
    symplectic_defect,
)
from oam_interferometry.interferometer import lossless_chain, lossy_chain
from oam_interferometry.phase_space import MAX_GAIN
from helpers import TWO_PI, random_two_mode_state
from reference import (
    LossChannel,
    apply_element,
    apply_loss,
    dilated_attenuate,
    min_uncertainty_eigenvalue,
    virtual_bs_matrix,
)

TOL = 1e-10


def _input_mean(magnitude, angle):
    """The chain's input mean: at g = 0 and phi = 0 the chain is the coupler
    alone, whose matrix is orthogonal, so its transpose undoes it."""
    return bs_matrix().matrix.T @ lossless_chain(0.0, 1, magnitude, angle, 0.0).mean


class TestVacuumAndDisplacement:
    """The chains start from the two-mode vacuum and shift mode A's mean by
    the coherent input."""

    def test_vacuum_is_zero_mean_identity_cov(self):
        # no gain, no input amplitude: the rotation and the coupler keep the vacuum
        state = lossless_chain(0.0, 2, 0.0, 1.3, 0.4)
        assert np.array_equal(state.mean, np.zeros(4))
        assert np.allclose(state.cov, np.eye(4), rtol=0.0, atol=1e-15)

    def test_zero_magnitude_is_noop(self):
        # at zero magnitude the input angle changes no byte of the output
        state = lossless_chain(1.3, 2, 0.0, 0.0, 0.4)
        out = lossless_chain(1.3, 2, 0.0, 1.3, 0.4)
        assert np.array_equal(out.mean, np.zeros(4))
        assert out.mean.tobytes() == state.mean.tobytes()
        assert out.cov.tobytes() == state.cov.tobytes()

    def test_unit_amplitude_mean(self):
        assert _input_mean(1.0, 0.0) == pytest.approx([2.0, 0.0, 0.0, 0.0], abs=1e-15)

    def test_rotated_amplitude_mean(self):
        mean = _input_mean(math.sqrt(10.0), math.pi / 2.0)
        assert mean[0] == pytest.approx(0.0, abs=1e-15)
        assert mean[1] == pytest.approx(2.0 * math.sqrt(10.0))
        assert mean[2:] == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError, match="^alpha_mag must be >= 0$"):
            lossless_chain(0.0, 1, -0.5, 0.0, 0.0)


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
        # the vacuum's covariance is the identity, so it leaves as M M^T
        m = opa_matrix(-1.3).matrix @ opa_matrix(1.3).matrix
        assert np.max(np.abs(m @ m.T - np.eye(4))) < TOL
        assert np.max(np.abs(m - np.eye(4))) < TOL

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
        out = apply_element(virtual_bs_matrix(0.0), state)
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
    """Elements acting on states, through their matrices: ``(S mean, S cov
    S^T)``, and the vacuum's covariance, the identity, leaves as ``S S^T``."""

    def test_two_mode_squeezed_vacuum_spectrum(self):
        g = 0.8
        m = opa_matrix(g).matrix
        eig = np.sort(np.linalg.eigvalsh(m @ m.T))
        expected = np.sort([math.exp(-2 * g)] * 2 + [math.exp(2 * g)] * 2)
        assert np.allclose(eig, expected, rtol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_apply_keeps_cov_symmetric_and_det(self, seed):
        rng = np.random.default_rng(seed)
        state = random_two_mode_state(rng)
        s = opa_matrix(float(rng.uniform(-1.5, 1.5))).matrix
        cov = s @ state.cov @ s.T
        assert np.allclose(cov, cov.T, atol=1e-12)
        assert np.linalg.det(cov) == pytest.approx(np.linalg.det(state.cov), rel=1e-9)

    def test_trace_after_lossless_virtual_bs_keeps_system(self):
        # the dilation at T = 1 hands the system block back
        state = random_two_mode_state(np.random.default_rng(7))
        out = dilated_attenuate(state, 1.0)
        assert np.allclose(out.mean, state.mean, atol=1e-12)
        assert np.allclose(out.cov, state.cov, atol=1e-12)

    def test_reduced_two_mode_squeezed_vacuum_is_thermal(self):
        g = 0.45
        m = opa_matrix(g).matrix
        cov = m @ m.T
        # each mode's reduced state is its 2x2 block: thermal, cosh 2g times the vacuum
        for block in (cov[:2, :2], cov[2:, 2:]):
            assert np.allclose(block, math.cosh(2 * g) * np.eye(2), rtol=1e-12)
        # no input amplitude: the chain's mean stays exactly zero
        assert np.max(np.abs(lossless_chain(g, 1, 0.0, 0.0, 0.0).mean)) == 0.0


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
        state = lossless_chain(0.5, 1, 1.0, 0.2, 0.3)
        with pytest.raises(ValueError):
            state.mean[0] = 1.0
        with pytest.raises(ValueError):
            state.cov[0, 0] = 1.0

    def test_photon_number_whose_sum_overflows_raises(self):
        # each square is finite (1.44e308), their sum is not
        state = GaussianState(np.array([1.2e154, 1.2e154]), np.eye(2))
        with pytest.raises(OverflowError, match="^photon number out of range$"):
            photon_number(state)

    def test_photon_number_of_displaced_vacuum(self):
        # at g = 0 the chain is a rotation and the coupler: both keep |alpha|^2
        state = lossless_chain(0.0, 3, 2.0, 0.4, 1.1)
        assert photon_number(state) == pytest.approx(4.0, rel=1e-12)


class TestLossChannel:
    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=100)
    def test_loss_output_stays_physical(self, seed, t):
        rng = np.random.default_rng(seed)
        g, ell = float(rng.uniform(0.0, 1.5)), int(rng.integers(1, 4))
        alpha_mag, (theta, phi) = float(rng.uniform(0.0, 3.0)), rng.uniform(0.0, TWO_PI, 2)
        out = lossy_chain(g, ell, alpha_mag, theta, phi, t)
        assert min_uncertainty_eigenvalue(out) >= -1e-10
        direct = apply_loss(LossChannel(t), random_two_mode_state(rng), (0, 1))
        assert min_uncertainty_eigenvalue(direct) >= -1e-10

    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=50)
    def test_direct_channel_matches_virtual_bs_route(self, seed, t):
        # the channel in closed form against the state lifted to 8 modes,
        # through virtual_bs_matrix, and traced out; the lossy chain runs
        # the closed form and is checked against the dilation in
        # tests/test_interferometer.py
        sys_state = random_two_mode_state(np.random.default_rng(seed))
        direct = apply_loss(LossChannel(t), sys_state, (0, 1))
        routed = dilated_attenuate(sys_state, t)
        assert np.allclose(direct.mean, routed.mean, atol=1e-12)
        assert np.allclose(direct.cov, routed.cov, atol=1e-12)

    def test_channel_range_validation(self):
        with pytest.raises(ValueError):
            LossChannel(-0.2)

    def test_uncertainty_relation_of_vacuum(self):
        assert min_uncertainty_eigenvalue(GaussianState(np.zeros(4), np.eye(4))) >= -1e-14
        w = omega(2)
        assert np.array_equal(w[:2, :2], np.array([[0.0, 1.0], [-1.0, 0.0]]))


class TestAttenuate:
    """The lossy chain's loss stage, ``(sqrt(T) mean, T cov + (1 - T) I)``,
    read through the chain: ahead of it the elements give ``R = AD OPA``."""

    def test_full_transmission_returns_the_input_bytes(self):
        # T = 1 hands the coupler the lossless state, to the byte
        g, ell, alpha_mag, theta, phi = 0.6, 2, 1.1, 0.7, 0.4
        r = angular_displacement_matrix(ell, phi).matrix @ opa_matrix(g).matrix
        d = np.zeros(4)
        d[0] += 2.0 * alpha_mag * math.cos(theta)
        d[1] += 2.0 * alpha_mag * math.sin(theta)
        mean, cov, bs = (r @ d[:, None])[:, 0], r @ r.T, bs_matrix().matrix
        expected = GaussianState((bs @ mean[:, None])[:, 0], bs @ cov @ bs.T)
        out = lossy_chain(g, ell, alpha_mag, theta, phi, 1.0)
        assert out.mean.tobytes() == expected.mean.tobytes()
        assert out.cov.tobytes() == expected.cov.tobytes()

    def test_zero_transmission_returns_the_two_mode_vacuum(self):
        out = lossy_chain(1.2, 3, 2.5, 0.4, 0.9, 0.0)
        assert np.array_equal(out.mean, np.zeros(4))
        assert np.allclose(out.cov, np.eye(4), rtol=0.0, atol=1e-15)

    def test_stack_equals_its_points_bit_for_bit(self):
        # one working point over a stack of transmissivities
        rng = np.random.default_rng(5)
        point = (0.9, 3, 2.0, 1.1, 0.5)
        t = rng.uniform(0.0, 1.0, 6)
        stacked = lossy_chain(*point, t)
        for i in range(6):
            alone = lossy_chain(*point, t[i])
            assert stacked.mean[i].tobytes() == alone.mean.tobytes()
            assert stacked.cov[i].tobytes() == alone.cov.tobytes()

    @pytest.mark.parametrize("t", [-0.1, 1.2, math.nan, np.array([0.5, 1.5])])
    def test_rejects_a_transmissivity_outside_the_unit_interval(self, t):
        # the same text as virtual_bs_matrix, whose traced output it is
        message = "^transmissivity must lie in \\[0, 1\\]$"
        with pytest.raises(ValueError, match=message):
            lossy_chain(0.5, 1, 1.0, 0.2, 0.3, t)
        with pytest.raises(ValueError, match=message):
            virtual_bs_matrix(t)


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
