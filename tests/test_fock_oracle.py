import dataclasses
import math

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
from oam_interferometry.fock_oracle import (
    DEFAULT_TAIL_TOLERANCE,
    _displacement_column,
    bs_unitary,
    opa_unitary,
)
from oam_interferometry.validation import ORACLE_TOL
from reference import annihilation, build_operators, repeated


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
    """The symmetry-blocked unitaries against dense expm of the same truncated
    generators on the (cutoff+1)^2-dimensional two-mode space."""

    CUTOFF = 12

    @pytest.fixture(scope="class")
    def psi(self):
        rng = np.random.default_rng(1212)
        dim = self.CUTOFF + 1
        psi = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return psi / np.linalg.norm(psi)

    @pytest.mark.parametrize("g", [0.3, 0.9])
    def test_squeezer_matches_dense_expm(self, g, psi):
        ops = build_operators(self.CUTOFF)
        dense = expm(g * (ops.a.T @ ops.b.T - ops.a @ ops.b))
        blocked = opa_unitary(g, self.CUTOFF).apply(psi)
        assert np.max(np.abs(blocked.ravel() - dense @ psi.ravel())) <= 1e-12

    @pytest.mark.parametrize("mixing_angle", [math.pi / 4.0, 3.0 * math.pi / 4.0])
    def test_coupler_matches_dense_expm(self, mixing_angle, psi):
        # 3 pi/4 is the balanced coupler three times over, the wrong coupler
        # of the fault-injection test in test_cli
        ops = build_operators(self.CUTOFF)
        dense = expm(mixing_angle * (ops.a.T @ ops.b - ops.a @ ops.b.T))
        times = round(mixing_angle / (math.pi / 4.0))
        blocked = repeated(bs_unitary(self.CUTOFF), times).apply(psi)
        assert np.max(np.abs(blocked.ravel() - dense @ psi.ravel())) <= 1e-12


class TestLadderExponential:
    """The blocks and the displacement column at the schedule's cutoffs:
    orthogonal to rounding, and the column equal to dense expm."""

    @pytest.mark.parametrize("cutoff", [40, 60, 80])
    @pytest.mark.parametrize(
        "unitary", [lambda c: opa_unitary(0.5, c), bs_unitary], ids=["squeezer", "coupler"]
    )
    def test_blocks_are_orthogonal(self, unitary, cutoff):
        blocks = unitary(cutoff).blocks
        defect = blocks @ np.swapaxes(blocks, -1, -2) - np.eye(cutoff + 1)
        assert np.max(np.abs(defect)) <= 1e-14

    @pytest.mark.parametrize("cutoff", [40, 60, 80])
    @pytest.mark.parametrize("alpha_sq", [1.0, 2.5, 4.0])
    def test_displacement_column_matches_dense_expm(self, alpha_sq, cutoff):
        a = annihilation(cutoff)
        dense = expm(math.sqrt(alpha_sq) * (a.T - a))[:, 0]
        column = _displacement_column(math.sqrt(alpha_sq), cutoff)
        assert np.max(np.abs(column - dense)) <= 1e-14


class TestDirectExpectations:
    def test_vacuum_moments(self):
        report = moments(evolve(_cfg(), cutoff=12))
        assert report.x_mean == pytest.approx(0.0, abs=1e-12)
        assert report.x_second_moment == pytest.approx(1.0, rel=1e-12)
        assert report.photon_number == pytest.approx(0.0, abs=1e-12)

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
        cfg = _cfg(g=0.5, ell=2, alpha_mag=3.0, theta=0.7, phi=0.4)
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

    @pytest.mark.parametrize("kw", [dict(cutoff=1), dict(cutoff_schedule=(40, 1))])
    def test_cutoff_below_two_is_rejected(self, kw):
        with pytest.raises(ValueError, match="^cutoff must be >= 2$"):
            evolve(_cfg(alpha_mag=1.0), **kw)

    def test_lossy_configs_are_rejected(self):
        cfg = dataclasses.replace(_cfg(alpha_mag=1.0), transmissivity=0.5)
        with pytest.raises(ValueError, match="lossless"):
            evolve(cfg, cutoff=12)
