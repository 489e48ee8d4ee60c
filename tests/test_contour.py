"""Tests for radial contour dynamics."""

import numpy as np
import pytest

from vortexalpha import contour, specfun as sf, vstates as vs
from vortexalpha.errors import DomainError, InstabilityError
from vortexalpha.numerics import dealias_twothirds, spectral_derivative


def separate_pieces(patch):
    """(F^E, F^SW) from the separate kernel pieces with exact circle convolutions.

    Each piece is split into a smooth remainder (plain trapezoid) plus the
    unit-circle convolution, done exactly in Fourier space with the
    coefficients -1/(2n) (log kernel) and I_n K_n(1/alpha) (screened
    kernel).  Shares no kernel code with :func:`contour.rhs`.
    """
    M, alpha = patch.size, patch.alpha
    R = patch.radii
    Rp = spectral_derivative(patch.samples) / R
    theta = patch.theta()
    u = theta[None, :] - theta[:, None]  # eta - theta
    cos, sin = np.cos(u), np.sin(u)
    off = ~np.eye(M, dtype=bool)
    A = np.sqrt(np.maximum(R[:, None] ** 2 + R[None, :] ** 2 - 2 * np.outer(R, R) * cos, 0))
    A0 = 2.0 * np.abs(np.sin(u / 2.0))
    # diagonal limits: A/A_0 -> |z'(theta)| = sqrt(R^2 + R'^2), and
    # K_0(A/a) - K_0(A_0/a) -> -log(A/A_0)
    log_speed = np.log(np.sqrt(R * R + Rp * Rp))
    smooth_log = np.empty_like(A)
    smooth_log[off] = np.log(A[off] / A0[off])
    np.fill_diagonal(smooth_log, log_speed)
    sw_kernel = np.empty_like(A)
    sw_kernel[off] = sf.k0_array(A[off] / alpha) - sf.k0_array(A0[off] / alpha)
    np.fill_diagonal(sw_kernel, -log_speed)
    D = (np.outer(Rp, Rp) + np.outer(R, R)) * sin + (
        np.outer(Rp, R) - np.outer(R, Rp)
    ) * cos
    # rows of D resampled as functions of u = eta - theta
    rows = np.arange(M)[:, None]
    Q = D[rows, (rows + np.arange(M)[None, :]) % M]
    qhat = np.fft.rfft(Q, axis=1).real[:, 1:] / M
    k = np.arange(1, qhat.shape[1] + 1)
    wgt = np.full(k.size, 2.0)
    wgt[-1] = 1.0  # Nyquist counted once (M even)
    P = sf.product_IK_array(int(k[-1]), np.array([1.0 / alpha]))[1:, 0]
    FE = (smooth_log * D).mean(axis=1) + qhat @ (-wgt / (2.0 * k))
    FSW = (sw_kernel * D).mean(axis=1) + qhat @ (P * wgt)
    return FE, FSW


def separate_rhs(patch):
    FE, FSW = separate_pieces(patch)
    out = dealias_twothirds(
        -patch.rotation_offset * spectral_derivative(patch.samples) + FE + FSW
    )
    return out - out.mean()


def two_mode_patch(M, alpha, amplitude=0.02, Omega=0.5, fold=1):
    theta = 2 * np.pi * np.arange(M) / M
    r = amplitude * (np.cos(2 * fold * theta + 0.4) + 0.5 * np.cos(3 * fold * theta - 1.1))
    return contour.RadialPatch(r, Omega, alpha, fold=fold)


class TestRhs:
    def test_joint_matches_separate_pieces(self):
        patch = two_mode_patch(256, 0.3)
        assert np.max(np.abs(contour.rhs(patch) - separate_rhs(patch))) <= 1e-10

    def test_flat_state_multiplier(self):
        res = contour.qp_residual([2, 3, 5], [1e-3, -2e-3, 5e-4], 0.5, 0.7, 0.3, 128)
        assert res <= 1e-10

    @pytest.mark.parametrize("m", [2, 4])
    def test_fold_tiling_matches_full_grid(self, m):
        folded = two_mode_patch(128, 0.4, fold=m)
        full = contour.RadialPatch(folded.samples, folded.rotation_offset, 0.4)
        assert np.max(np.abs(contour.rhs(folded) - contour.rhs(full))) < 1e-13

    def test_workspace_keeps_one_grid_size(self):
        contour.rhs(two_mode_patch(64, 0.7))
        contour.rhs(two_mode_patch(96, 0.7))
        assert list(contour._workspaces) == [96]


class TestEvolution:
    def test_mean_conserved(self):
        patch = two_mode_patch(64, 0.5)
        patch = patch.replace_samples(patch.samples - 0.01)
        final, snaps = contour.evolve(patch, 0.2, snapshot_every=5)
        assert len(snaps) >= 2
        for _, p in snaps:
            assert abs(p.mean - patch.mean) < 1e-14

    def test_dt_bound(self):
        patch = two_mode_patch(64, 0.7)
        cap = contour.default_timestep(patch, c=0.5)
        contour.step_rk4(patch, cap)
        with pytest.raises(DomainError):
            contour.step_rk4(patch, 1.01 * cap)
        with pytest.raises(DomainError):
            contour.step_rk4(patch, 0.0)

    def test_geometry_failure_mid_step(self):
        r = np.zeros(64)
        r[10], r[11] = -0.49, 0.5
        patch = contour.RadialPatch(r, 0.5, 0.7)
        with pytest.raises(InstabilityError, match="mid-step"):
            contour.step_rk4(patch, contour.default_timestep(patch, c=0.5))


class TestVStateConversion:
    def test_converted_vstate_is_steady(self):
        point = vs.continue_branch(0.7, 3, [1e-4, 0.02, 0.04])[-1]
        patch, phase_residual = contour.vstate_to_radial(point, 128)
        assert phase_residual < 1e-12
        assert patch.rotation_offset == -point.Omega
        assert np.max(np.abs(contour.rhs(patch))) < 1e-8

    def test_explicit_offset_is_used(self):
        point = vs.continue_branch(0.7, 2, [1e-4])[-1]
        patch, _ = contour.vstate_to_radial(point, 64, Omega=0.5)
        assert patch.rotation_offset == 0.5
        assert patch.fold == 2
