"""Tests for radial contour dynamics."""

import dataclasses
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from vortexalpha import contour, greens, specfun as sf, spectrum, vstates as vs
from vortexalpha.errors import DomainError, GeometryError, GridError, InstabilityError
from vortexalpha.greens import combined_boundary_kernel
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
    theta = 2 * np.pi * np.arange(M) / M
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


def d_matrix_rhs(patch):
    """rhs from the explicit D matrix: mean_k G_jk D_jk on polar chords.

    D_jk = d2/(dtheta deta) [R(theta) R(eta) sin(eta - theta)] at
    (theta_j, eta_k) is formed as an M x M matrix from trigonometric tables
    and the kernel is evaluated on every chord, so it shares neither the
    chord formula nor the kernel product with :func:`contour.rhs`.
    """
    M, fold = patch.size, patch.fold
    msec = M // fold
    R = patch.radii
    Rp = spectral_derivative(patch.samples) / R
    theta = 2 * np.pi * np.arange(M) / M
    u = theta[None, :] - theta[:msec, None]  # eta - theta
    Rr, Rpr = R[:msec, None], Rp[:msec, None]
    a2 = Rr**2 + R[None, :] ** 2 - 2.0 * (Rr * R[None, :]) * np.cos(u)
    a2[np.arange(msec), np.arange(msec)] = 0.0
    G = combined_boundary_kernel(patch.alpha, np.sqrt(np.maximum(a2, 0.0)))
    D = (Rpr * Rp[None, :] + Rr * R[None, :]) * np.sin(u) + (
        Rpr * R[None, :] - Rr * Rp[None, :]
    ) * np.cos(u)
    F = np.tile((G * D).mean(axis=1), fold)
    out = dealias_twothirds(
        -patch.rotation_offset * spectral_derivative(patch.samples) + F
    )
    return out - out.mean()


def area_energy(patch, n_radial, n_angular, block=256):
    """E = -(1/4pi^2) sum_{p != q} w_p w_q [log + K_0](|z_p - z_q|) on polar nodes.

    Midpoint rule in the radial fraction, trapezoid in angle on n_angular
    of the patch's nodes (n_angular must divide M): O(h^2), a reference
    that shares no formula with the boundary double integral of
    :func:`contour.diagnostics`.  Rows are summed in blocks, so memory
    stays O(block n_radial n_angular).
    """
    R = patch.radii[:: patch.size // n_angular]
    theta = 2 * np.pi * np.arange(n_angular) / n_angular
    x = (np.arange(n_radial) + 0.5) / n_radial
    ell = R[None, :] * x[:, None]
    w = ((R[None, :] / n_radial) * (2 * np.pi / n_angular) * ell).ravel()
    z = (ell * np.exp(1j * theta)[None, :]).ravel()
    total = 0.0
    for s in range(0, z.size, block):
        dist = np.abs(z[s : s + block, None] - z[None, :])
        g = combined_boundary_kernel(patch.alpha, dist)
        g[dist == 0.0] = 0.0
        total += w[s : s + block] @ g @ w
    return -total / (4 * np.pi**2)


def disc_energy(alpha):
    """Unit-disc energy 1/16 - alpha^2 (1 - 2 I_1 K_1(1/alpha)) / 2."""
    x = 1 / mp.mpf(alpha)
    product = mp.besseli(1, x) * mp.besselk(1, x)
    return float(mp.mpf(1) / 16 - alpha**2 * (1 - 2 * product) / 2)


def full_plan(M, msec=None):
    """The chord classes of the first msec target rows that ``contour.rhs`` uses."""
    msec = msec or M
    return greens.pair_plan(M, msec, False)


def pair_chords(R, plan):
    """Pair chords of the kernel sums on the nodes R e^{i theta}."""
    ws = greens._workspace(R.size)
    return greens._pair_chords(R * ws.cos, R * ws.sin, ws, plan)


def chord_matrix(R, msec=None):
    """Pair chords of the kernel sums gathered into their matrix layout."""
    plan = full_plan(R.size, msec)
    return pair_chords(R, plan)[plan.inverse]


def two_mode_patch(M, alpha, amplitude=0.02, Omega=0.5, fold=1):
    theta = 2 * np.pi * np.arange(M) / M
    r = amplitude * (np.cos(2 * fold * theta + 0.4) + 0.5 * np.cos(3 * fold * theta - 1.1))
    return contour.RadialPatch(r, Omega, alpha, fold=fold)


class TestRhs:
    def test_joint_matches_separate_pieces(self):
        patch = two_mode_patch(256, 0.3)
        assert np.max(np.abs(contour.rhs(patch) - separate_rhs(patch))) <= 1e-10

    @pytest.mark.parametrize("call", [contour.linear_qp_solution, contour.qp_residual])
    @pytest.mark.parametrize("S, Omega", [([2.5], 0.5), ([2], -0.5), ([2], math.nan)])
    def test_linear_solution_rejects(self, call, S, Omega):
        with pytest.raises(DomainError):
            call(S, [1e-3], Omega, 0.7, 0.3, 64)

    @pytest.mark.parametrize("call", [contour.linear_qp_solution, contour.qp_residual])
    @pytest.mark.parametrize("S", [[], [3, 2], [2, 2], [0, 2]])
    def test_linear_solution_rejects_what_the_margins_reject(self, call, S):
        # the tangential-set domain of spectrum, one amplitude per mode
        with pytest.raises(DomainError, match="S must be|each element of S"):
            call(S, [1e-3] * len(S), 0.5, 0.7, 0.3, 64)
        with pytest.raises(DomainError, match="S must be|each element of S"):
            spectrum.transversality_report(S, 0.5, [1] * len(S), "pure", (0.3, 0.7), 2)

    @pytest.mark.parametrize("call", [contour.linear_qp_solution, contour.qp_residual])
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_linear_solution_rejects_nonfinite_time(self, call, t):
        with pytest.raises(DomainError, match="t must be finite"):
            call([2], [0.01], 0.5, 0.3, t, 64)

    @pytest.mark.parametrize("call", [contour.linear_qp_solution, contour.qp_residual])
    @pytest.mark.parametrize("M, error", [(0, GridError), (-4, GridError), (64.5, DomainError)])
    def test_linear_solution_rejects_bad_grid(self, call, M, error):
        with pytest.raises(error, match="grid size"):
            call([2], [0.01], 0.5, 0.3, 0.3, M)

    @pytest.mark.parametrize("call", [contour.linear_qp_solution, contour.qp_residual])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_linear_solution_rejects_nonfinite_amplitudes(self, call, bad):
        with pytest.raises(DomainError, match="amplitudes"):
            call([2, 3], [0.01, bad], 0.5, 0.3, 0.1, 64)

    def test_linear_solution_is_the_mode_sum(self):
        S, a, t, M = [2, 3, 5], np.array([1e-3, -2e-3, 5e-4]), 0.3, 128
        theta = 2 * np.pi * np.arange(M) / M
        ref = sum(
            aj * np.cos(j * theta - spectrum.equilibrium_frequency(j, 0.5, 0.7) * t)
            for j, aj in zip(S, a)
        )
        got = contour.linear_qp_solution(S, a, 0.5, 0.7, t, M)
        assert np.max(np.abs(got - ref)) <= 8 * np.finfo(float).eps * np.sum(np.abs(a))

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
        hits = greens._workspace.cache_info().hits
        greens._workspace(96)  # a hit: the 96-point workspace is the one kept
        info = greens._workspace.cache_info()
        assert (info.maxsize, info.currsize, info.hits) == (1, 1, hits + 1)

    @pytest.mark.parametrize("fold", [1, 2, 4])
    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    @pytest.mark.parametrize("M", [128, 256])
    def test_kernel_product_matches_d_matrix(self, M, alpha, fold):
        patch = two_mode_patch(M, alpha, fold=fold)
        assert np.max(np.abs(contour.rhs(patch) - d_matrix_rhs(patch))) <= 1e-15

    def test_result_owns_its_memory(self):
        first = contour.rhs(two_mode_patch(128, 0.3))
        kept = first.copy()
        contour.rhs(two_mode_patch(128, 0.7, amplitude=0.05))
        assert np.array_equal(first, kept)
        ws = greens._workspace(128)
        for buffer in vars(ws).values():
            if isinstance(buffer, np.ndarray):
                assert not np.shares_memory(first, buffer)

    def test_chords_on_unit_circle(self):
        M = 1024
        A = chord_matrix(np.ones(M))
        k = np.arange(1, M)
        exact = 2.0 * np.sin(np.pi * k / M)
        assert np.max(np.abs(A[0, k] / exact - 1.0)) <= 1e-15

    def test_chord_matrix_symmetric_with_zero_diagonal(self):
        patch = two_mode_patch(128, 0.3, amplitude=0.2)
        A = chord_matrix(patch.radii)
        assert np.all(np.diag(A) == 0.0)
        assert np.array_equal(A, A.T)

    @pytest.mark.parametrize("fold", [1, 2, 4])
    def test_sector_chords_match_direct_chords(self, fold):
        # bitwise on the full grid; a rotated representative differs by the
        # rounding of its node coordinates, relative to the largest chord
        patch = two_mode_patch(128, 0.3, amplitude=0.2, fold=fold)
        msec = 128 // fold
        R = patch.radii
        ws = greens._workspace(128)
        x, y = R * ws.cos, R * ws.sin
        direct = np.sqrt((x[:msec, None] - x) ** 2 + (y[:msec, None] - y) ** 2)
        A = chord_matrix(R, msec)
        assert A.shape == (msec, 128)
        if fold == 1:
            assert np.array_equal(A, direct)
        assert np.max(np.abs(A - direct)) <= 1e-15 * np.max(direct)
        assert np.array_equal(A == 0.0, direct == 0.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_triangle_kernel_matches_full_matrix(self, alpha):
        patch = two_mode_patch(128, alpha)
        A = chord_matrix(patch.radii)
        ws = greens._workspace(128)
        R = patch.radii
        G, _ = greens._kernel_block(alpha, R * ws.cos, R * ws.sin, 128)
        assert A.shape == G.shape == (128, 128)
        assert np.array_equal(G, combined_boundary_kernel(alpha, A))
        assert np.array_equal(G, G.T)

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_buffered_kernel_matches_fresh_on_evolve_chords(self, alpha):
        # the workspace-buffer kernel path against the kernel core in fresh
        # buffers on the pair chords of the evolve benchmark's grid and
        # amplitude, with and without the slope
        patch = two_mode_patch(256, alpha, amplitude=0.01)
        R, _ = contour._geometry(patch)
        plan = full_plan(256)
        ws = greens._workspace(256)
        chords = pair_chords(R, plan).copy()
        n = chords.size
        slope = np.empty(n)
        work = (np.empty(n), np.empty(n), np.empty((3, n)))
        fresh = greens._kernel_into(alpha, chords, chords == 0.0, *work, slope)
        G, S = greens._kernel_block(alpha, R * ws.cos, R * ws.sin, 256)
        assert np.array_equal(G, fresh[plan.inverse]) and S is None
        G, S = greens._kernel_block(alpha, R * ws.cos, R * ws.sin, 256, slope=True)
        assert np.array_equal(G, fresh[plan.inverse])
        assert np.array_equal(S, slope[plan.inverse])

    @pytest.mark.parametrize("reflect", [False, True])
    @pytest.mark.parametrize("bad", ["coincident", "nan"])
    def test_kernel_block_rejects_crossing_before_the_kernel(self, monkeypatch, reflect, bad):
        def no_kernel(*args, **kwargs):
            raise AssertionError("the kernel was evaluated on a crossing boundary")

        monkeypatch.setattr(greens, "_kernel_into", no_kernel)
        ws = greens._workspace(64)
        x, y = ws.cos.copy(), ws.sin.copy()
        if bad == "coincident":
            x[5], y[5] = x[0], y[0]
        else:
            x[5] = math.nan
        with pytest.raises(GeometryError, match="self-intersects"):
            greens._kernel_block(0.3, x, y, 64, reflect)

    def test_warm_rhs_allocates_no_chord_sized_array(self):
        # chords, K_0 arguments, Horner sums and kernel matrix all live in
        # workspace buffers; one chord-sized array is 32896 doubles
        patch = two_mode_patch(256, 0.3, amplitude=0.01)
        contour.rhs(patch)
        tracemalloc.start()
        try:
            contour.rhs(patch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 257 // 2 * 8

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_samples_rejected(self, bad):
        r = np.zeros(64)
        r[5] = bad
        with pytest.raises(GeometryError):
            contour.RadialPatch(r, 0.5, 0.7)
        # a validated patch owns read-only samples, so it cannot change later
        r[5] = 0.0
        patch = contour.RadialPatch(r, 0.5, 0.7)
        r[5] = bad
        assert np.all(patch.samples == 0.0)
        with pytest.raises(ValueError):
            patch.samples[5] = bad

    @pytest.mark.parametrize(
        "offset, alpha, fold",
        [(0.5, math.nan, 1), (0.5, math.inf, 1), (math.nan, 0.7, 1),
         (-math.inf, 0.7, 1), (0.5, 0.7, 2.5)],
    )
    def test_bad_model_parameters_rejected(self, offset, alpha, fold):
        with pytest.raises(DomainError):
            contour.RadialPatch(np.zeros(64), offset, alpha, fold=fold)

    def test_negative_offset_accepted(self):
        # vstate_to_radial sets the offset -Omega of a V-state
        assert contour.RadialPatch(np.zeros(64), -0.3, 0.7).rotation_offset == -0.3


class TestLinearization:
    def test_matches_central_differences_off_flat_state(self):
        """Consistent, not exact: the gap is discretization error and falls with M."""
        h, gaps = 1e-5, []
        for M in (64, 128, 256):
            patch = two_mode_patch(M, 0.3, amplitude=0.2)
            theta = 2 * np.pi * np.arange(M) / M
            rho = np.cos(4 * theta + 0.3) + 0.3 * np.cos(7 * theta - 0.2)
            lin = contour.linearized_rhs(patch, rho)
            fd = (
                contour.rhs(patch.replace_samples(patch.samples + h * rho))
                - contour.rhs(patch.replace_samples(patch.samples - h * rho))
            ) / (2 * h)
            gaps.append(np.max(np.abs(lin - fd)) / np.max(np.abs(lin)))
        assert gaps[0] <= 5e-6 and gaps[1] <= 2e-7 and gaps[2] <= 1e-8
        assert gaps[0] >= 10 * gaps[1] and gaps[1] >= 10 * gaps[2]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_direction_rejected(self, bad):
        rho = np.zeros(64)
        rho[0] = bad
        with pytest.raises(DomainError, match="direction"):
            contour.linearized_rhs(two_mode_patch(64, 0.3), rho)


class TestEvolution:
    def test_mean_conserved(self):
        patch = two_mode_patch(64, 0.5)
        patch = patch.replace_samples(patch.samples - 0.01)
        final, snaps = contour.evolve(patch, 0.2, dt=0.02, snapshot_every=5)
        assert len(snaps) >= 2
        for _, p in snaps:
            assert abs(p.mean - patch.mean) < 1e-14

    def test_angular_momentum_conserved(self):
        patch = two_mode_patch(128, 0.3)
        final, _ = contour.evolve(patch, 0.5)
        J0 = contour.diagnostics(patch).J
        J1 = contour.diagnostics(final).J
        assert abs(J1 - J0) / J0 <= 1e-10

    def test_dt_bound(self):
        patch = two_mode_patch(64, 0.7)
        cap = 2 * contour.default_timestep(patch)
        contour.step_rk4(patch, cap)
        with pytest.raises(DomainError):
            contour.step_rk4(patch, 1.01 * cap)
        with pytest.raises(DomainError):
            contour.step_rk4(patch, 0.0)

    @pytest.mark.parametrize(
        "T, dt", [(0.1, 0.0), (math.nan, None), (0.1, math.nan), (math.inf, None)]
    )
    def test_bad_horizon_or_step_rejected(self, T, dt):
        with pytest.raises(DomainError):
            contour.evolve(two_mode_patch(64, 0.7), T, dt=dt)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_step_rejects_nonfinite_dt(self, dt):
        with pytest.raises(DomainError):
            contour.step_rk4(two_mode_patch(64, 0.7), dt)

    @pytest.mark.parametrize("every", [-2, 0, 0.5, 2.5, math.nan, "2"])
    @pytest.mark.parametrize("T", [0.0, 0.6])
    def test_bad_snapshot_every_rejected(self, T, every):
        with pytest.raises(DomainError):
            contour.evolve(two_mode_patch(64, 0.3), T, snapshot_every=every)

    def test_zero_horizon_takes_no_step(self, monkeypatch):
        patch = two_mode_patch(64, 0.7)
        calls = []
        monkeypatch.setattr(contour, "rhs", lambda *args, **kwargs: calls.append(args))
        final, snaps = contour.evolve(patch, 0.0)
        assert final is patch and snaps == []
        _, snaps = contour.evolve(patch, 0.0, snapshot_every=1)
        assert len(snaps) == 1 and snaps[0][0] == 0.0 and snaps[0][1] is patch
        assert calls == []

    def test_geometry_failure_mid_step(self):
        r = np.zeros(64)
        r[10], r[11] = -0.49, 0.5
        patch = contour.RadialPatch(r, 0.5, 0.7)
        with pytest.raises(InstabilityError, match="mid-step"):
            contour.step_rk4(patch, 2 * contour.default_timestep(patch))


class TestIntegratingFactor:
    def test_fourth_order(self):
        patch = two_mode_patch(128, 0.3, amplitude=0.1)
        ref, coarse, fine = (
            contour.evolve(patch, 0.4, dt=dt)[0].samples for dt in (0.005, 0.04, 0.02)
        )
        assert np.max(np.abs(coarse - ref)) >= 12 * np.max(np.abs(fine - ref))

    def test_flat_symbol_matches_equilibrium_frequencies(self):
        L = contour._flat_symbol(128, 0.3, 0.5)
        kmax = 64 * 2 // 3  # the last mode dealias_twothirds keeps
        omega = np.array(
            [spectrum.equilibrium_frequency(k, 0.5, 0.3) for k in range(1, kmax + 1)]
        )
        gap = np.abs(L.imag[1 : kmax + 1] + omega)
        assert L.shape == (65,) and np.max(np.abs(L.real)) <= 1e-13
        assert np.max(gap[:8]) <= 1e-6 and np.max(gap) <= 2e-4
        assert L[0] == 0.0 and np.all(L[kmax + 1 :] == 0.0)
        assert np.all(L[1 : kmax + 1] != 0.0)

    def test_symbol_cache_is_bounded_and_read_only(self):
        for M in (64, 96, 128):
            for alpha in (0.3, 0.7):
                contour._flat_symbol(M, alpha, 0.5)
        info = contour._flat_symbol.cache_info()
        assert info.maxsize == 4 and info.currsize <= 4
        L = contour._flat_symbol(128, 0.7, 0.5)
        with pytest.raises(ValueError):
            L[1] = 0.0

    def test_flat_patch_takes_the_ceiling(self):
        for alpha, offset in [(0.3, 0.5), (1e-6, -2.0)]:
            flat = contour.RadialPatch(np.zeros(64), offset, alpha)
            assert contour.default_timestep(flat) == 1.0

    def test_default_step_follows_the_state(self):
        # max|r'| of this patch grows along the run, and each step stays
        # within the bound of the state it starts from
        patch = two_mode_patch(128, 0.3, amplitude=0.1)
        _, snaps = contour.evolve(patch, 1.0, snapshot_every=1)
        times = np.array([0.0] + [t for t, _ in snaps])
        starts = [patch] + [p for _, p in snaps[:-1]]
        bounds = np.array([contour.default_timestep(p) for p in starts])
        assert times[-1] == 1.0
        assert np.all(np.diff(times) <= bounds * (1 + 1e-12))
        assert bounds[-1] < bounds[0]

    def test_converted_vstate_stays_steady(self):
        point = vs.continue_branch(0.7, 3, [1e-4, 0.02, 0.04])[-1]
        patch, _ = contour.vstate_to_radial(point, 128)
        final, _ = contour.evolve(patch, 1.0)
        assert np.max(np.abs(final.samples - patch.samples)) <= 1e-9

    def test_backward_evolution_returns_to_start(self):
        patch = two_mode_patch(128, 0.3, amplitude=0.1)
        there, _ = contour.evolve(patch, 0.5)
        back, _ = contour.evolve(there, -0.5)
        assert np.max(np.abs(back.samples - patch.samples)) <= 1e-12

    def test_small_alpha_step_makes_no_bessel_product(self, monkeypatch):
        calls = []
        product = sf.product_IK_array
        monkeypatch.setattr(
            sf, "product_IK_array", lambda *args: calls.append(args) or product(*args)
        )
        patch = two_mode_patch(128, 1e-6)
        contour.step_rk4(patch, contour.default_timestep(patch))
        assert calls == []


class TestEnergy:
    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    @pytest.mark.parametrize("M, tol", [(64, 1e-6), (256, 1e-9)])
    def test_disc_closed_form(self, alpha, M, tol):
        E = contour.diagnostics(contour.RadialPatch(np.zeros(M), 0.5, alpha)).E
        assert abs(E / disc_energy(alpha) - 1) <= tol

    def test_observed_order(self):
        E = [contour.diagnostics(two_mode_patch(M, 0.3)).E for M in (32, 64, 128)]
        assert math.log2(abs(E[0] - E[1]) / abs(E[1] - E[2])) >= 4.5

    def test_matches_extrapolated_area_quadrature(self):
        patch = two_mode_patch(64, 0.3, amplitude=0.1)
        coarse, fine = area_energy(patch, 16, 32), area_energy(patch, 32, 64)
        E = contour.diagnostics(patch).E
        assert abs((4 * fine - coarse) / 3 - E) <= 1e-4 * E

    def test_conserved_by_evolution(self):
        patch = two_mode_patch(128, 0.3)
        final, _ = contour.evolve(patch, 0.5)
        E0 = contour.diagnostics(patch).E
        assert abs(contour.diagnostics(final).E - E0) / E0 <= 1e-12

    def test_grid_rotation_invariant(self):
        patch = two_mode_patch(128, 0.3)
        rolled = patch.replace_samples(np.roll(patch.samples, 37))
        E = contour.diagnostics(patch).E
        assert abs(contour.diagnostics(rolled).E - E) <= 1e-14 * E

    def test_fold_matches_full_grid(self):
        folded = two_mode_patch(128, 0.4, fold=2)
        full = contour.RadialPatch(folded.samples, folded.rotation_offset, 0.4)
        assert contour.diagnostics(folded).E == contour.diagnostics(full).E

    def test_hamiltonian(self):
        patch = two_mode_patch(64, 0.3)
        d = contour.diagnostics(patch)
        assert d.H == 0.5 * (d.E - patch.rotation_offset * d.J)

    def test_memory_is_quadratic_in_M(self):
        patch = two_mode_patch(512, 0.3)
        tracemalloc.start()
        try:
            contour.diagnostics(patch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20


class TestVStateConversion:
    def test_converted_vstate_is_steady(self):
        point = vs.continue_branch(0.7, 3, [1e-4, 0.02, 0.04])[-1]
        patch, phase_residual = contour.vstate_to_radial(point, 128)
        assert phase_residual < 1e-12
        assert patch.rotation_offset == -point.Omega
        assert np.max(np.abs(contour.rhs(patch))) < 1e-8

    def test_explicit_offset_is_used(self):
        point = vs.continue_branch(0.7, 2, [1e-4])[-1]
        converted, _ = contour.vstate_to_radial(point, 64)
        patch = dataclasses.replace(converted, rotation_offset=0.5)
        assert patch.rotation_offset == 0.5
        assert patch.fold == 2 and patch.mean == converted.mean
        final, snaps = contour.evolve(patch, 0.05, dt=0.01, snapshot_every=1)
        assert len(snaps) >= 2 and snaps[-1][1] is final
        for _, p in snaps:
            assert p.rotation_offset == 0.5 and p.fold == 2
            assert abs(p.mean - patch.mean) < 1e-14

    @pytest.mark.parametrize(
        "M, error",
        [(0, GridError), (-1, GridError), (30, GridError), (33, GridError),
         (math.nan, DomainError), (math.inf, DomainError), (-math.inf, DomainError),
         (64.5, DomainError)],
    )
    def test_grid_checked_before_the_inversion(self, M, error):
        # no perturbation to invert: the grid must be rejected before it is read
        point = vs.BranchPoint(
            m=2, alpha=0.7, Omega=0.3, perturbation=None, residual=0.0, amplitude=0.0,
            alias_tail=0.0, newton_steps=0, residual_history=(0.0,), jacobians=1,
        )
        with pytest.raises(error, match="grid size"):
            contour.vstate_to_radial(point, M)
