"""Tests for the rotating-patch functional and branch continuation."""

import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vortexalpha import contour, greens
from vortexalpha import spectrum as sp
from vortexalpha import vstates as vs
from vortexalpha.errors import ConvergenceError, DomainError, GeometryError, GridError
from vortexalpha.numerics import sine_coefficients

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


def single_mode(n, value, fold=1, size=None):
    c = np.zeros((size or n + 1))
    c[n] = value
    return vs.ConformalPerturbation(c, fold=fold)


def euler_piece(Omega, pert, M):
    """Sine coefficients of the Euler piece of F: rigid term + log kernel.

    log|Phi(w) - Phi(tau)| = log(|Phi(w) - Phi(tau)| / |w - tau|) + log|w - tau|:
    the smooth ratio (diagonal limit |Phi'(w)|) is summed by the trapezoid
    rule, and the circle-log convolution is added exactly in Fourier space,
    (1/2 i pi) oint Phi'(tau) log|w - tau| d tau = -w/2 + sum_n a_n conj(w)^n / 2.
    """
    w = np.exp(2j * np.pi * np.arange(M) / M)
    z = pert.map_points(w)
    dphi = pert.map_derivative(w)
    dw = np.abs(w[:, None] - w[None, :])
    np.fill_diagonal(dw, 1.0)
    ratio = np.abs(z[:, None] - z[None, :]) / dw
    np.fill_diagonal(ratio, np.abs(dphi))
    I = (np.log(ratio) * (dphi * w)[None, :]).mean(axis=1)
    powers = np.conj(w)[:, None] ** np.arange(1, pert.degree + 1)
    I = I - w / 2.0 + 0.5 * powers @ pert.coefficients[1:]
    return sine_coefficients(np.imag((Omega * z + I) * np.conj(w) * np.conj(dphi)))


def full_sector_samples(alpha, Omega, pert, M):
    """F on every target node of the first sector, tiled m times.

    The reference for ``vs._f_samples``, which evaluates half a sector and
    fills the rest by oddness: here every sector row has its own kernel
    row and its own trapezoid sum.
    """
    w = np.exp(2j * np.pi * np.arange(M) / M)
    z = pert.map_points(w)
    dphi = pert.map_derivative(w)
    m = pert.fold
    msec = M // m if M % m == 0 else M
    dist = np.abs(z[:msec, None] - z[None, :])
    G = greens.combined_boundary_kernel(alpha, dist)
    I = (G * (dphi * w)[None, :]).mean(axis=1)
    sector = np.imag(
        (Omega * z[:msec] + I) * np.conj(w[:msec]) * np.conj(dphi[:msec])
    )
    return np.tile(sector, M // msec)


def multiplier(alpha, Omega, n):
    """Diagonal entry (n+1)(Omega^E_{n+1}(alpha) - Omega) of d_f F at f = 0.

    Read from the Crandall-Rabinowitz report of the fold-1 pattern, which
    lists every coefficient index up to n.
    """
    return dict(vs.check_crandall_rabinowitz(alpha, 1, n, Omega=Omega).multipliers)[n]


def fold_coefficients(m, amps):
    """a_{km-1} = amps[k-1] (a_0, a_1, ... for m = 1)."""
    c = np.zeros(len(amps) * m)
    c[m - 1 :: m] = amps
    return c


class TestConformalPerturbation:
    def test_fold_pattern_enforced(self):
        vs.ConformalPerturbation([0.0, 0.0, 0.1], fold=3)  # a_2 allowed
        with pytest.raises(DomainError):
            vs.ConformalPerturbation([0.0, 0.1, 0.0], fold=3)  # a_1 not

    def test_bilipschitz_guard(self):
        with pytest.raises(GeometryError):
            vs.ConformalPerturbation([0.0, 0.6, 0.3], fold=1)

    def test_owns_read_only_coefficients(self):
        # the guard holds for the stored copy, whatever the caller's array does
        c = np.array([0.0, 0.1])
        pert = vs.ConformalPerturbation(c)
        c[1] = 5.0
        assert pert.coefficients[1] == 0.1
        with pytest.raises(ValueError):
            pert.coefficients[1] = 5.0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_grid_samples_match_coefficient_loop(self, m):
        # the FFT samples of the functional against the power loops
        pert = vs.ConformalPerturbation(fold_coefficients(m, [0.1, -0.02, 0.005]), fold=m)
        for M in (64, 256):
            w, z, dphi = vs._boundary_samples(pert, M)
            assert np.max(np.abs(z - pert.map_points(w))) <= 1e-15
            assert np.max(np.abs(dphi - pert.map_derivative(w))) <= 1e-15

    def test_map_derivative_consistency(self):
        # Phi' from the coefficient formula vs complex finite differences
        pert = vs.ConformalPerturbation([0.05, 0.1, 0.07], fold=1)
        theta = np.array([0.3, 1.1, 4.0])
        h = 1e-6
        wp = np.exp(1j * (theta + h))
        wm = np.exp(1j * (theta - h))
        w = np.exp(1j * theta)
        fd = (pert.map_points(wp) - pert.map_points(wm)) / (wp - wm)
        assert np.allclose(fd, pert.map_derivative(w), atol=1e-7)


class TestEvaluateF:
    def test_zero_perturbation_vanishes(self):
        pert = vs.ConformalPerturbation(np.zeros(4), fold=1)
        for Om in [-0.3, 0.0, 0.4]:
            fv = vs.evaluate_F(1.0, Om, pert, 256)
            assert np.max(np.abs(fv.sine_coefficients)) < 1e-10

    def test_single_mode_multiplier(self):
        # f = eps z^{-(m-1)}: g_m = eps m (Omega_m^E - Omega) to 1e-9 of eps
        m, eps, Om, alpha = 3, 1e-6, 0.05, 1.0
        fv = vs.evaluate_F(alpha, Om, single_mode(m - 1, eps, fold=m), 512)
        pred = eps * m * (sp.omega_bifurcation(m, alpha) - Om)
        assert abs(fv.sine_coefficients[m - 1] - pred) / eps < 1e-9
        others = np.abs(fv.sine_coefficients.copy())
        others[m - 1] = 0.0
        assert np.max(others) < 1e-12

    def test_translation_solution(self):
        # f = a_0 with Omega = 0 parametrizes a shifted disc: F = 0
        pert = vs.ConformalPerturbation([0.1], fold=1)
        fv = vs.evaluate_F(1.0, 0.0, pert, 512)
        assert np.max(np.abs(fv.sine_coefficients)) < 1e-8

    def test_equivariance_without_reduction(self):
        # 3-fold coefficients declared fold=1 (no sector shortcut): the
        # output must still satisfy the Y_m sparsity to round-off
        c = np.zeros(6)
        c[2], c[5] = 0.05, 0.01
        fv = vs.evaluate_F(1.0, 0.1, vs.ConformalPerturbation(c, fold=1), 256)
        g = fv.sine_coefficients
        mask = np.ones(len(g), dtype=bool)
        mask[2::3] = False  # keep modes not divisible by 3
        assert np.max(np.abs(g[mask])) < 1e-13

    def test_fold_reduction_matches_full(self):
        c = np.zeros(6)
        c[2], c[5] = 0.05, 0.01
        g3 = vs.evaluate_F(1.0, 0.1, vs.ConformalPerturbation(c, fold=3), 384)
        g1 = vs.evaluate_F(1.0, 0.1, vs.ConformalPerturbation(c, fold=1), 384)
        assert np.allclose(
            g3.sine_coefficients, g1.sine_coefficients, atol=1e-14
        )

    def test_linearization_consistency_ratio(self):
        # |F(Omega, eps f) - eps L f| = O(eps^2)
        alpha, Om, n = 1.0, 0.2, 4
        mult = multiplier(alpha, Om, n)
        errs = []
        for eps in [1e-3, 1e-4, 1e-5]:
            fv = vs.evaluate_F(alpha, Om, single_mode(n, eps), 256)
            pred = np.zeros(len(fv.sine_coefficients))
            pred[n] = eps * mult
            errs.append(np.max(np.abs(fv.sine_coefficients - pred)))
        assert errs[0] / errs[1] > 50
        assert errs[1] / errs[2] > 50

    @pytest.mark.parametrize(
        "m, M, coeffs",
        [
            (1, 128, fold_coefficients(1, [0.02, 0.05, 0.01, -0.004])),
            (2, 128, fold_coefficients(2, [0.05, 0.01, -0.004])),
            (3, 192, fold_coefficients(3, [0.05, 0.01, -0.004])),
            (4, 128, fold_coefficients(4, [0.05, 0.01, -0.004])),
            (3, 256, fold_coefficients(3, [0.05, 0.01, -0.004])),  # 3 does not divide M
            (2, 90, fold_coefficients(2, [0.05, 0.01, -0.004])),  # odd sector
            (1, 128, [0.1]),  # shifted disc
        ],
    )
    def test_half_sector_matches_full_sector(self, m, M, coeffs):
        pert = vs.ConformalPerturbation(coeffs, fold=m)
        for alpha, Om in [(0.7, 0.3), (0.3, -0.1)]:
            ref = sine_coefficients(full_sector_samples(alpha, Om, pert, M))
            g = vs.evaluate_F(alpha, Om, pert, M).sine_coefficients
            assert np.max(np.abs(g - ref)) <= 1e-15

    @pytest.mark.parametrize(
        "m, M", [(1, 128), (2, 128), (3, 192), (4, 128), (3, 256), (2, 90)]
    )
    def test_representative_chords_match_direct_chords(self, m, M):
        # relative to the largest chord: a short chord carries the absolute
        # rounding of its two nodes (|z| ~ 1), whichever pair forms it
        pert = vs.ConformalPerturbation(fold_coefficients(m, [0.05, 0.01, -0.004]), fold=m)
        msec = M // m if M % m == 0 else M
        h = msec // 2 + 1
        plan = greens.pair_plan(M, msec, True)
        z = pert.map_points(np.exp(2j * np.pi * np.arange(M) / M))
        direct = np.abs(z[:h, None] - z[None, :])
        gathered = np.abs(z[plan.first] - z[plan.second])[plan.inverse]
        assert np.max(np.abs(gathered - direct)) <= 1e-15 * np.max(direct)
        assert np.array_equal(gathered == 0.0, direct == 0.0)

    @pytest.mark.parametrize("m", [2, 3])
    def test_kernel_rows_cover_half_a_sector(self, monkeypatch, m):
        M = 256
        msec = M // m if M % m == 0 else M
        calls = []
        offset_kernel = greens._offset_kernel

        def recording_kernel(alpha, ws, chords, width, slope):
            calls.append((chords.shape, width, np.flatnonzero(chords == 0.0)))
            return offset_kernel(alpha, ws, chords, width, slope)

        def forbidden(*args, **kwargs):
            raise AssertionError("a warm V-state evaluation evaluated the kernel directly")

        pert = vs.ConformalPerturbation(fold_coefficients(m, [0.05, 0.01]), fold=m)
        vs.evaluate_F(0.7, 0.3, pert, M)  # builds the offset table of (M, alpha)
        with monkeypatch.context() as context:
            context.setattr(greens, "_offset_kernel", recording_kernel)
            context.setattr(greens, "_kernel_values", forbidden)
            vs.evaluate_F(0.7, 0.3, pert, M)
            vs._f_samples(0.7, 0.3, pert, M, [m - 1])  # with Jacobian columns
        assert greens._offset_kernel is offset_kernel
        # one table call per V-state evaluation on the 1-d slots of the
        # plan, M/2 offset rows of msec // 2 + 1, not on the
        # (msec // 2 + 1) x M rows; no direct kernel call
        slots = 1 + M // 2 * (msec // 2 + 1)
        assert [shape for shape, _, _ in calls] == [(slots,)] * 2
        assert all(width == msec // 2 + 1 for _, width, _ in calls)
        assert slots <= M * msec // 4 + M // 2 + 1
        # the diagonal is one slot: a single zero chord, at index 0
        assert all(np.array_equal(zeros, [0]) for _, _, zeros in calls)

    def test_grid_validation(self):
        pert = vs.ConformalPerturbation(np.zeros(10), fold=1)
        with pytest.raises(GridError):
            vs.evaluate_F(1.0, 0.1, pert, 32)  # under 4(N+1)
        with pytest.raises(GridError):
            vs.evaluate_F(1.0, 0.1, pert, 129)  # odd

    @pytest.mark.parametrize(
        "alpha, grid_size", [(math.nan, 64), (math.inf, 64), (1.0, 64.5)]
    )
    def test_bad_arguments_rejected(self, alpha, grid_size):
        pert = vs.ConformalPerturbation(np.zeros(2), fold=1)
        with pytest.raises(DomainError):
            vs.evaluate_F(alpha, 0.1, pert, grid_size)

    @pytest.mark.parametrize("Omega", [math.nan, math.inf, -math.inf])
    def test_nonfinite_omega_rejected(self, Omega):
        pert = vs.ConformalPerturbation(np.zeros(2), fold=1)
        with pytest.raises(DomainError):
            vs.evaluate_F(1.0, Omega, pert, 64)

    def test_nan_coefficient_rejected_at_construction(self):
        # the check sum n |a_n| < 1 alone would let NaN through
        with pytest.raises(DomainError):
            vs.ConformalPerturbation([0.0, math.nan], fold=1)


class TestSharedKernelBlock:
    """The chord-class kernel block that ``vstates`` shares with ``contour``."""

    @staticmethod
    def warm_peak(call):
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("m", [2, 3])
    def test_jacobian_rows_allocate_less_than_a_chord_sized_array(self, m):
        # with the kernel and slope blocks given, the Jacobian's own
        # M x 6N products for a small band stay below one array of the
        # chord-class count
        M, N = 256, 2
        msec = M // m if M % m == 0 else M
        chord_bytes = 8 * greens.pair_plan(M, msec, True).first.size
        pert = vs.ConformalPerturbation(fold_coefficients(m, [0.05, 0.002]), fold=m)
        w, z, dphi = vs._boundary_samples(pert, M)
        G, S = greens._kernel_block(0.7, z.real, z.imag, msec, True, slope=True)
        c = dphi * w
        I = (G @ c.view(float).reshape(M, 2) / M).view(complex)[:, 0]
        modes = np.arange(2, N + 1) * m - 1
        peak = self.warm_peak(lambda: vs._derivative_rows(0.3, modes, w, z, dphi, c, I, G, S))
        assert peak < chord_bytes

    @pytest.mark.parametrize("m", [2, 3])
    def test_warm_evaluate_F_keeps_its_arrays_in_the_workspace(self, m):
        # chords, u, the Horner sums and the block live in workspace
        # buffers; what is left is O(M) vectors and the 8192-double buffer
        # that numpy's iterator takes for a broadcast operand (about 81 kB
        # in all, against 361 kB at m = 2 and 703 kB at m = 3 when the
        # kernel of each slot was a fresh array)
        pert = vs.ConformalPerturbation(fold_coefficients(m, [0.1, 0.002]), fold=m)
        peak = self.warm_peak(lambda: vs.evaluate_F(0.7, 0.3, pert, 256))
        assert peak < 128 * 1024

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_disc_block_rows_match_contour(self, alpha):
        # both solvers leave their block in the shared workspace buffer; the
        # vstates chords come from rotated and reflected representatives,
        # each rounded from its own two nodes (measured 1.2e-15 at alpha = 0.3)
        M, m = 256, 2
        h = M // m // 2 + 1
        ws = greens._workspace(M)
        contour.rhs(contour.RadialPatch(np.zeros(M), 0.5, alpha))
        G = ws.kernel.copy()
        vs.evaluate_F(alpha, 0.3, vs.ConformalPerturbation(np.zeros(m), fold=m), M)
        assert greens._workspace(M) is ws
        assert np.max(np.abs(ws.kernel[:h] - G[:h])) <= 2e-15


def sector_block_case(m, M, width):
    """Node coordinates and plan period of an m-fold patch of chord width near ``width``.

    a_{m-1} = width / (m - 1) and a_{2m-1} = a_{m-1}^2 / 10 give
    max |A / a_e - 1| close to ``width`` for m = 2..5.
    """
    s = width / (m - 1)
    pert = vs.ConformalPerturbation(fold_coefficients(m, [s, 0.1 * s * s]), fold=m)
    _, z, _ = vs._boundary_samples(pert, M)
    e = np.arange(1, M // 2 + 1)
    A = np.abs(np.stack([np.roll(z, -k) for k in e]) - z)
    w = float(np.max(np.abs(A / (2 * np.sin(np.pi * e / M))[:, None] - 1)))
    return z.real.copy(), z.imag.copy(), (M // m if M % m == 0 else M), w


class TestSectorTables:
    """The V-state kernel block and slope from the per-offset tables of ``greens``."""

    @staticmethod
    def direct(alpha, x, y, period):
        """Kernel and slope of :func:`greens._kernel_values` on the plan's slot chords."""
        ws, plan = greens._workspace(x.size), greens.pair_plan(x.size, period, True)
        chords = greens._pair_chords(x, y, ws, plan).copy()
        K, S = greens._kernel_values(alpha, chords, 0, slope=True)
        return K[plan.inverse], S[plan.inverse]

    @pytest.mark.parametrize("width", [0.0, 0.05, 0.23])
    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.7, 5.0])
    @pytest.mark.parametrize("M", [64, 192, 256])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_block_and_slope_match_the_direct_kernel(self, m, M, alpha, width):
        x, y, period, w = sector_block_case(m, M, width)
        assert w <= 0.25 and (width < 0.2 or w > 0.2)  # up to the tables' reach
        K, S = self.direct(alpha, x, y, period)
        G, slope = greens._kernel_block(alpha, x, y, period, True, slope=True)
        assert np.max(np.abs(G - K)) <= 2e-14
        assert np.max(np.abs(slope - S) / np.maximum(1.0, np.abs(S))) <= 1e-12
        kept = G.copy()
        G, none = greens._kernel_block(alpha, x, y, period, True)
        assert np.array_equal(G, kept) and none is None

    @pytest.mark.parametrize("m", [3, 5])
    def test_past_a_quarter_the_block_is_direct(self, m):
        x, y, period, w = sector_block_case(m, 256, 0.35)
        assert w > 0.25
        K, S = self.direct(0.7, x, y, period)
        G, slope = greens._kernel_block(0.7, x, y, period, True, slope=True)
        assert np.array_equal(G, K) and np.array_equal(slope, S)


class TestMultiplierAndSuperposition:
    def test_fd_jacobian_diagonal(self):
        alpha, Om, M, eps = 1.0, 0.2, 256, 1e-6
        for n in range(0, 9):
            fp = vs.evaluate_F(alpha, Om, single_mode(n, eps), M).sine_coefficients
            fm = vs.evaluate_F(alpha, Om, single_mode(n, -eps), M).sine_coefficients
            col = (fp - fm) / (2 * eps)
            pred = np.zeros_like(col)
            pred[n] = multiplier(alpha, Om, n)
            assert np.max(np.abs(col - pred)) < 1e-7

    def test_euler_sw_split_multipliers(self):
        # Euler piece: (n+1)(n/(2(n+1)) - Omega); screened piece:
        # -(n+1) omega_sw(n+1, 1/alpha); their sum is the full multiplier
        alpha, Om, M, eps = 1.0, 0.13, 256, 1e-6
        for n in [1, 3, 6]:
            pieces = {}
            for sign in (1, -1):
                pert = single_mode(n, sign * eps)
                full = vs.evaluate_F(alpha, Om, pert, M).sine_coefficients
                eul = euler_piece(Om, pert, M)
                pieces[sign] = {"euler": eul, "sw": full - eul, "combined": full}
            cols = {
                kind: ((pieces[1][kind] - pieces[-1][kind]) / (2 * eps))[n]
                for kind in ("euler", "sw", "combined")
            }
            pred_euler = (n + 1) * (n / (2 * (n + 1)) - Om)
            pred_sw = -(n + 1) * sp.omega_sw(n + 1, 1.0 / alpha)
            assert cols["euler"] == pytest.approx(pred_euler, abs=2e-7)
            assert cols["sw"] == pytest.approx(pred_sw, abs=2e-7)
            assert cols["combined"] == pytest.approx(
                cols["euler"] + cols["sw"], abs=1e-12
            )

    def test_multiplier_zeros_at_bifurcation(self):
        alpha, m = 1.0, 3
        Om = sp.omega_bifurcation(m, alpha)
        assert multiplier(alpha, Om, m - 1) == pytest.approx(0.0, abs=1e-15)
        for mp in [6, 9]:
            assert abs(multiplier(alpha, Om, mp - 1)) > 1e-3


class TestIntegerArguments:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: vs.check_crandall_rabinowitz(0.5, 2.5, 6),
            lambda: vs.check_crandall_rabinowitz(0.5, 2, 6.7),
            lambda: vs.continue_branch(1.0, 2, [1e-4], band=2.5, grid_size=64),
            lambda: vs.continue_branch(1.0, 2.5, [1e-4], band=2, grid_size=64),
            lambda: vs.continue_branch(1.0, 2, [1e-4], band=2, grid_size=64.5),
            lambda: vs.ConformalPerturbation([0.0, 0.1], fold=2.5),
        ],
    )
    def test_non_integer_rejected(self, call):
        with pytest.raises(DomainError):
            call()


class TestCrandallRabinowitz:
    def test_window_below_the_kernel_mode_rejected(self):
        with pytest.raises(DomainError):
            vs.check_crandall_rabinowitz(0.5, 3, 1)
        assert vs.check_crandall_rabinowitz(0.5, 3, 2).kernel_modes == (2,)

    @pytest.mark.parametrize("Omega", [math.nan, math.inf, -math.inf])
    def test_nonfinite_omega_rejected(self, Omega):
        with pytest.raises(DomainError, match="Omega must be finite"):
            vs.check_crandall_rabinowitz(0.5, 3, 8, Omega=Omega)

    def test_kernel_and_transversality(self):
        rep = vs.check_crandall_rabinowitz(1.0, 3, 32)
        assert rep.kernel_dim == 1
        assert rep.kernel_modes == (2,)
        assert rep.transversality == -3.0

    @pytest.mark.parametrize("alpha", [1e5, 1e6])
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_one_kernel_mode_at_large_alpha(self, alpha, m):
        # every multiplier shrinks like Omega_m (Omega_2 = 2.9e-10 at 1e5)
        rep = vs.check_crandall_rabinowitz(alpha, m, 41)
        assert rep.kernel_dim == 1
        assert rep.kernel_modes == (m - 1,)
        assert rep.transversality == -m

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_inseparable_frequencies_rejected(self, m):
        # at alpha = 1e8 the frequencies differ by less than the table's rounding
        with pytest.raises(DomainError, match="alpha=100000000.0"):
            vs.check_crandall_rabinowitz(1e8, m, 41)

    def test_high_fold_small_alpha(self):
        rep = vs.check_crandall_rabinowitz(0.2, 7, 64)
        assert rep.kernel_dim == 1
        assert rep.transversality == -7.0

    def test_no_eigenvalue_between(self):
        alpha = 1.0
        Om = 0.5 * (sp.omega_bifurcation(2, alpha) + sp.omega_bifurcation(3, alpha))
        rep = vs.check_crandall_rabinowitz(alpha, 2, 32, Omega=Om)
        assert rep.kernel_dim == 0

    def test_multipliers_match_scalar_form(self):
        for alpha, m in [(0.3, 2), (1.0, 3), (0.2, 7)]:
            Om = 0.1
            rep = vs.check_crandall_rabinowitz(alpha, m, 40, Omega=Om)
            for n, v in rep.multipliers:
                scalar = (n + 1) * (sp.omega_bifurcation(n + 1, alpha) - Om)
                assert v == pytest.approx(scalar, rel=0, abs=1e-14)

    def test_multiplier_table_present(self):
        rep = vs.check_crandall_rabinowitz(1.0, 2, 10)
        assert all(n % 2 == 1 for n, _ in rep.multipliers)


class TestBranchContinuation:
    def test_small_amplitude_point(self):
        pts = vs.continue_branch(
            1.0, 3, [1e-4], band=8, grid_size=192, tol=1e-11
        )
        p = pts[0]
        assert p.newton_steps <= 3
        assert abs(p.Omega - sp.omega_bifurcation(3, 1.0)) < 1e-5
        assert p.residual < 1e-11

    def test_short_branch_and_decay(self):
        pts = vs.continue_branch(
            1.0, 3, [1e-4, 0.01, 0.02], band=24, grid_size=384, tol=1e-11
        )
        assert all(p.residual < 1e-11 for p in pts)
        c = np.abs(pts[-1].perturbation.coefficients[2::3])
        live = c[c > 0]
        assert np.all(np.diff(np.log(live[:6])) < 0)  # geometric-ish decay

    def test_distinct_folds_distinct_limits(self):
        p2 = vs.continue_branch(1.0, 2, [1e-4], band=8, grid_size=128)[0]
        p3 = vs.continue_branch(1.0, 3, [1e-4], band=8, grid_size=192)[0]
        assert abs(p2.Omega - sp.omega_bifurcation(2, 1.0)) < 1e-5
        assert abs(p3.Omega - sp.omega_bifurcation(3, 1.0)) < 1e-5
        assert abs(p2.Omega - p3.Omega) > 1e-2

    def test_amplitude_validation(self):
        with pytest.raises(DomainError):
            vs.continue_branch(1.0, 3, [0.01])  # first too large
        with pytest.raises(DomainError):
            vs.continue_branch(1.0, 3, [1e-4, 1e-4])  # not increasing
        with pytest.raises(DomainError):
            vs.continue_branch(1.0, 1, [1e-4])  # fold too low

    def test_band_validation(self):
        with pytest.raises(DomainError):
            vs.continue_branch(1.0, 2, [1e-4], band=0, grid_size=64)
        p = vs.continue_branch(1.0, 2, [1e-4], band=1, grid_size=64)[0]
        assert abs(p.Omega - sp.omega_bifurcation(2, 1.0)) < 1e-5

    def test_nonconvergence_reports_last_iterate(self):
        with pytest.raises(ConvergenceError) as err:
            vs.continue_branch(
                1.0, 3, [1e-4], band=8, grid_size=192, tol=1e-30, max_steps=2
            )
        assert err.value.last_iterate is not None
        assert "residual" in err.value.last_iterate

    @pytest.mark.parametrize("ladder", [[1e-4, 0.1], [1e-4, 0.02, 0.05, 0.1]])
    def test_line_search_rejects_non_bilipschitz_trials(self, ladder):
        # trial steps at s = 0.1 leave the bi-Lipschitz regime; they must
        # shorten the step, not escape as GeometryError
        with pytest.raises(ConvergenceError) as err:
            vs.continue_branch(0.7, 3, ladder)
        assert err.value.last_iterate is not None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": math.nan},
            {"tol": math.inf},
            {"tol": 0.0},
            {"tol": -1e-11},
            {"max_steps": 2.5},
            {"max_steps": -1},
            {"amplitudes": [math.nan]},
            {"amplitudes": [1e-4, math.inf]},
            {"amplitudes": [1e-4, math.nan]},
        ],
    )
    def test_bad_arguments_rejected(self, kwargs):
        args = {"amplitudes": [1e-4], "band": 2, "grid_size": 64, **kwargs}
        with pytest.raises(DomainError):
            vs.continue_branch(1.0, 2, **args)

    def test_residual_history(self):
        pts = vs.continue_branch(0.7, 2, [1e-4, 0.02, 0.05, 0.08], band=6, grid_size=128)
        for p in pts:
            hist = p.residual_history
            assert len(hist) == p.newton_steps + 1
            assert hist[-1] == p.residual < 1e-11
            assert all(b < a for a, b in zip(hist, hist[1:]))
        # the first two points start with an exact Jacobian, the third
        # with their extrapolation; after that only a step that contracts
        # by less than 5 takes one (no line search fails on this ladder)
        for k, p in enumerate(pts):
            hist = p.residual_history
            slow = sum(1e-11 <= b > 0.2 * a for a, b in zip(hist, hist[1:]))
            assert p.jacobians == (k < 2) + slow

    def test_residual_is_bitwise_evaluate_F(self):
        alpha, m, N, M = 0.7, 3, 6, 192
        pts = vs.continue_branch(alpha, m, [1e-4, 0.01, 0.03], band=N, grid_size=M)
        for p in pts:
            g = vs.evaluate_F(alpha, p.Omega, p.perturbation, M).sine_coefficients
            assert p.residual == np.max(np.abs(g[m - 1 : N * m : m]))
        u = branch_unknowns(pts[-1], m, N)
        with_jacobian = vs._branch_residual(alpha, m, 0.03, u, M, N, jacobian=True)
        plain = vs._branch_residual(alpha, m, 0.03, u, M, N)
        assert np.array_equal(with_jacobian[0], plain[0])
        assert with_jacobian[1] == plain[1]

    def test_evaluate_F_calls_per_point(self, monkeypatch):
        # chord Newton from the predicted start: one evaluation per step,
        # and one at the start of each point that extrapolates its
        # Jacobian; the first two points take the only exact Jacobians
        calls = []
        evaluate = vs.evaluate_F

        def counting(*args, **kwargs):
            calls.append(None)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(vs, "evaluate_F", counting)
        ladder = [1e-4] + [0.01 * k for k in range(1, 11)]
        pts = vs.continue_branch(0.7, 2, ladder, band=8, grid_size=128)
        assert [p.jacobians for p in pts] == [1] * 2 + [0] * (len(ladder) - 2)
        assert len(calls) <= len(ladder) - 2 + sum(p.newton_steps for p in pts) + 2
        assert max(p.newton_steps for p in pts) <= 3

    def test_predictor_is_exact_on_a_symmetric_branch(self):
        # Omega, a_{2m-1} and a_{4m-1} quartic in s^2 and a_{3m-1} s times
        # one, all through the disc (0.4, 0, 0, 0) at s = 0: the interpolant
        # in s^2 reproduces such a branch from the disc and four of its
        # points, and a quadratic one from any three
        def branch(s, quartic=True):
            q = s * s
            r = 5.0 * q**3 - 20.0 * q**4 if quartic else 0.0
            return np.array(
                [0.4 + 0.3 * q - 2.0 * q * q + r, -1.5 * q + 4.0 * q * q - r,
                 s * (0.7 * q - 3.0 * q * q + r), 0.2 * q * q + 3.0 * r]
            )

        disc = (0.0, branch(0.0))
        assert np.array_equal(vs._predict([disc], 1e-4), branch(0.0))
        nodes = [disc] + [(t, branch(t)) for t in (0.012, 0.021, 0.029, 0.04)]
        assert np.max(np.abs(vs._predict(nodes, 0.05) - branch(0.05))) <= 1e-14
        nodes = [disc] + [(t, branch(t)) for t in (0.05, 0.07, 0.09, 0.1)]
        assert np.max(np.abs(vs._predict(nodes, 0.12) - branch(0.12))) <= 1e-14
        for ts, s in [((0.0, 0.01, 0.02), 0.03), ((0.01, 0.02, 0.035), 0.05)]:
            solved = [(t, branch(t, quartic=False)) for t in ts]
            assert np.max(np.abs(vs._predict(solved, s) - branch(s, quartic=False))) <= 1e-14

    def test_predicted_start_needs_at_most_two_steps(self):
        # a start extrapolated linearly in s needs three steps per point here
        ladder = [1e-4, 0.01, 0.02, 0.03, 0.04]
        pts = vs.continue_branch(0.7, 3, ladder, band=10, grid_size=192)
        assert all(p.newton_steps <= 2 for p in pts[1:])

    def test_stale_jacobian_is_refreshed_when_the_line_search_fails(self, monkeypatch):
        # r(u) = u^3 - 3u - 0.7 from u = 0.8: the first step crosses the
        # fold of r at u = -1, so the chord Jacobian's slope has the wrong
        # sign at the new iterate and every trial of the line search fails;
        # Newton must take the Jacobian afresh there and converge
        def residual(u):
            return u**3 - 3 * u - 0.7

        calls = []

        def stub(alpha, m, s, u, M, N, jacobian=False):
            calls.append((jacobian, float(u[0])))
            out = (residual(u), 0.0, None)
            return out + (np.array([[3 * u[0] ** 2 - 3]]),) if jacobian else out

        monkeypatch.setattr(vs, "_branch_residual", stub)
        tol = 1e-12
        _, _, _, history, jacobians = vs._newton_solve(
            0.7, 2, 0.0, np.array([0.8]), 64, 1, tol, 30, []
        )
        assert jacobians == 2 and history[-1] < tol
        # one accepted step, ten rejected trials, then the Jacobian afresh
        # at the accepted iterate
        assert [jac for jac, _ in calls[:13]] == [True] + [False] * 11 + [True]
        assert calls[12][1] == calls[1][1] == pytest.approx(0.8 - residual(0.8) / -1.08)


class TestJacobianExtrapolation:
    """Branch points that start from Jacobians extrapolated through exact ones."""

    ALPHA, BAND, GRID = 0.7, 10, 256

    def ladders(self, seed):
        return workloads.Branch().make_input(np.random.default_rng(seed))

    def branch(self, m, ladder):
        return vs.continue_branch(self.ALPHA, m, ladder, band=self.BAND, grid_size=self.GRID)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_benchmark_ladders(self, monkeypatch, seed):
        # two exact Jacobians per branch, then none: no step contracts
        # by less than 5; Omega as with an exact Jacobian at every point.
        # Three-point starts and three-Jacobian stencils in s took 30 and
        # 31 Newton steps per op at these seeds
        ladders = self.ladders(seed)
        got = {m: self.branch(m, ladder) for m, ladder in ladders.items()}
        assert sum(p.newton_steps for pts in got.values() for p in pts) <= 26
        solve = vs._newton_solve
        monkeypatch.setattr(vs, "_newton_solve", lambda *args: solve(*args[:-1], []))
        ref = {m: self.branch(m, ladder) for m, ladder in ladders.items()}
        for m, pts in got.items():
            assert [p.jacobians for p in pts] == [1] * 2 + [0] * (len(pts) - 2)
            assert all(p.residual < 1e-11 for p in pts)
            assert max(abs(p.Omega - q.Omega) for p, q in zip(pts, ref[m])) <= 1e-10
            assert all(p.jacobians == 1 for p in ref[m])

    def test_poor_extrapolation_is_refreshed(self):
        # every stencil Jacobian tripled: the step is a third of Newton's,
        # contracts by about 3/2, and the point takes an exact Jacobian
        alpha, m, N, M = 0.7, 2, 6, 128
        pts = vs.continue_branch(alpha, m, [1e-4, 0.02, 0.05], band=N, grid_size=M)
        solved = [(p.amplitude, branch_unknowns(p, m, N)) for p in pts]
        exact = [
            (s, 3.0 * vs._branch_residual(alpha, m, s, u, M, N, jacobian=True)[3])
            for s, u in solved[-2:]
        ]
        u, _, _, history, jacobians = vs._newton_solve(
            alpha, m, 0.08, vs._predict(solved, 0.08), M, N, 1e-11, 40, exact
        )
        assert jacobians >= 1 and history[-1] < 1e-11
        assert history[1] > 0.2 * history[0]  # the slow step that refreshed
        # the fresh Jacobian replaced the oldest in the stencil
        assert [s for s, _ in exact] == [0.05, 0.08]
        ref = vs.continue_branch(alpha, m, [1e-4, 0.02, 0.05, 0.08], band=N, grid_size=M)
        assert abs(u[0] - ref[-1].Omega) <= 1e-10

    def test_refresh_at_one_amplitude_replaces_its_stencil_entry(self, monkeypatch):
        # two exact Jacobians at one amplitude keep the stencil nodes
        # distinct, so the extrapolation stays defined
        def residual(u):
            return u**3 - 3 * u - 0.7

        def stub(alpha, m, s, u, M, N, jacobian=False):
            out = (residual(u), 0.0, None)
            return out + (np.array([[3 * u[0] ** 2 - 3]]),) if jacobian else out

        monkeypatch.setattr(vs, "_branch_residual", stub)
        exact = [(0.1, np.eye(1)), (0.2, np.eye(1))]
        *_, jacobians = vs._newton_solve(0.7, 2, 0.0, np.array([0.8]), 64, 1, 1e-12, 30, exact)
        assert jacobians == 2
        assert [s for s, _ in exact] == [0.2, 0.0]

    def test_jacobian_interpolant_is_exact_on_a_symmetric_jacobian(self):
        # even entries (P = +1) linear in s^2 and odd ones s times such a
        # function: two exact Jacobians determine J at every amplitude
        N = 5
        P = vs._parity(N)[1]
        rng = np.random.default_rng(3)
        A, B = rng.uniform(-1.0, 1.0, (2, N, N))

        def jac(s):
            return np.where(P > 0, 1.0, s) * (A + s * s * B)

        for t0, t1, s in [(0.02, 0.05, 0.07), (0.1, 0.12, 0.15), (0.05, 0.1, 0.0)]:
            got = vs._interpolate_in_s2([(t0, jac(t0)), (t1, jac(t1))], s, P)
            assert np.max(np.abs(got - jac(s))) <= 1e-14

    @pytest.mark.parametrize("slope", [1.0, 0.0])  # the exact Jacobian
    def test_singular_extrapolation_takes_an_exact_jacobian(self, monkeypatch, slope):
        # at s = 0 the odd entries of an extrapolated Jacobian vanish (the
        # 1 x 1 Jacobian d g_m / d Omega is odd): Newton takes an exact one
        # at the same iterate instead, and stops only if that is singular
        calls = []

        def stub(alpha, m, s, u, M, N, jacobian=False):
            calls.append((jacobian, float(u[0])))
            out = (u - 1.0, 0.0, None)
            return out + (np.array([[slope]]),) if jacobian else out

        monkeypatch.setattr(vs, "_branch_residual", stub)
        exact = [(0.1, np.eye(1)), (0.2, np.eye(1))]
        args = (0.7, 2, 0.0, np.array([0.5]), 64, 1, 1e-12, 30, exact)
        if slope:
            u, _, _, history, jacobians = vs._newton_solve(*args)
            assert jacobians == 1 and u[0] == 1.0 and history == (0.5, 0.0)
            assert calls == [(False, 0.5), (True, 0.5), (False, 1.0)]
        else:
            with pytest.raises(ConvergenceError, match="singular Jacobian"):
                vs._newton_solve(*args)
            assert calls == [(False, 0.5), (True, 0.5)]

    def test_warm_branch_builds_no_table(self):
        ladders = self.ladders(1)
        for m, ladder in ladders.items():
            self.branch(m, ladder)
        misses = greens._offset_table.cache_info().misses
        for m, ladder in ladders.items():
            self.branch(m, ladder)
        assert greens._offset_table.cache_info().misses == misses


def branch_unknowns(point, m, N):
    """u = (Omega, a_{2m-1}, ..., a_{Nm-1}) of a branch point."""
    return np.concatenate(([point.Omega], point.perturbation.coefficients[2 * m - 1 : N * m : m]))


def central_jacobian(alpha, m, s, u, M, N, h=1e-6):
    """d g_nm / d u by central differences of evaluate_F, column by column."""
    jac = np.empty((N, N))
    for k in range(N):
        step = np.zeros(N)
        step[k] = h
        plus = vs._branch_residual(alpha, m, s, u + step, M, N)[0]
        minus = vs._branch_residual(alpha, m, s, u - step, M, N)[0]
        jac[:, k] = (plus - minus) / (2 * h)
    return jac


class TestExactJacobian:
    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    @pytest.mark.parametrize("m, M, s", [(2, 128, 0.05), (2, 128, 0.15), (3, 192, 0.1), (3, 192, 0.15)])
    def test_matches_central_differences(self, m, M, s, alpha):
        # off the branch: Omega away from the bifurcation value and
        # higher coefficients of a decaying size, so no column is special
        N = 6
        rng = np.random.default_rng(m)
        u = np.empty(N)
        u[0] = sp.omega_bifurcation(m, alpha) + 0.01
        u[1:] = rng.uniform(-1.0, 1.0, N - 1) * s ** np.arange(2, N + 1)
        jac = vs._branch_residual(alpha, m, s, u, M, N, jacobian=True)[3]
        ref = central_jacobian(alpha, m, s, u, M, N)
        assert np.max(np.abs(jac - ref)) <= 1e-6 * np.max(np.abs(ref))

    @pytest.mark.parametrize("m, M", [(2, 256), (3, 192)])
    def test_rotation_by_pi_over_m_flips_the_odd_entries(self, m, M):
        # the symmetry that the start and Jacobian stencils rely on:
        # g(-s, sigma u) = (-1)^n g(s, u) and J(-s, sigma u) = P J(s, u)
        # (measured 3.2e-16 and 5.6e-16 for J, 6.8e-17 and 5.2e-17 for g)
        alpha, s, N = 0.7, 0.1, 6
        rng = np.random.default_rng(m)
        u = np.empty(N)
        u[0] = sp.omega_bifurcation(m, alpha) + 0.01
        u[1:] = rng.uniform(-1.0, 1.0, N - 1) * s ** np.arange(2, N + 1)
        sigma, P = vs._parity(N)
        g, _, _, jac = vs._branch_residual(alpha, m, s, u, M, N, jacobian=True)
        g_, _, _, jac_ = vs._branch_residual(alpha, m, -s, sigma * u, M, N, jacobian=True)
        assert np.max(np.abs(g_ - (-1.0) ** np.arange(1, N + 1) * g)) <= 1e-14
        assert np.max(np.abs(jac_ - P * jac)) <= 1e-14

    @pytest.mark.parametrize("alpha, m", [(0.3, 2), (0.7, 3), (1.0, 4)])
    def test_disc_jacobian_is_diagonal(self, alpha, m):
        # at the disc (s = 0) the coefficient columns decouple, with the
        # scalar multipliers nm (Omega^E_nm - Omega), and dF/dOmega = 0.
        # The grid's multiplier of mode n approaches the scalar one like
        # M^-5 (about 2e-9 for n = 6 at M = 256); 1024 nodes per sector
        # put the gap below 1e-13 for n <= 3m.
        N, Omega = 3, 0.1
        u = np.r_[Omega, np.zeros(N - 1)]
        jac = vs._branch_residual(alpha, m, 0.0, u, 1024 * m, N, jacobian=True)[3]
        n = m * np.arange(1, N + 1)
        pred = np.diag(n * (sp.bifurcation_table(N * m, [alpha])[n - 1, 0] - Omega))
        pred[0, 0] = 0.0
        assert np.max(np.abs(jac - pred)) <= 1e-13
