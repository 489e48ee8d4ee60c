"""Tests for the from-scratch modified Bessel functions."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev

from vortexalpha import specfun as sf
from vortexalpha.errors import DomainError

# Frozen via tests/oracles.py (direct 200-term series in 50-digit mpmath).
I3_OF_2P5 = 0.47437040877803559
K2_OF_1P3 = 0.85139763957996872
I1K1_OF_1 = 0.34017335090486752
I20_OF_0P1 = 3.9203710314199778e-45
K0_OF_2 = 0.11389387274953344

LOG_GRID = np.geomspace(1e-3, 1e3, 40)


def mp_besselk(n, x):
    """K_n(x) from mpmath at 30 digits."""
    with mp.workdps(30):
        return float(mp.besselk(n, mp.mpf(x)))


def mp_product(n, x):
    """I_n(x) K_n(x) from mpmath at 30 digits."""
    with mp.workdps(30):
        x = mp.mpf(x)
        return float(mp.besseli(n, x) * mp.besselk(n, x))


def ratio_tables(nmax, x):
    """(P, rho, kappa) of the production path on the array x.

    P[n] = I_n K_n for n = 0..nmax + 1 from ``product_IK_array``, and for
    n = 0..nmax the order ratios rho[n] = I_{n+1}/I_n of ``_i_ratio_seq``
    and kappa[n] = K_{n+1}/K_n = P[n + 1] / (rho[n] P[n]).
    """
    x = np.asarray(x, dtype=float)
    P = sf.product_IK_array(nmax + 1, x)
    rho = sf._i_ratio_seq(nmax + 1, x)
    return P, rho, P[1:] / (rho * P[:-1])


def wronskian_defect(n, x):
    """|x (I_n' K_n - I_n K_n') - 1| in product form.

    With I_n' = I_{n+1} + (n/x) I_n and K_n' = -K_{n+1} + (n/x) K_n the
    Wronskian is I_{n+1} K_n + I_n K_{n+1} = rho_n P_n + P_{n+1} / rho_n.
    """
    P, rho, _ = ratio_tables(n, x)
    return np.abs(x * (rho[n] * P[n] + P[n + 1] / rho[n]) - 1.0)


def ratio_bounds(n, x):
    """Strict ratio bounds x I_n'/I_n < sqrt(x^2+n^2) < -x K_n'/K_n.

    In ratio form x I_n'/I_n = x rho_n + n and -x K_n'/K_n = x kappa_n - n.
    Returns (holds_for_I, holds_for_K) over every x; the contract is
    (True, True).
    """
    x = np.asarray(x, dtype=float)
    _, rho, kappa = ratio_tables(n, x)
    root = np.hypot(x, n)
    return bool(np.all(x * rho[n] + n < root)), bool(np.all(root < x * kappa[n] - n))


class TestBesselI:
    def test_zero_argument(self):
        # I_n(0) = 0 for n >= 1: the order ratios vanish like x / (2n + 2)
        x = np.array([1e-300, 1e-100, 1e-12])
        n = np.arange(8)[:, None]
        rho = sf._i_ratio_seq(8, x)
        assert np.max(np.abs(rho / (x / (2 * (n + 1))) - 1.0)) <= 1e-15

    def test_series_oracle(self):
        got = sf.product_IK_array(3, np.array([2.5]))[3, 0]
        assert got == pytest.approx(I3_OF_2P5 * mp_besselk(3, 2.5), rel=1e-12)

    def test_extreme_order_small_argument(self):
        got = sf.product_IK_array(20, np.array([0.1]))[20, 0]
        assert got == pytest.approx(I20_OF_0P1 * mp_besselk(20, 0.1), rel=1e-12)

    def test_negative_argument_rejected(self):
        for x in (-1.0, 0.0):
            with pytest.raises(DomainError):
                sf.product_IK_array(2, np.array([1.0, x]))
            with pytest.raises(DomainError):
                sf.k0_array(np.array([1.0, x]))

    def test_negative_order_rejected(self):
        for nmax in (-1, 2.5, math.nan):
            with pytest.raises(DomainError):
                sf.product_IK_array(nmax, np.array([1.0]))

    def test_scaled_consistency(self):
        # the products are formed from scaled factors, so they hold where
        # I_n alone overflows (x > 709)
        x = np.array([700.0, 800.0, 1e4, 1e5])
        ref = np.array([[mp_product(n, v) for v in x] for n in range(5)])
        assert np.max(np.abs(sf.product_IK_array(4, x) / ref - 1.0)) <= 4e-15

    def test_overflow_guard(self):
        # no floating-point exception escapes; K_0 underflows to 0 past 745
        x = np.array([701.0, 740.0, 800.0, 1e5])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            P = sf.product_IK_array(6, x)
            k0 = sf.k0_array(x)
        assert np.all(np.isfinite(P)) and np.all(P > 0)
        assert np.all(k0[:2] > 0) and np.all(k0[2:] == 0.0)

    def test_switch_continuity(self):
        # I_0: the series and the large-argument expansion agree at x = 30
        x = np.array([sf._X_SWITCH_I_SERIES])
        series = sf._i_series_scaled(x)[0]
        expansion = sf._asy_scaled(x)[0] / math.sqrt(2 * math.pi * x[0])
        assert series == pytest.approx(expansion, rel=1e-14)

    @pytest.mark.parametrize("x", [2.5, 1e4, 1e6])
    def test_scalar_ratio_loop_matches_array(self, x):
        # the ratios at one argument (as omega_infinity asks for them) equal
        # its column in a call whose larger arguments seed the loop higher
        single = sf._i_ratio_seq(5, np.array([x]))[:, 0]
        shared = sf._i_ratio_seq(5, np.array([x, 4 * x, 1e-3]))[:, 0]
        assert np.array_equal(single, shared)

    def test_scaled_sweep(self):
        # every order 0..64: I_0 times downward-recurrence ratios, times K_n
        # (mpmath's K_n for n >= 2 by the upward recurrence at 30 digits,
        # which is stable and much faster than mp.besselk at high order)
        grid = np.geomspace(1e-3, 1e3, 61)
        ref = np.empty((65, grid.size))
        with mp.workdps(30):
            for i, x in enumerate(map(mp.mpf, grid)):
                k = [mp.besselk(0, x), mp.besselk(1, x)]
                for n in range(1, 64):
                    k.append(k[n - 1] + 2 * n / x * k[n])
                ref[:, i] = [float(mp.besseli(n, x) * k[n]) for n in range(65)]
        got = sf.product_IK_array(64, grid)
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-14


class TestBesselK:
    def test_series_oracle(self):
        with mp.workdps(30):
            i2 = float(mp.besseli(2, mp.mpf(1.3)))
        got = sf.product_IK_array(2, np.array([1.3]))[2, 0]
        assert got == pytest.approx(i2 * K2_OF_1P3, rel=1e-11)
        assert sf.k0_array(np.array([2.0]))[0] == pytest.approx(K0_OF_2, rel=1e-12)

    def test_log_behaviour_at_zero(self):
        # K_0(x) + log(x/2) -> -gamma
        x = np.array([1e-6, 1e-5])
        assert np.max(np.abs(sf.k0_array(x) + np.log(x / 2) + sf.EULER_GAMMA)) <= 1e-9

    def test_large_argument_asymptotics(self):
        # K_n(x) sqrt(2x/pi) e^x -> 1 with first-order correction
        # (4n^2-1)/(8x): within 2% at x = 50 for n = 0, 1; at high order the
        # product 2x I_n K_n -> 1 needs proportionally larger x
        for n, scaled in enumerate(sf._k01e(np.array([50.0]))):
            assert scaled[0] * math.sqrt(100.0 / math.pi) == pytest.approx(1.0, rel=0.02)
        P = sf.product_IK_array(3, np.array([250.0]))
        assert 500.0 * P[3, 0] == pytest.approx(1.0, rel=0.02)

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.k0_array(np.array([0.0]))
        with pytest.raises(DomainError):
            sf.k0_array(np.array([-2.0]))
        with pytest.raises(DomainError):
            sf.product_IK_array(0, np.array([0.0]))

    def test_switch_continuity(self):
        # the series and the Chebyshev fit agree to 1e-9 relative at x = 3
        x = np.array([3.0])
        series = sf._k01e_series(x)
        fit = sf._k01e_cheb(x)
        for a, b in zip(series, fit):
            assert a[0] == pytest.approx(b[0], rel=1e-9)

    def test_positive(self):
        x = np.array([0.01, 1.0, 30.0])
        assert np.all(sf.product_IK_array(9, x) > 0)
        assert np.all(sf.k0_array(x) > 0)


def chebyshev_coefficients(degree=20, dps=40):
    """c[k, n] of sqrt(x) e^x K_n(x) = sum_k c[k, n] T_k(6/x - 1) from mpmath.

    Interpolation at the degree + 1 Chebyshev nodes of the first kind,
    written from the defining sums; shares no code with the package.
    """
    nodes = degree + 1
    out = np.empty((nodes, 2))
    with mp.workdps(dps):
        angles = [mp.pi * (j + mp.mpf(1) / 2) / nodes for j in range(nodes)]
        xs = [6 / (mp.cos(a) + 1) for a in angles]
        for n in (0, 1):
            f = [mp.sqrt(x) * mp.exp(x) * mp.besselk(n, x) for x in xs]
            for k in range(nodes):
                c = 2 * mp.fsum(fj * mp.cos(k * a) for fj, a in zip(f, angles)) / nodes
                out[k, n] = float(c / 2 if k == 0 else c)
    return out


# geometric grid over the Chebyshev band and mpmath values of K_n there
FIT_GRID = np.geomspace(3.0, 1e8, 241)


@pytest.fixture(scope="module")
def k_oracle():
    """{n: (e^x K_n, K_n)} on FIT_GRID; K_n underflows to 0 beyond x = 745."""
    out = {}
    with mp.workdps(30):
        for n in (0, 1):
            vals = [(mp.besselk(n, x), mp.exp(x)) for x in map(mp.mpf, FIT_GRID)]
            out[n] = (
                np.array([float(k * e) for k, e in vals]),
                np.array([float(k) for k, _ in vals]),
            )
    return out


class TestChebyshevFit:
    def test_coefficients_regenerate(self):
        assert np.max(np.abs(chebyshev_coefficients() - sf._K01E_CHEB)) <= 1e-15

    def test_powers_match_numpy_conversion(self):
        ref = np.stack([chebyshev.cheb2poly(c) for c in sf._K01E_CHEB.T], axis=1)
        assert np.max(np.abs(sf._K01E_POWERS - ref)) <= 1e-16

    def test_scaled_sweep(self, k_oracle):
        got = sf._k01e(FIT_GRID)
        for n in (0, 1):
            assert np.max(np.abs(got[n] / k_oracle[n][0] - 1.0)) <= 4e-15

    def test_array_sweep(self, k_oracle):
        # unscaled K_0 values are normal doubles up to x = 700
        normal = FIT_GRID <= 700.0
        ref = k_oracle[0][1][normal]
        assert np.max(np.abs(sf.k0_array(FIT_GRID[normal]) / ref - 1.0)) <= 4e-15

    def test_k0_series_band(self):
        # the log + psi series cancels like e^(2x) eps: 1e-14 up to x = 2.5,
        # up to about 3e-14 just below the switch at 3
        x = np.concatenate(
            [np.geomspace(1e-6, 2.5, 161), np.linspace(2.5, 3.0, 40)[1:]]
        )
        with mp.workdps(30):
            ref = np.array([float(mp.besselk(0, v)) for v in map(mp.mpf, x)])
        err = np.abs(sf.k0_array(x) / ref - 1.0)
        assert np.max(err[x <= 2.5]) <= 1e-14
        assert np.max(err) <= 5e-14


# coefficients of the x < 3 K_0 series, written out apart from specfun's table
K0_TERMS = 20
K0_I0_COEF = [1.0 / math.factorial(m) ** 2 for m in range(K0_TERMS)]
K0_PSI_COEF = [
    (sum(1.0 / k for k in range(1, m + 1)) - sf.EULER_GAMMA) / math.factorial(m) ** 2
    for m in range(K0_TERMS)
]


def k0_series_plain(x):
    """K_0 for x < 3 by the plain Horner form p = p * u + c, u = x^2/4."""
    u = x * x * 0.25
    pi0, pps = K0_I0_COEF[-1], K0_PSI_COEF[-1]
    for ci0, cps in zip(K0_I0_COEF[-2::-1], K0_PSI_COEF[-2::-1]):
        pi0 = pi0 * u + ci0
        pps = pps * u + cps
    return -np.log(0.5 * x) * pi0 + pps


class TestKSeries:
    def test_k0_array_bitwise_plain_horner(self):
        rng = np.random.default_rng(7)
        for shape in [(40000,), (129, 256)]:
            x = rng.uniform(1e-6, 3.0, shape)
            assert np.array_equal(sf.k0_array(x), k0_series_plain(x))

    def test_k0_array_leaves_input_unmodified(self):
        # shuffled arguments across the switch: the mixed zone is the array
        x = np.random.default_rng(5).uniform(0.01, 8.0, (40, 100))
        kept = x.copy()
        fresh = sf.k0_array(x)
        assert np.array_equal(x, kept)
        out, work = np.empty(x.size), np.empty((2, x.size))
        assert np.array_equal(sf.k0_array(x, out, work), fresh)
        assert np.array_equal(x, kept)

    @pytest.mark.parametrize("low, high", [(0.01, 8.0), (2.9, 3.1), (0.01, 2.9), (3.0, 9.0)])
    def test_k0_array_independent_of_order(self, low, high):
        # sorted input has no mixed zone, shuffled input is nearly all mixed
        rng = np.random.default_rng(11)
        x = np.sort(np.append(rng.uniform(low, high, 4001), [3.0, low + 1e-3]))
        perm = rng.permutation(x.size)
        assert np.array_equal(sf.k0_array(x[perm]), sf.k0_array(x)[perm])
        assert np.array_equal(sf.k0_array(x[::-1]), sf.k0_array(x)[::-1])
        grid = x[perm][:4000].reshape(40, 100)
        assert np.array_equal(sf.k0_array(grid), sf.k0_array(grid.ravel()).reshape(40, 100))

    def test_k01e_series_band(self):
        # both orders of the x < 3 series, bounds as for K_0 alone above
        x = np.concatenate(
            [np.geomspace(1e-6, 2.5, 161), np.linspace(2.5, 3.0, 40)[1:]]
        )
        got = sf._k01e(x)
        with mp.workdps(30):
            for n in (0, 1):
                ref = np.array(
                    [float(mp.besselk(n, v) * mp.exp(v)) for v in map(mp.mpf, x)]
                )
                err = np.abs(got[n] / ref - 1.0)
                assert np.max(err[x <= 2.5]) <= 1e-14
                assert np.max(err) <= 5e-14


class TestProduct:
    def test_oracle_value(self):
        got = sf.product_IK_array(1, np.array([1.0]))[1, 0]
        assert got == pytest.approx(I1K1_OF_1, rel=1e-11)

    def test_upper_bound_grid(self):
        xs = np.geomspace(0.01, 100.0, 60)
        P = sf.product_IK_array(64, xs)
        for n in range(1, 65):
            assert np.all(P[n] < 1.0 / (2 * n))
            assert np.all(P[n] > 0)

    def test_small_argument_limit(self):
        P = sf.product_IK_array(5, np.array([1e-8, 1e-7, 1e-6]))
        for n in [1, 2, 5]:
            np.testing.assert_allclose(P[n] * 2 * n, 1.0, rtol=1e-6)

    def test_monotone_decay_in_x(self):
        xs = np.geomspace(0.01, 100.0, 400)
        P = sf.product_IK_array(8, xs)
        for n in range(1, 9):
            assert np.all(np.diff(P[n]) < 0)


class TestIdentities:
    @pytest.mark.parametrize("n", range(0, 33))
    def test_wronskian_grid(self, n):
        assert np.max(wronskian_defect(n, LOG_GRID)) <= 1e-14

    def test_wronskian_specific(self):
        # x (I'K - IK') = 1 up to round-off at single points
        for n, x in [(2, 1.7), (0, 10.0), (5, 0.01)]:
            assert wronskian_defect(n, [x])[0] <= 1e-14

    @pytest.mark.parametrize("n", range(0, 33))
    def test_ratio_bounds_grid(self, n):
        assert ratio_bounds(n, LOG_GRID) == (True, True)

    def test_ratio_bounds_examples(self):
        assert ratio_bounds(3, [2.0]) == (True, True)
        assert ratio_bounds(0, [0.5]) == (True, True)
        assert ratio_bounds(20, [0.1]) == (True, True)

    @given(
        n=st.integers(min_value=1, max_value=24),
        x=st.floats(min_value=0.01, max_value=80.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_recurrence_consistency(self, n, x):
        # I_{n-1}(x) - I_{n+1}(x) = (2n/x) I_n(x), divided by I_n
        _, rho, _ = ratio_tables(n, [x])
        assert 1.0 / rho[n - 1, 0] - rho[n, 0] == pytest.approx(2 * n / x, rel=1e-12)

    @given(
        n=st.integers(min_value=1, max_value=24),
        x=st.floats(min_value=0.01, max_value=80.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_k_recurrence_consistency(self, n, x):
        # K_{n+1}(x) - K_{n-1}(x) = (2n/x) K_n(x), divided by K_n
        _, _, kappa = ratio_tables(n, [x])
        assert kappa[n, 0] - 1.0 / kappa[n - 1, 0] == pytest.approx(2 * n / x, rel=1e-12)

    def test_antiderivative_identity(self):
        # int_0^X u K_0(u) du = 1 - X K_1(X), composite Simpson quadrature
        for X in [0.5, 1.0, 3.0, 8.0]:
            n = 40001
            u = np.linspace(0.0, X, n)
            f = np.zeros_like(u)
            f[1:] = u[1:] * sf.k0_array(u[1:])
            w = np.ones(n)
            w[1:-1:2] = 4.0
            w[2:-1:2] = 2.0
            quad = (u[1] - u[0]) / 3.0 * (w * f).sum()
            assert quad == pytest.approx(1.0 - X * mp_besselk(1, X), abs=1e-8)

    def test_high_order_asymptotics(self):
        # uniform (Debye) expansion: 2 sqrt(nu^2 + x^2) I_nu(x) K_nu(x) -> 1
        # with a relative correction of order 1/nu^2 at nu = 60
        nu, x = 60, np.array([0.01, 1.0, 60.0])
        P = sf.product_IK_array(nu, x)[nu]
        np.testing.assert_allclose(2 * np.hypot(nu, x) * P, 1.0, rtol=1e-4)
