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


def check_wronskian(n, x):
    """|I_n'(x) K_n(x) - I_n(x) K_n'(x) - 1/x|, derivatives by recurrence.

    Evaluated in exponentially scaled form, hence valid for all x > 0.
    """
    n = sf._check_order(n)
    x = float(x)
    if x <= 0:
        raise DomainError("argument must be positive")
    iv, kv = sf._i_seq(n + 1, x), sf._k_seq(n + 1, x)
    im1 = iv[1] if n == 0 else iv[n - 1]
    km1 = kv[1] if n == 0 else kv[n - 1]
    ip = 0.5 * (im1 + iv[n + 1])
    kp = -0.5 * (km1 + kv[n + 1])
    return abs(ip * kv[n] - iv[n] * kp - 1.0 / x)


def check_ratio_bounds(n, x):
    """Strict ratio bounds x I_n'/I_n < sqrt(x^2+n^2) < -x K_n'/K_n.

    Returns (holds_for_I, holds_for_K); the contract is (True, True).
    """
    n = sf._check_order(n)
    x = float(x)
    if x <= 0:
        raise DomainError("argument must be positive")
    iv, kv = sf._i_seq(n + 1, x), sf._k_seq(n + 1, x)
    im1 = iv[1] if n == 0 else iv[n - 1]
    km1 = kv[1] if n == 0 else kv[n - 1]
    root = math.hypot(x, n)
    ratio_i = x * 0.5 * (im1 + iv[n + 1]) / iv[n]
    ratio_k = -x * 0.5 * (km1 + kv[n + 1]) / kv[n]
    return bool(ratio_i < root), bool(ratio_k < -root)

class TestBesselI:
    def test_zero_argument(self):
        assert sf.bessel_I(0, 0.0) == 1.0
        assert sf.bessel_I(1, 0.0) == 0.0
        assert sf.bessel_I(7, 0.0) == 0.0

    def test_series_oracle(self):
        assert sf.bessel_I(3, 2.5) == pytest.approx(I3_OF_2P5, rel=1e-12)

    def test_extreme_order_small_argument(self):
        assert sf.bessel_I(20, 0.1) == pytest.approx(I20_OF_0P1, rel=1e-12)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            sf.bessel_I(2, -1.0)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            sf.bessel_I(-1, 1.0)

    def test_scaled_consistency(self):
        x = 12.0
        assert sf.bessel_I(4, x, scaled=True) == pytest.approx(
            sf.bessel_I(4, x) * math.exp(-x), rel=1e-14
        )

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            sf.bessel_I(0, 701.0)
        assert sf.bessel_I(0, 701.0, scaled=True) > 0

    def test_switch_continuity(self):
        # I_0: the series and the large-argument expansion agree at x = 30
        x = np.array([sf._X_SWITCH_I_SERIES])
        series = sf._i_series_scaled(x)[0]
        expansion = sf._asy_scaled(x)[0] / math.sqrt(2 * math.pi * x[0])
        assert series == pytest.approx(expansion, rel=1e-14)

    @pytest.mark.parametrize("x", [2.5, 1e4, 1e6])
    def test_scalar_ratio_loop_matches_array(self, x):
        # the plain-float loop of the scalar functions runs the array
        # recurrence's operations in the same order
        scalar = sf._i_ratio_seq(5, x)
        array = sf._i_ratio_seq(5, np.array([x]))[:, 0]
        assert scalar.shape == (5,)
        assert np.array_equal(scalar, array)

    def test_scaled_sweep(self):
        # every order 0..64 is I_0 times a product of downward-recurrence ratios
        grid = np.geomspace(1e-3, 1e3, 61)
        with mp.workdps(30):
            ref = np.array(
                [[float(mp.besseli(n, x) * mp.exp(-x)) for n in range(65)]
                 for x in map(mp.mpf, grid)]
            )
        got = np.array([[sf.bessel_I(n, x, scaled=True) for n in range(65)] for x in grid])
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-14


class TestBesselK:
    def test_series_oracle(self):
        assert sf.bessel_K(2, 1.3) == pytest.approx(K2_OF_1P3, rel=1e-11)
        assert sf.bessel_K(0, 2.0) == pytest.approx(K0_OF_2, rel=1e-12)

    def test_log_behaviour_at_zero(self):
        # K_0(x) + log(x/2) -> -gamma
        for x in [1e-6, 1e-5]:
            assert sf.bessel_K(0, x) + math.log(x / 2) == pytest.approx(
                -sf.EULER_GAMMA, abs=1e-9
            )

    def test_large_argument_asymptotics(self):
        # K_n(x) sqrt(2x/pi) e^x -> 1; the first-order correction is
        # (4n^2-1)/(8x), so "within 2% at x = 50" holds for low orders and
        # higher orders need proportionally larger x.
        for n, x in [(0, 50.0), (1, 50.0), (3, 250.0)]:
            val = sf.bessel_K(n, x, scaled=True) * math.sqrt(2 * x / math.pi)
            assert val == pytest.approx(1.0, rel=0.02)

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.bessel_K(0, 0.0)
        with pytest.raises(DomainError):
            sf.bessel_K(0, -2.0)

    def test_switch_continuity(self):
        # the series and the Chebyshev fit agree to 1e-9 relative at x = 3
        x = np.array([3.0])
        series = sf._k01e_series(x)
        fit = sf._k01e_cheb(x)
        for a, b in zip(series, fit):
            assert a[0] == pytest.approx(b[0], rel=1e-9)

    def test_positive(self):
        for n in [0, 2, 9]:
            for x in [0.01, 1.0, 30.0]:
                assert sf.bessel_K(n, x) > 0


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
        for n in (0, 1):
            got = np.array([sf.bessel_K(n, x, scaled=True) for x in FIT_GRID])
            assert np.max(np.abs(got / k_oracle[n][0] - 1.0)) <= 4e-15

    def test_array_sweep(self, k_oracle):
        # unscaled values are normal doubles up to x = 700
        normal = FIT_GRID <= 700.0
        for n, fn in [(0, sf.k0_array), (1, sf.k1_array)]:
            ref = k_oracle[n][1][normal]
            assert np.max(np.abs(fn(FIT_GRID[normal]) / ref - 1.0)) <= 4e-15

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
        assert sf.product_IK(1, 1.0) == pytest.approx(I1K1_OF_1, rel=1e-11)

    def test_upper_bound_grid(self):
        xs = np.geomspace(0.01, 100.0, 60)
        P = sf.product_IK_array(64, xs)
        for n in range(1, 65):
            assert np.all(P[n] < 1.0 / (2 * n))
            assert np.all(P[n] > 0)

    def test_small_argument_limit(self):
        for n in [1, 2, 5]:
            for x in [1e-8, 1e-7, 1e-6]:
                assert sf.product_IK(n, x) * 2 * n == pytest.approx(1.0, rel=1e-6)

    def test_monotone_decay_in_x(self):
        xs = np.geomspace(0.01, 100.0, 400)
        P = sf.product_IK_array(8, xs)
        for n in range(1, 9):
            assert np.all(np.diff(P[n]) < 0)


class TestIdentities:
    @pytest.mark.parametrize("n", range(0, 33))
    def test_wronskian_grid(self, n):
        for x in LOG_GRID:
            assert check_wronskian(n, x) <= 1e-10 / x

    def test_wronskian_specific(self):
        # identity value I'K - IK' must equal 1/1.7 up to round-off
        n, x = 2, 1.7
        iv = sf.bessel_I_derivative(n, x) * sf.bessel_K(n, x)
        kv = sf.bessel_I(n, x) * sf.bessel_K_derivative(n, x)
        assert iv - kv == pytest.approx(1.0 / 1.7, rel=1e-13)
        assert check_wronskian(0, 10.0) < 1e-11
        assert check_wronskian(5, 0.01) < 1e-10 * 100

    @pytest.mark.parametrize("n", range(0, 33))
    def test_ratio_bounds_grid(self, n):
        for x in LOG_GRID:
            assert check_ratio_bounds(n, x) == (True, True)

    def test_ratio_bounds_examples(self):
        assert check_ratio_bounds(3, 2.0) == (True, True)
        assert check_ratio_bounds(0, 0.5) == (True, True)
        assert check_ratio_bounds(20, 0.1) == (True, True)

    @given(
        n=st.integers(min_value=1, max_value=24),
        x=st.floats(min_value=0.01, max_value=80.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_recurrence_consistency(self, n, x):
        # I_{n-1}(x) - I_{n+1}(x) = (2n/x) I_n(x)
        lhs = sf.bessel_I(n - 1, x) - sf.bessel_I(n + 1, x)
        rhs = (2 * n / x) * sf.bessel_I(n, x)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @given(
        n=st.integers(min_value=1, max_value=24),
        x=st.floats(min_value=0.01, max_value=80.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_k_recurrence_consistency(self, n, x):
        # K_{n+1}(x) - K_{n-1}(x) = (2n/x) K_n(x)
        lhs = sf.bessel_K(n + 1, x, scaled=True) - sf.bessel_K(n - 1, x, scaled=True)
        rhs = (2 * n / x) * sf.bessel_K(n, x, scaled=True)
        assert lhs == pytest.approx(rhs, rel=1e-10)

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
            assert quad == pytest.approx(1.0 - X * sf.bessel_K(1, X), abs=1e-8)

    def test_high_order_asymptotics(self):
        # I_nu(x) sqrt(2 pi nu) (2 nu/(e x))^nu -> 1, within 5% at nu = 60
        nu, x = 60, 1.0
        val = sf.bessel_I(nu, x)
        pred = math.exp(
            0.5 * math.log(2 * math.pi * nu) + nu * math.log(2 * nu / (math.e * x))
        )
        assert val * pred == pytest.approx(1.0, rel=0.05)


class TestBesselEvalType:
    def test_flag_unscaled(self):
        ev = sf.bessel_ik(2, 10.0)
        assert not ev.scaled
        assert ev.value_I > 0 and ev.value_K > 0

    def test_flag_scaled(self):
        ev = sf.bessel_ik(2, 800.0)
        assert ev.scaled
        assert ev.value_I > 0 and ev.value_K > 0

    def test_symmetry_convention(self):
        # I_{-n} = I_n is the convention used by the derivative recurrences
        assert sf.bessel_I_derivative(0, 1.3) == pytest.approx(
            sf.bessel_I(1, 1.3), rel=1e-14
        )
