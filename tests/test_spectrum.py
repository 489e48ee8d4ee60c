"""Tests for the frequency formulas and their analytic properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import iv, kv

from vortexalpha import spectrum as sp
from vortexalpha.errors import DomainError

# Frozen via tests/oracles.py (300-term series products, 50-digit mpmath).
OMEGA_SW_4_2 = 0.11108015153159563
OMEGA_BIF_2_1 = 0.13039474333169874
OMEGA_BIF_3_1 = 0.15058379422661803
OMEGA_INF_1 = 0.15982664909513248


class TestOmegaSW:
    def test_collapses_at_m1(self):
        for lam in [0.1, 1.0, 7.0]:
            assert sp.omega_sw(1, lam) == 0.0

    def test_small_lambda_limit(self):
        for m in [2, 3, 6]:
            assert sp.omega_sw(m, 1e-6) == pytest.approx(
                (m - 1) / (2 * m), abs=1e-4
            )

    def test_oracle_value(self):
        assert sp.omega_sw(4, 2.0) == pytest.approx(OMEGA_SW_4_2, rel=1e-11)

    def test_nonnegative(self):
        for m in [2, 5, 9]:
            for lam in [0.05, 1.0, 20.0]:
                assert sp.omega_sw(m, lam) > 0


class TestOmegaBifurcation:
    def test_m1_trivial(self):
        for alpha in [0.1, 1.0, 10.0]:
            assert sp.omega_bifurcation(1, alpha) == 0.0

    def test_euler_limit_small_alpha(self):
        for m in range(2, 9):
            assert sp.omega_bifurcation(m, 1e-3) == pytest.approx(
                (m - 1) / (2 * m), abs=1e-3
            )

    def test_large_m_limit(self):
        assert sp.omega_bifurcation(200, 1.0) == pytest.approx(
            sp.omega_infinity(1.0), abs=1e-3
        )

    def test_oracle_values(self):
        assert sp.omega_bifurcation(2, 1.0) == pytest.approx(OMEGA_BIF_2_1, rel=1e-12)
        assert sp.omega_bifurcation(3, 1.0) == pytest.approx(OMEGA_BIF_3_1, rel=1e-12)
        assert sp.omega_infinity(1.0) == pytest.approx(OMEGA_INF_1, rel=1e-12)

    def test_superposition_identity(self):
        # exact superposition of the Euler and screened pieces
        for m in [2, 3, 7]:
            for alpha in [0.4, 1.0, 2.5]:
                assert sp.omega_bifurcation(m, alpha) == (m - 1) / (2 * m) - sp.omega_sw(
                    m, 1.0 / alpha
                )

    def test_range(self):
        # 0 <= value < Omega_inf(alpha)
        for alpha in [0.3, 1.0, 4.0]:
            lim = sp.omega_infinity(alpha)
            for m in range(1, 30):
                v = sp.omega_bifurcation(m, alpha)
                assert 0.0 <= v < lim


class TestMonotonicity:
    @pytest.mark.parametrize("alpha,m_max", [(1.0, 64), (0.05, 64), (10.0, 256)])
    def test_strictly_increasing(self, alpha, m_max):
        assert sp.check_monotonicity(alpha, m_max)

    def test_requires_m2(self):
        with pytest.raises(DomainError):
            sp.check_monotonicity(1.0, 1)

    @given(alpha=st.floats(min_value=0.05, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_for_random_alpha(self, alpha):
        assert sp.check_monotonicity(alpha, 32)


class TestEquilibriumFrequencies:
    def test_singleton_reduces_to_offset(self):
        for alpha in [0.5, 1.0, 3.0]:
            fv = sp.equilibrium_frequencies((1,), 0.7, alpha)
            assert fv.components[0] == pytest.approx(0.7, rel=1e-15)

    def test_pairwise_gaps(self):
        Om = 0.5
        S = (2, 3, 5)
        for alpha in np.linspace(0.5, 2.0, 9):
            fv = sp.equilibrium_frequencies(S, Om, alpha)
            for a in range(3):
                for b in range(a + 1, 3):
                    gap = abs(fv.components[b] - fv.components[a])
                    assert gap >= Om * abs(S[b] - S[a]) - 1e-13

    def test_lower_bound(self):
        Om = 0.5
        for alpha in [0.5, 1.0, 2.0]:
            for j in [1, 2, 7, -3]:
                v = sp.equilibrium_frequency(j, Om, alpha)
                assert abs(v) >= Om * abs(j) - 1e-14

    def test_asymptotic_slope(self):
        # Omega_j / j -> V_0(alpha) with defect I_j K_j ~ 1/(2j)
        Om, alpha = 0.5, 1.0
        v0 = Om + sp.omega_infinity(alpha)
        val = sp.equilibrium_frequency(500, Om, alpha) / 500
        assert abs(val - v0) <= 1e-3

    def test_odd_symmetry(self):
        for j in [1, 4, 9]:
            assert sp.equilibrium_frequency(-j, 0.5, 1.2) == -sp.equilibrium_frequency(
                j, 0.5, 1.2
            )

    def test_strictly_increasing_components(self):
        fv = sp.equilibrium_frequencies((2, 3, 5, 11), 0.5, 1.0)
        assert np.all(np.diff(fv.components) > 0)

    def test_matrix_rows_match_scalar_frequencies(self):
        js = [2, -3, 0, 7, 1]
        grid = np.linspace(0.3, 2.0, 9)
        W = sp.equilibrium_matrix(js, 0.5, grid)
        ref = np.array([[sp.equilibrium_frequency(j, 0.5, a) for a in grid] for j in js])
        np.testing.assert_allclose(W, ref, rtol=1e-14, atol=0.0)
        v0 = [0.5 + sp.omega_infinity(a) for a in grid]
        np.testing.assert_allclose(sp.v0_curve(0.5, grid), v0, rtol=1e-14)

    def test_invalid_sets(self):
        for S in [(), (0, 1), (3, 2), (2, 2)]:
            with pytest.raises(DomainError):
                sp.equilibrium_frequencies(S, 0.5, 1.0)
        with pytest.raises(DomainError):
            sp.equilibrium_frequencies((1, 2), -0.5, 1.0)


class TestTransversality:
    def test_pure_margin_positive(self):
        m = sp.transversality_margin((2,), 0.5, [1], "pure", (0.5, 1.5), 3)
        assert m > 0

    def test_pure_zero_l_rejected(self):
        with pytest.raises(DomainError):
            sp.transversality_margin((2,), 0.5, [0], "pure", (0.5, 1.5), 3)

    def test_difference_margin_positive(self):
        m = sp.transversality_margin(
            (2, 3), 0.5, [1, -1], "difference", (0.5, 1.5), 3, j=5, j0=7
        )
        assert m > 0

    def test_difference_degenerate_rejected(self):
        with pytest.raises(DomainError):
            sp.transversality_margin(
                (2, 3), 0.5, [0, 0], "difference", (0.5, 1.5), 3, j=5, j0=5
            )

    def test_plus_variants_positive(self):
        m1 = sp.transversality_margin(
            (2, 3), 0.5, [1, 1], "plus_jV0", (0.5, 1.5), 3, j=4
        )
        m2 = sp.transversality_margin(
            (2, 3), 0.5, [2, -1], "plus_Omega_j", (0.5, 1.5), 3, j=-6
        )
        assert m1 > 0 and m2 > 0

    def test_j_inside_set_rejected(self):
        with pytest.raises(DomainError):
            sp.transversality_margin(
                (2, 3), 0.5, [1, 0], "plus_Omega_j", (0.5, 1.5), 3, j=3
            )

    def test_margin_stable_under_grid_doubling(self):
        kw = dict(j=5, j0=7)
        m1 = sp.transversality_margin(
            (2, 3), 0.5, [1, -1], "difference", (0.5, 1.5), 3, npts=2001, **kw
        )
        m2 = sp.transversality_margin(
            (2, 3), 0.5, [1, -1], "difference", (0.5, 1.5), 3, npts=4001, **kw
        )
        assert abs(m1 - m2) <= 0.05 * max(m1, m2)

    def test_report_fields(self):
        rep = sp.transversality_report((2,), 0.5, [1], "pure", (0.5, 1.5), 2)
        assert rep.margin > 0
        assert rep.grid_size == 2001
        assert 0.5 <= rep.argmin_alpha <= 1.5

    def test_derivative_bound_constant(self):
        # C_0 |j - j0| bound: the normalized constant stays bounded in j
        consts = [
            sp.difference_derivative_bound(j, 2, 0.5, (0.5, 1.5), 3, npts=801)
            for j in [3, 10, 50, 200]
        ]
        assert all(np.isfinite(c) for c in consts)
        assert max(consts) <= 3.0 * min(c for c in consts if c > 0)

    @pytest.mark.parametrize("interval", [(0.5, 0.5), (1.5, 0.5), (0.0, 1.0), (-0.2, 1.0)])
    def test_derivative_bound_rejects_bad_interval(self, interval):
        with pytest.raises(DomainError):
            sp.difference_derivative_bound(5, 2, 0.5, interval, 3)

    def test_report_rejects_fewer_than_two_nodes(self):
        # npts = 1 would divide by zero; npts = 0 leaves no node to minimise over
        for npts in (0, 1):
            with pytest.raises(DomainError):
                sp.transversality_report((2,), 0.5, [1], "pure", (0.5, 1.5), 2, npts=npts)
        rep = sp.transversality_report((2,), 0.5, [1], "pure", (0.5, 1.5), 2, npts=2)
        assert rep.grid_size == 2 and rep.margin > 0

    def test_derivative_bound_rejects_fewer_than_two_nodes(self):
        for npts in (0, 1):
            with pytest.raises(DomainError):
                sp.difference_derivative_bound(5, 2, 0.5, (0.5, 1.5), 3, npts=npts)
        assert np.isfinite(sp.difference_derivative_bound(5, 2, 0.5, (0.5, 1.5), 3, npts=2))


def _omega_complex(j, Omega, alpha):
    """Omega_j^E at complex alpha from scipy's I_n, K_n (no code shared with specfun)."""
    x, m = 1.0 / alpha, abs(j)
    return j * (Omega + (m - 1) / (2.0 * m) - (iv(1, x) * kv(1, x) - iv(m, x) * kv(m, x)))


def _combination_complex(case, alpha):
    S, Omega, l, variant, j, j0 = case
    f = sum(lk * _omega_complex(s, Omega, alpha) for lk, s in zip(l, S))
    if variant == "plus_jV0":
        x = 1.0 / alpha
        f = f + j * (Omega + 0.5 - iv(1, x) * kv(1, x))
    elif variant == "plus_Omega_j":
        f = f + _omega_complex(j, Omega, alpha)
    elif variant == "difference":
        f = f + _omega_complex(j, Omega, alpha) - _omega_complex(j0, Omega, alpha)
    return f


def cauchy_envelope(case, alpha, q0, n=128):
    """max_{q <= q0} |f^(q)(alpha)| from Cauchy integrals on |z - alpha| = rho."""
    rho = min(alpha / 2.0, 0.2)
    theta = 2.0 * np.pi * np.arange(n) / n
    vals = _combination_complex(case, alpha + rho * np.exp(1j * theta))
    best = abs(_combination_complex(case, alpha).real)
    for q in range(1, q0 + 1):
        dq = math.factorial(q) / rho**q * np.mean(vals * np.exp(-1j * q * theta))
        best = max(best, abs(dq.real))
    return best


# one case per variant; l = (1, -2, 1) cancels every constant, so f -> 0 as
# alpha grows and the derivatives at the right end are small
ENVELOPE_CASES = [
    ((2, 3, 4), 0.5, (1, -2, 1), "pure", None, None),
    ((2, 3, 4), 0.5, (1, 1, -1), "plus_jV0", 3, None),
    ((2, 3, 4), 0.5, (2, -1, 0), "plus_Omega_j", 5, None),
    ((2, 3), 0.5, (1, -1), "difference", 5, 7),
]


class TestDerivativeAccuracy:
    """The q0 = 4 envelope against Cauchy-integral derivatives of the closed form."""

    @pytest.mark.parametrize(
        "interval,rtol", [((0.3, 0.7), 1e-6), ((0.5, 1.5), 1e-6), ((0.1, 2.0), 1e-4)]
    )
    @pytest.mark.parametrize("case", ENVELOPE_CASES, ids=lambda c: c[3])
    def test_envelope_matches_cauchy_oracle(self, case, interval, rtol):
        S, Omega, l, variant, j, j0 = case
        modes, coef, v0_coef = list(S), list(l), 0.0
        if variant == "plus_jV0":
            v0_coef = j
        elif variant == "plus_Omega_j":
            modes, coef = modes + [j], coef + [1]
        elif variant == "difference":
            modes, coef = modes + [j, -j0], coef + [1, 1]
        coef = np.array(coef, dtype=float)

        def f_on(grid):
            W = sp.equilibrium_matrix(modes, Omega, grid)
            return coef @ W + v0_coef * sp.v0_curve(Omega, grid)

        alphas, _, best = sp._derivative_envelope(f_on, interval, 4, 2001)
        nodes = np.arange(0, 2001, 50)
        ref = np.array([cauchy_envelope(case, a, 4) for a in alphas[nodes]])
        assert np.max(np.abs(best[nodes] - ref) / ref) <= rtol

        rep = sp.transversality_report(S, Omega, l, variant, interval, 4, j=j, j0=j0)
        ref = cauchy_envelope(case, rep.argmin_alpha, 4) / max(1, sum(map(abs, l)))
        assert rep.margin == pytest.approx(ref, rel=rtol)


def nondegeneracy_by_sample_loop(S, Omega, alpha_interval, augment, n_samples=48):
    """The per-sample scalar loop over the frequency curve, kept as an oracle."""

    def curve(a):
        comps = [sp.equilibrium_frequency(jk, Omega, a) for jk in S]
        if augment in ("V0", "V0_and_1"):
            comps.append(Omega + sp.omega_infinity(a))
        if augment == "V0_and_1":
            comps.append(1.0)
        return comps

    return sp.smallest_singular_value(
        curve, alpha_interval, n_samples, center=(augment != "V0_and_1")
    )


class TestNondegeneracy:
    @pytest.mark.parametrize("augment", ["none", "V0", "V0_and_1"])
    @pytest.mark.parametrize("S,interval", [((2, 3, 4), (0.3, 0.7)), ((2, 5), (0.5, 2.0))])
    def test_matches_sample_loop(self, S, interval, augment):
        s = sp.check_nondegeneracy(S, 0.5, interval, augment=augment)
        ref = nondegeneracy_by_sample_loop(S, 0.5, interval, augment)
        assert s == pytest.approx(ref, rel=1e-12)

    def test_positive_for_frequency_curve(self):
        s = sp.check_nondegeneracy((2, 3), 0.5, (0.5, 2.0), augment="none")
        assert s > 0

    def test_affine_control_is_degenerate(self):
        s = sp.smallest_singular_value(
            lambda a: [a, 2 * a + 1.0], (0.5, 2.0), 32, center=True
        )
        assert s < 1e-12

    def test_augmented_positive(self):
        s = sp.check_nondegeneracy((2, 3, 4), 0.5, (0.5, 2.0), augment="V0_and_1")
        assert s > 0

    def test_invalid_augment(self):
        with pytest.raises(DomainError):
            sp.check_nondegeneracy((2,), 0.5, (0.5, 2.0), augment="bogus")
