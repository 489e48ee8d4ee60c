"""Tests for the frequency formulas and their analytic properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import iv, kv

from vortexalpha import specfun
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

    def test_is_the_table_row(self):
        # one code path: the scalar is row m of the table, bitwise
        for alpha in np.geomspace(0.02, 20.0, 30):
            for m in range(1, 41):
                assert sp.omega_bifurcation(m, alpha) == sp.bifurcation_table(m, [alpha])[m - 1, 0]

    def test_range(self):
        # 0 <= value < Omega_inf(alpha)
        for alpha in [0.3, 1.0, 4.0]:
            lim = sp.omega_infinity(alpha)
            for m in range(1, 30):
                v = sp.omega_bifurcation(m, alpha)
                assert 0.0 <= v < lim


class TestMonotonicity:
    """m -> omega_bifurcation(m, alpha) strictly increases along the table."""

    @pytest.mark.parametrize("alpha,m_max", [(1.0, 64), (0.05, 64), (10.0, 256)])
    def test_strictly_increasing(self, alpha, m_max):
        table = sp.bifurcation_table(m_max, [alpha])[:, 0]
        assert np.all(np.diff(table) > 0)

    @given(alpha=st.floats(min_value=0.05, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_for_random_alpha(self, alpha):
        table = sp.bifurcation_table(32, [alpha])[:, 0]
        assert np.all(np.diff(table) > 0)


class TestEquilibriumFrequencies:
    def test_singleton_reduces_to_offset(self):
        W = sp.equilibrium_matrix([1], 0.7, [0.5, 1.0, 3.0])
        np.testing.assert_allclose(W[0], 0.7, rtol=1e-15)

    def test_pairwise_gaps(self):
        Om = 0.5
        S = (2, 3, 5)
        W = sp.equilibrium_matrix(S, Om, np.linspace(0.5, 2.0, 9))
        for a in range(3):
            for b in range(a + 1, 3):
                gap = np.abs(W[b] - W[a])
                assert np.all(gap >= Om * abs(S[b] - S[a]) - 1e-13)

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
        W = sp.equilibrium_matrix((2, 3, 5, 11), 0.5, [1.0])[:, 0]
        assert np.all(np.diff(W) > 0)

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
                sp.check_nondegeneracy(S, 0.5, (0.5, 1.0))
            with pytest.raises(DomainError):
                sp.transversality_report(S, 0.5, [1] * len(S), "pure", (0.5, 1.0), 2)

    @pytest.mark.parametrize("Omega", [-0.5, 0.0, math.nan, math.inf])
    def test_offset_must_be_positive_and_finite(self, Omega):
        with pytest.raises(DomainError):
            sp.transversality_report((2, 3), Omega, [1, -1], "pure", (0.5, 1.5), 2)
        with pytest.raises(DomainError):
            sp.check_nondegeneracy((2, 3), Omega, (0.5, 1.5))
        with pytest.raises(DomainError):
            sp.v0_curve(Omega, [1.0])


class TestTransversality:
    def test_pure_margin_positive(self):
        m = sp.transversality_report((2,), 0.5, [1], "pure", (0.5, 1.5), 3).margin
        assert m > 0

    def test_pure_zero_l_rejected(self):
        with pytest.raises(DomainError):
            sp.transversality_report((2,), 0.5, [0], "pure", (0.5, 1.5), 3)

    def test_difference_margin_positive(self):
        m = sp.transversality_report(
            (2, 3), 0.5, [1, -1], "difference", (0.5, 1.5), 3, j=5, j0=7
        ).margin
        assert m > 0

    def test_difference_degenerate_rejected(self):
        with pytest.raises(DomainError):
            sp.transversality_report(
                (2, 3), 0.5, [0, 0], "difference", (0.5, 1.5), 3, j=5, j0=5
            )

    def test_plus_variants_positive(self):
        m1 = sp.transversality_report(
            (2, 3), 0.5, [1, 1], "plus_jV0", (0.5, 1.5), 3, j=4
        ).margin
        m2 = sp.transversality_report(
            (2, 3), 0.5, [2, -1], "plus_Omega_j", (0.5, 1.5), 3, j=-6
        ).margin
        assert m1 > 0 and m2 > 0

    def test_j_inside_set_rejected(self):
        with pytest.raises(DomainError):
            sp.transversality_report(
                (2, 3), 0.5, [1, 0], "plus_Omega_j", (0.5, 1.5), 3, j=3
            )

    def test_margin_stable_under_grid_doubling(self):
        kw = dict(j=5, j0=7)
        m1 = sp.transversality_report(
            (2, 3), 0.5, [1, -1], "difference", (0.5, 1.5), 3, npts=2001, **kw
        ).margin
        m2 = sp.transversality_report(
            (2, 3), 0.5, [1, -1], "difference", (0.5, 1.5), 3, npts=4001, **kw
        ).margin
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


def affine_form(case):
    """(c, w) of the case's f = c + sum_n w[n-1] I_n K_n(1/alpha), and its terms.

    The terms are (modes, coef, v0_coef) with
    f = sum_k coef[k] Omega_{modes[k]}^E + v0_coef V_0.
    """
    S, Omega, l, variant, j, j0 = case
    modes, coef, v0_coef = list(S), list(l), 0
    if variant == "plus_jV0":
        v0_coef = j
    elif variant == "plus_Omega_j":
        modes, coef = modes + [j], coef + [1]
    elif variant == "difference":
        modes, coef = modes + [j, -j0], coef + [1, 1]
    return sp._affine_form(modes, coef, v0_coef, Omega), (modes, coef, v0_coef)


# one case per variant; l = (1, -2, 1) cancels every constant, so f -> 0 as
# alpha grows and the derivatives at the right end are small
ENVELOPE_CASES = [
    ((2, 3, 4), 0.5, (1, -2, 1), "pure", None, None),
    ((2, 3, 4), 0.5, (1, 1, -1), "plus_jV0", 3, None),
    ((2, 3, 4), 0.5, (2, -1, 0), "plus_Omega_j", 5, None),
    ((2, 3), 0.5, (1, -1), "difference", 5, 7),
]
# zero and negative modes, which the frequency rows take and the margins do not
FREQUENCY_ROW_CASES = [
    pytest.param(((0, -2, 3), 0.5, (1, 2, -1), "pure", None, None), id="pure_zero_negative"),
    pytest.param(((-1, 0, 4), 0.7, (3, 1, 1), "plus_Omega_j", -5, None), id="plus_j_negative"),
    pytest.param(((-3, 2), 0.5, (1, -2), "difference", -4, 0), id="difference_zero"),
]


class TestDerivativeAccuracy:
    """The envelope against Cauchy-integral derivatives of the closed form."""

    # the error grows fast with q0 (see transversality_report): 2.2e-5 at
    # q0 = 6 on (0.3, 0.7), against 6.1e-8 at q0 = 4
    @pytest.mark.parametrize(
        "interval,q0,rtol",
        [
            ((0.3, 0.7), 4, 1e-6), ((0.5, 1.5), 4, 1e-6), ((0.1, 2.0), 4, 1e-4),
            ((0.3, 0.7), 6, 1e-4),
        ],
    )
    @pytest.mark.parametrize("case", ENVELOPE_CASES, ids=lambda c: c[3])
    def test_envelope_matches_cauchy_oracle(self, case, interval, q0, rtol):
        S, Omega, l, variant, j, j0 = case
        (const, weights), _ = affine_form(case)
        best = sp._derivative_envelope(const, weights, interval, q0, 2001)
        nodes = np.arange(0, 2001, 50)
        alphas = interval[0] + (interval[1] - interval[0]) / 2000 * nodes
        ref = np.array([cauchy_envelope(case, a, q0) for a in alphas])
        assert np.max(np.abs(best[nodes] - ref) / ref) <= rtol

        rep = sp.transversality_report(S, Omega, l, variant, interval, q0, j=j, j0=j0)
        ref = cauchy_envelope(case, rep.argmin_alpha, q0) / max(1, sum(map(abs, l)))
        assert rep.margin == pytest.approx(ref, rel=rtol)

    @pytest.mark.parametrize("case", ENVELOPE_CASES + FREQUENCY_ROW_CASES, ids=lambda c: c[3])
    def test_affine_form_matches_frequency_rows(self, case):
        (const, weights), (modes, coef, v0_coef) = affine_form(case)
        Omega = case[1]
        grid = np.linspace(0.1, 2.0, 41)
        P = specfun.product_IK_array(weights.size, 1.0 / grid)[1:]
        ref = np.array(coef, dtype=float) @ sp.equilibrium_matrix(modes, Omega, grid)
        ref += v0_coef * sp.v0_curve(Omega, grid)
        np.testing.assert_allclose(const + weights @ P, ref, rtol=0, atol=1e-14)


def nondegeneracy_by_sample_loop(S, Omega, alpha_interval, augment, n_samples=48):
    """Smallest singular value from a per-sample scalar loop over the curve."""
    rows = []
    for a in np.linspace(*alpha_interval, n_samples):
        comps = [sp.equilibrium_frequency(jk, Omega, a) for jk in S]
        if augment in ("V0", "V0_and_1"):
            comps.append(Omega + sp.omega_infinity(a))
        if augment == "V0_and_1":
            comps.append(1.0)
        rows.append(comps)
    A = np.array(rows)
    if augment != "V0_and_1":
        A = A - A.mean(axis=0)
    return float(np.linalg.svd(A, compute_uv=False)[-1])


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
        # Omega_1^E = Omega for every alpha: a constant curve, zero once
        # centered, and parallel to the constant-1 column uncentered
        for augment in ("none", "V0_and_1"):
            assert sp.check_nondegeneracy((1,), 0.5, (0.5, 2.0), augment=augment) < 1e-12

    def test_augmented_positive(self):
        s = sp.check_nondegeneracy((2, 3, 4), 0.5, (0.5, 2.0), augment="V0_and_1")
        assert s > 0

    def test_invalid_augment(self):
        with pytest.raises(DomainError):
            sp.check_nondegeneracy((2,), 0.5, (0.5, 2.0), augment="bogus")


# alpha = inf must be named as alpha, not fail deeper as a Bessel argument
INFINITE_ALPHA = [
    lambda: sp.omega_bifurcation(2, math.inf),
    lambda: sp.omega_infinity(math.inf),
    lambda: sp.bifurcation_table(3, [0.5, math.inf]),
    lambda: sp.equilibrium_matrix([2], 0.5, [math.inf]),
]


class TestArgumentValidation:
    """Bad arguments raise DomainError at entry, not a bare error or a wrong value."""

    @pytest.mark.parametrize(
        "kw",
        [
            dict(npts=2.5),
            dict(q0=2.5),
            dict(q0=math.nan),
            dict(l=(math.nan, -1)),
            dict(l=(1.5, -1)),
            dict(l=(1, -1, 0)),
            dict(S=(2.5, 3)),
            dict(alpha_interval=(0.3, math.inf)),
            dict(alpha_interval=(math.nan, 0.7)),
            dict(alpha_interval=(0.3,)),
            dict(variant="plus_Omega_j", j=5.5),
            dict(variant="difference", j=5, j0=math.nan),
            dict(j=5),
            dict(j0=7),
            dict(variant="plus_jV0", j=5, j0=7),
            dict(variant="plus_Omega_j", j=5, j0=7),
        ],
        ids=repr,
    )
    def test_report_rejects(self, kw):
        args = dict(S=(2, 3), Omega=0.5, l=(1, -1), variant="pure",
                    alpha_interval=(0.3, 0.7), q0=2)
        args.update(kw)
        with pytest.raises(DomainError):
            sp.transversality_report(**args)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(q0=-1),
            dict(q0=1.5),
            dict(npts=2.5),
            dict(j=5.5),
            dict(alpha_interval=(0.3, math.inf)),
        ],
        ids=repr,
    )
    def test_derivative_bound_rejects(self, kw):
        args = dict(j=5, j0=2, Omega=0.5, alpha_interval=(0.5, 1.5), q0=3)
        args.update(kw)
        with pytest.raises(DomainError):
            sp.difference_derivative_bound(**args)

    def test_integral_floats_are_accepted(self):
        ref = sp.transversality_report((2, 3), 0.5, (1, -1), "pure", (0.3, 0.7), 2, npts=201)
        rep = sp.transversality_report(
            (2.0, 3), 0.5, (1.0, -1), "pure", (0.3, 0.7), 2.0, npts=201.0
        )
        assert rep == ref and type(rep.grid_size) is int and type(rep.q0) is int

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sp.bifurcation_table(3, [math.nan]),
            lambda: sp.bifurcation_table(0, [0.5]),
            lambda: sp.bifurcation_table(2.5, [0.5]),
            lambda: sp.omega_bifurcation(2, math.nan),
            lambda: sp.omega_bifurcation(math.nan, 0.5),
            lambda: sp.omega_infinity(math.nan),
            lambda: sp.omega_sw(2, math.nan),
            lambda: sp.omega_sw(2, math.inf),
            lambda: sp.equilibrium_frequency(2.5, 0.5, 0.5),
            lambda: sp.equilibrium_frequency(2, -0.5, 0.5),
            lambda: sp.equilibrium_frequency(0, math.nan, -1.0),
            lambda: sp.equilibrium_frequency(2, 0.5, math.inf),
            lambda: sp.check_nondegeneracy((2, 3), 0.5, (0.3, math.inf)),
            lambda: sp.equilibrium_matrix([2], 0.5, [math.nan]),
            lambda: sp.equilibrium_matrix([2.5], 0.5, [0.5]),
            lambda: sp.v0_curve(0.5, [0.5, math.nan]),
            *INFINITE_ALPHA,
        ],
    )
    def test_frequency_tables_reject(self, call):
        with pytest.raises(DomainError, match="alpha" if call in INFINITE_ALPHA else None):
            call()

    @pytest.mark.parametrize(
        "augment,n_samples",
        [("none", 0), ("none", 1), ("none", 3), ("V0", 4), ("V0_and_1", 5), ("none", 10.5)],
    )
    def test_nondegeneracy_rejects_too_few_samples(self, augment, n_samples):
        # S = (2, 3, 4): 3 columns, plus V_0 and the constant 1 by augment
        with pytest.raises(DomainError):
            sp.check_nondegeneracy((2, 3, 4), 0.5, (0.3, 0.7), augment, n_samples=n_samples)

    def test_nondegeneracy_accepts_one_more_sample_than_columns(self):
        assert sp.check_nondegeneracy((2, 3, 4), 0.5, (0.3, 0.7), "V0_and_1", n_samples=6) > 0


def _clear_margin_caches():
    sp._derivative_basis.cache_clear()
    sp._node_table.cache_clear()


VARIANT_ARGS = [
    ((2, 3, 4), (1, -2, 1), "pure", {}),
    ((2, 3, 4), (1, 1, -1), "plus_jV0", dict(j=3)),
    ((2, 3, 4), (2, -1, 0), "plus_Omega_j", dict(j=5)),
    ((2, 3), (1, -1), "difference", dict(j=5, j0=7)),
]


class TestMarginCache:
    """Reports on one interval share the fitted basis and node-table blocks."""

    # 20001 nodes of 28 floats are 3 node blocks, all kept
    @pytest.mark.parametrize("npts", [2001, 20001])
    def test_warm_report_fits_nothing(self, monkeypatch, npts):
        args = ((2, 3, 4), 0.5, (1, -1, 1), "plus_Omega_j", (0.3, 0.7), 4)
        sp.transversality_report(*args, j=6, npts=npts)
        calls = []

        def counted(fn):
            def wrapper(*a, **k):
                calls.append(fn.__name__)
                return fn(*a, **k)
            return wrapper

        monkeypatch.setattr(specfun, "product_IK_array", counted(specfun.product_IK_array))
        monkeypatch.setattr(sp, "_chebyshev_table", counted(sp._chebyshev_table))
        sp.transversality_report(*args, j=-6, npts=npts)
        sp.transversality_report(
            (2, 3, 4), 0.45, (0, 2, -1), "plus_Omega_j", (0.3, 0.7), 4, j=6, npts=npts
        )
        assert calls == []

    def test_omega_values_share_one_entry(self):
        _clear_margin_caches()
        for Omega in (0.5, 0.45, 0.55):
            sp.transversality_report((2, 3), Omega, (1, -1), "pure", (0.3, 0.7), 4)
        for cache in (sp._derivative_basis, sp._node_table):
            info = cache.cache_info()
            assert (info.currsize, info.misses, info.hits) == (1, 1, 2)

    @pytest.mark.parametrize("S,l,variant,kw", VARIANT_ARGS, ids=lambda v: str(v))
    def test_cache_hit_equals_cold_call(self, S, l, variant, kw):
        args = (S, 0.5, l, variant, (0.3, 0.7), 4)
        sp.transversality_report(*args, **kw)
        warm = sp.transversality_report(*args, **kw)
        _clear_margin_caches()
        cold = sp.transversality_report(*args, **kw)
        assert warm == cold

    def test_cached_arrays_are_read_only_and_caches_bounded(self):
        D = sp._derivative_basis(0.3, 0.7, 4, 1, 6)
        T = sp._node_table(0.3, 0.7, 2001, 0)
        assert D.shape == (6, 5, 28) and T.shape == (28, 2001)
        for a in (D, T):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
        for cache in (sp._derivative_basis, sp._node_table):
            assert cache.cache_info().maxsize == 4

    @pytest.mark.parametrize("entries", [2**18, 2**12, 100])
    @pytest.mark.parametrize(
        "interval,npts", [((0.3, 0.7), 2001), ((0.3, 0.7), 20001), ((0.1, 2.0), 2001)]
    )
    def test_retained_memory_is_bounded(self, monkeypatch, entries, interval, npts):
        # at most 4 blocks of at most 2 MiB in each cache: 16 MiB in all
        assert 2 * 4 * 8 * sp._CACHED_ENTRIES <= 16 * 2**20
        args = ((2, 3, 4), 0.5, (1, -2, 1), "plus_Omega_j", interval, 4)
        kept = sp.transversality_report(*args, j=9, npts=npts)
        caches = (sp._derivative_basis, sp._node_table)
        built = {cache: [] for cache in caches}
        for cache in caches:

            def recorded(*key, cache=cache):
                block = cache(*key)
                built[cache].append(block.size)
                return block

            monkeypatch.setattr(sp, cache.__name__, recorded)
            cache.cache_clear()
        monkeypatch.setattr(sp, "_CACHED_ENTRIES", entries)
        blocked = sp.transversality_report(*args, j=9, npts=npts)
        assert blocked.argmin_alpha == kept.argmin_alpha
        assert blocked.margin == pytest.approx(kept.margin, rel=1e-13)
        # every order (q0 + 1)(deg + 1) floats, every node deg + 1 floats,
        # in blocks of at least one; both exceed 100 on (0.1, 2.0)
        deg = sp._chebyshev_fit(*interval)[2]
        for cache, item, count in zip(caches, (5 * (deg + 1), deg + 1), (9, npts)):
            assert cache.cache_info().currsize <= 4
            assert sum(built[cache]) == count * item
            assert max(built[cache]) <= max(entries, item)
            cache.cache_clear()
