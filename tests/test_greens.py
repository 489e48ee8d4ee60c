"""Tests for the Euler-alpha Green kernel and boundary-integral velocity."""

import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.special import i0, iv, k1, kv

from vortexalpha import greens, specfun as sf
from vortexalpha.errors import DomainError, GridError
from vortexalpha.numerics import central_fd_stencil

# Frozen via tests/oracles.py (50-digit series evaluation).
K0_OF_2 = 0.11389387274953344
LOG2_MINUS_GAMMA = 0.11593151565841245


def poisson_integral(x):
    """Closed form of int_{-pi}^{pi} log(1 + x^2 - 2 x cos eta) d eta."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("x must be finite")
    if abs(x) <= 1.0:
        return 0.0
    return 4 * math.pi * math.log(abs(x))


def poisson_integral_quadrature(x, M=4096):
    """Midpoint-rule companion to :func:`poisson_integral`.

    The midpoint grid never hits eta = 0, so the boundary case |x| = 1
    (integrable log singularity) is handled without special-casing.
    """
    x = float(x)
    eta = -np.pi + (np.arange(M) + 0.5) * (2 * np.pi / M)
    vals = np.log(1.0 + x * x - 2.0 * x * np.cos(eta))
    return float(vals.sum() * (2 * np.pi / M))


def circle(radius, M):
    """Nodes and parameter tangents d xi / d theta of a circle at theta_k = 2 pi k / M."""
    w = np.exp(2j * np.pi * np.arange(M) / M)
    return radius * w, 1j * radius * w


def velocity(alpha, boundary, targets):
    """Filtered velocity v(z) = -(1/2pi) oint [log|z-xi| + K_0(|z-xi|/alpha)] d-xi.

    Trapezoid rule on the uniform parameter grid of ``boundary`` (nodes,
    tangents), all targets in one kernel call; a target on a node takes
    the kernel's diagonal limit there.  The line integral uses the plain
    (1/2pi) d-theta convention.
    """
    points, tangents = boundary
    targets = np.asarray(targets, dtype=complex)
    rho = np.abs(targets.reshape(-1, 1) - points)
    vals = greens.combined_boundary_kernel(alpha, rho)
    return -(vals * tangents).mean(axis=1).reshape(targets.shape)


class TestGreenKernel:
    def test_value_against_specfun_oracle(self):
        expect = (math.log(2.0) + K0_OF_2) / (2 * math.pi)
        assert greens.green_kernel(1.0, 2.0) == pytest.approx(expect, rel=1e-12)

    def test_small_rho_limit(self):
        # G -> (1/2pi)(log(2 alpha) - gamma) as rho -> 0
        for alpha in [0.5, 1.0, 2.0]:
            limit = (math.log(2 * alpha) - greens.EULER_GAMMA) / (2 * math.pi)
            for rho in [1e-8, 1e-7, 1e-6]:
                assert greens.green_kernel(alpha, rho) == pytest.approx(
                    limit, abs=1e-9
                )

    def test_far_field(self):
        # G - (1/2pi) log rho -> 0 at rho = 60 alpha within 1e-12
        for alpha in [0.3, 1.0, 2.0]:
            rho = 60 * alpha
            tail = greens.green_kernel(alpha, rho) - math.log(rho) / (2 * math.pi)
            assert abs(tail) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            greens.green_kernel(1.0, 0.0)
        with pytest.raises(DomainError):
            greens.green_kernel(1.0, -1.0)
        for alpha in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                greens.green_kernel(alpha, 1.0)
            with pytest.raises(DomainError):
                greens.combined_boundary_kernel(alpha, np.array([0.0, 0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_rho_rejected_by_the_kernels(self, bad):
        # the kernels name rho themselves, where K_0 would blame its own x
        with pytest.raises(DomainError, match="rho must be nonnegative and finite"):
            greens.combined_boundary_kernel(0.3, bad)
        with pytest.raises(DomainError, match="rho must be positive and finite"):
            greens.green_kernel(0.3, [bad, 1.0])
        assert sf.k0_array(np.array([math.inf]))[0] == 0.0  # the documented underflow

    def test_strictly_increasing(self):
        rho = np.geomspace(1e-4, 50.0, 500)
        vals = greens.green_kernel(1.3, rho)
        assert np.all(np.diff(vals) > 0)


class TestCombinedKernel:
    def test_diagonal_value(self):
        assert greens.combined_boundary_kernel(1.0, 0.0) == pytest.approx(
            LOG2_MINUS_GAMMA, rel=1e-13
        )

    def test_continuity_at_zero(self):
        for alpha in [0.3, 1.0, 3.0]:
            a = greens.combined_boundary_kernel(alpha, 1e-9)
            b = greens.combined_boundary_kernel(alpha, 0.0)
            assert abs(a - b) < 1e-8

    def test_quadratic_log_approach(self):
        # kernel(rho) - kernel(0) = O(rho^2 log rho): dyadic ratio ~ 4
        alpha = 1.0
        base = greens.combined_boundary_kernel(alpha, 0.0)
        rhos = [2.0**-k for k in range(6, 15)]
        d = [greens.combined_boundary_kernel(alpha, r) - base for r in rhos]
        for k in range(len(d) - 1):
            ratio = d[k] / d[k + 1]
            assert 3.0 <= ratio <= 4.3

    def test_array_input(self):
        out = greens.combined_boundary_kernel(1.0, np.array([0.0, 1.0, 2.0]))
        assert out.shape == (3,)
        assert out[0] == pytest.approx(LOG2_MINUS_GAMMA)
        assert isinstance(greens.combined_boundary_kernel(1.0, 2.0), float)

    def test_zeros_leave_other_entries_and_input_alone(self):
        # alpha = 0.3 puts three positive entries in the 3 < x < 20 band
        rho = np.array([[0.0, 0.5, 1.5], [2.0, 0.0, 4.0]])
        before = rho.copy()
        out = greens.combined_boundary_kernel(0.3, rho)
        assert np.array_equal(rho, before)
        assert out.shape == rho.shape
        limit = math.log(0.6) - greens.EULER_GAMMA
        assert out[0, 0] == out[1, 1] == pytest.approx(limit, rel=1e-15)
        pos = rho > 0
        assert np.array_equal(out[pos], greens.combined_boundary_kernel(0.3, rho[pos]))
        with pytest.raises(DomainError):
            greens.combined_boundary_kernel(0.3, rho - 0.1)
        with pytest.raises(DomainError):
            greens.combined_boundary_kernel(0.0, rho)


def mp_slope(alpha, rho):
    """g'(rho)/rho of g = log rho + K_0(rho/alpha), by mpmath differentiation."""
    with mp.workdps(40):
        g = lambda r: mp.log(r) + mp.besselk(0, r / alpha)  # noqa: E731
        return float(mp.diff(g, mp.mpf(rho)) / rho)


def kernel_and_slope(alpha, rho):
    """Kernel and slope of a flat rho from the buffered core, in fresh buffers."""
    n = rho.size
    slope = np.empty(n)
    work = (np.empty(n), np.empty(n), np.empty((3, n)))
    return greens._kernel_into(alpha, rho, rho == 0.0, *work, slope), slope


class TestKernelSlope:
    @pytest.mark.parametrize("low, high", [(1e-3, 3.0), (3.0, 30.0)])
    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_against_mpmath(self, alpha, low, high):
        x = np.geomspace(low, high, 60)
        rho = alpha * x
        _, slope = kernel_and_slope(alpha, rho)
        ref = np.array([mp_slope(alpha, r) for r in rho])
        assert np.max(np.abs(slope / ref - 1.0)) <= 4e-15

    def test_kernel_values_unchanged_and_zero_slope_on_the_diagonal(self):
        rng = np.random.default_rng(3)
        rho = rng.uniform(0.0, 4.0, 1200)
        rho[rng.random(rho.shape) < 0.1] = 0.0
        kernel, slope = kernel_and_slope(0.3, rho)
        assert np.array_equal(kernel, greens.combined_boundary_kernel(0.3, rho))
        assert np.all(slope[rho == 0.0] == 0.0)
        assert np.all(slope[rho > 0.0] > 0.0)  # g' > 0: g grows with the chord


def orbit_ids(M, period, reflect):
    """Orbit number of every pair of the M x M chord matrix, by closure of the maps.

    Independent of ``pair_plan``: each orbit is grown pair by pair under
    the transpose, the rotation by ``period`` and (if ``reflect``) the
    reflection.  The orbits of the diagonal pairs, whose chords are all
    exactly zero, are merged into id 0.  Returns the pair -> id dict.
    """
    maps = [lambda a, b: (b, a), lambda a, b: ((a + period) % M, (b + period) % M)]
    if reflect:
        maps.append(lambda a, b: ((-a) % M, (-b) % M))
    ids, label = {}, 0
    for j in range(M):
        for k in range(M):
            if (j, k) in ids:
                continue
            label, stack = label + 1, [(j, k)]
            ids[(j, k)] = label
            while stack:
                pair = stack.pop()
                for f in maps:
                    image = f(*pair)
                    if image not in ids:
                        ids[image] = label
                        stack.append(image)
    diagonal = {ids[(a, a)] for a in range(M)}
    return {pair: 0 if i in diagonal else i for pair, i in ids.items()}


def row_classes(plan, M, rows, period, reflect):
    """The plan's class of every pair of chord-matrix rows 0..rows-1.

    Each pair is moved into the plan's target rows by the maps: a
    rotation to row j mod period, then, with ``reflect``, the reflection
    and a rotation from a row above period // 2 to row period - j.
    """
    j, k = np.arange(rows)[:, None], np.arange(M)
    k = (k - (j - j % period)) % M
    j = j % period
    flip = reflect & (j > period // 2)
    return plan.inverse[np.where(flip, period - j, j), np.where(flip, (period - k) % M, k)]


def sector_case(m, M):
    """(M, rows, period, reflect): the V-state plan on an m-fold grid, on its target rows."""
    period = M // m if M % m == 0 else M
    return M, period // 2 + 1, period, True


# (M, rows, period, reflect): the plan of (M, period, reflect), checked
# on chord-matrix rows 0..rows-1
PLAN_CASES = [
    # the six grids of the V-state half-sector tests, on the target rows
    sector_case(1, 128),
    sector_case(2, 128),
    sector_case(3, 192),
    sector_case(4, 128),
    sector_case(3, 256),
    sector_case(2, 90),
    # contour dynamics, folds 1, 2 and 4: one sector of rows, no reflection
    (128, 128, 128, False),
    (128, 64, 64, False),
    (128, 32, 32, False),
    # odd and even grids where the half offset, the rotation and the
    # reflection act on the start residue together, on fewer rows than
    # the plan's, on one period and on rows beyond it
    (15, 5, 5, False),
    (15, 5, 5, True),
    (21, 8, 7, True),
    (24, 3, 8, True),
    (24, 24, 8, False),
    (30, 11, 10, True),
    (36, 36, 12, True),
]


class TestPairPlan:
    @pytest.mark.parametrize("M, rows, period, reflect", PLAN_CASES)
    def test_every_pair_maps_into_its_own_orbit(self, M, rows, period, reflect):
        plan = greens.pair_plan(M, period, reflect)
        ids = orbit_ids(M, period, reflect)
        assert plan.inverse.shape == (period // 2 + 1 if reflect else period, M)
        reps = [ids[(int(j), int(k))] for j, k in zip(plan.first, plan.second)]
        # each class once, and every pair's representative in its orbit
        assert len(set(reps)) == len(reps) == len(set(ids.values()))
        block = np.array([[ids[(j, k)] for k in range(M)] for j in range(rows)])
        classes = row_classes(plan, M, rows, period, reflect)
        assert np.array_equal(np.array(reps)[classes], block)

    @pytest.mark.parametrize("M, rows, period, reflect", PLAN_CASES)
    def test_diagonal_order(self, M, rows, period, reflect):
        plan = greens.pair_plan(M, period, reflect)
        d = (plan.second - plan.first) % M
        d = np.minimum(d, M - d)
        assert np.all(np.diff(d) >= 0)
        # class 0 is the diagonal (0, 0), the only zero-offset class, and
        # exactly the diagonal pairs of the chord matrix fall in it
        assert plan.first[0] == plan.second[0] == 0
        assert np.count_nonzero(d == 0) == 1
        classes = row_classes(plan, M, rows, period, reflect)
        assert np.array_equal(classes == 0, np.eye(rows, M, dtype=bool))

    def test_class_counts_halve_the_half_sector(self):
        # m = 2: 65 x 256 rows; m = 3 (does not divide 256): 129 x 256
        assert greens.pair_plan(256, 128, True).first.size == 8257
        assert greens.pair_plan(256, 256, True).first.size == 16385
        assert greens.pair_plan(256, 256, False).first.size == 256 * 255 // 2 + 1

    def test_cache_stays_bounded(self):
        for M in (32, 40, 48, 56, 64, 72):
            plan = greens.pair_plan(M, M, False)
            assert not plan.inverse.flags.writeable
        info = greens.pair_plan.cache_info()
        assert info.maxsize == 4 and info.currsize <= info.maxsize

    def test_rejects_bad_layout(self):
        with pytest.raises(GridError):
            greens.pair_plan(64, 0, False)
        with pytest.raises(GridError):
            greens.pair_plan(64, 24, False)


class TestVelocity:
    def test_center_of_circle(self):
        v = velocity(1.0, circle(1.0, 256), 0.0 + 0.0j)
        assert abs(v) < 1e-14

    def test_boundary_tangential_value(self):
        # v(z) = i Omega_inf z on the unit circle, Omega_inf = 1/2 - I1 K1(1/alpha)
        for alpha in [0.5, 1.0, 2.0]:
            b = circle(1.0, 512)
            om_inf = 0.5 - iv(1, 1.0 / alpha) * kv(1, 1.0 / alpha)
            for k in [0, 17, 200]:
                z = b[0][k]
                assert abs(velocity(alpha, b, z) - 1j * om_inf * z) < 1e-6

    def test_outside_against_area_oracle(self):
        # independent oracle: 2-d quadrature of the Biot-Savart area integral
        alpha = 1.0
        z = 2.0 + 0.0j
        v = velocity(alpha, circle(1.0, 256), z)
        nr, na = 400, 512
        rg = (np.arange(nr) + 0.5) / nr
        ag = 2 * np.pi * np.arange(na) / na
        RR, AA = np.meshgrid(rg, ag, indexing="ij")
        XI = RR * np.exp(1j * AA)
        w = (1.0 / nr) * (2 * np.pi / na) * RR
        d = z - XI
        rho = np.abs(d)
        gprime = (1.0 / rho - k1(rho / alpha) / alpha) / (2 * np.pi)
        v_oracle = np.sum(1j * gprime * (d / rho) * w)
        assert abs(v - v_oracle) < 1e-4

    def test_outside_against_closed_form(self):
        # for the unit disc: v = i [1/(2R) - I_1(1/a) K_1(R/a)] e^{i phi}
        alpha = 0.8
        b = circle(1.0, 256)
        for z in [2.0 + 0.0j, 1.5 * np.exp(0.7j)]:
            R = abs(z)
            closed = 1j * (1 / (2 * R) - iv(1, 1 / alpha) * kv(1, R / alpha)) * z / R
            assert abs(velocity(alpha, b, z) - closed) < 1e-10

    def test_radial_patch_purely_azimuthal(self):
        b = circle(0.7, 256)
        for R in [1.3, 2.5]:
            z = R * np.exp(0.3j)
            radial = (velocity(1.0, b, z) * np.conj(z / abs(z))).real
            assert abs(radial) < 1e-10

    def test_euler_sw_superposition(self):
        # the combined kernel is the Euler log kernel plus the screened K_0
        alpha = 1.0
        points, tangents = b = circle(1.0, 128)
        z = 1.5 * np.exp(1.1j)
        vc = velocity(alpha, b, z)
        rho = np.abs(z - points)
        ve = -(np.log(rho) * tangents).mean()
        vs = -(sf.k0_array(rho / alpha) * tangents).mean()
        assert abs(vc - (ve + vs)) < 1e-14

    def test_convergence_estimator(self):
        # a target on a node takes the kernel's diagonal limit, and the
        # trapezoid sum still converges algebraically under grid doubling:
        # observed order ~= 3 from the last three of M = 64..512
        vals = [velocity(1.0, circle(1.0, M), 1.0 + 0.0j) for M in (64, 128, 256, 512)]
        order = math.log2(abs(vals[-3] - vals[-2]) / abs(vals[-2] - vals[-1]))
        assert 2.0 < order < 4.5

    def test_velocity_field_matches_pointwise(self):
        # one kernel call on a 2-d chord array equals one call per target
        b = circle(1.0, 64)
        zs = np.array([0.2 + 0.1j, 1.7 - 0.4j])
        vf = velocity(1.0, b, zs)
        assert vf[0] == velocity(1.0, b, zs[0])
        assert vf[1] == velocity(1.0, b, zs[1])


class TestPoissonIntegral:
    def test_inside(self):
        assert poisson_integral(0.5) == 0.0
        assert poisson_integral(-0.99) == 0.0

    def test_outside(self):
        assert poisson_integral(2.0) == pytest.approx(
            4 * math.pi * math.log(2.0), rel=1e-15
        )
        assert poisson_integral(-3.0) == pytest.approx(
            4 * math.pi * math.log(3.0), rel=1e-15
        )

    def test_boundary_case_with_quadrature(self):
        assert poisson_integral(1.0) == 0.0
        # the midpoint defect at x = 1 is exactly 4 pi log2 / M (the node
        # product Prod 2 sin((2k+1) pi / 2M) telescopes to 2), so 1e-3
        # needs M >= 16384; check the law at 4096 and the bound at 16384
        q = poisson_integral_quadrature(1.0, M=4096)
        assert q == pytest.approx(4 * math.pi * math.log(2.0) / 4096, rel=1e-10)
        assert abs(poisson_integral_quadrature(1.0, M=16384)) < 1e-3

    def test_quadrature_matches_closed_form(self):
        for x in [0.5, 2.0, -1.7]:
            q = poisson_integral_quadrature(x, M=8192)
            assert q == pytest.approx(poisson_integral(x), abs=5e-3)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            poisson_integral(math.inf)


class TestLaplacianIdentity:
    def test_weak_pde_check(self):
        # (Id - a^2 Lap) Lap (G * omega) = omega for a smooth radial profile;
        # angular integral reduced analytically, radial FD of order 6.
        alpha = 1.0
        om = lambda r: np.exp(-2.0 * r * r)
        ns = 8001
        rs = np.linspace(0.0, 4.0, ns)
        wsimp = np.ones(ns)
        wsimp[1:-1:2] = 4.0
        wsimp[2:-1:2] = 2.0
        wsimp *= (rs[1] - rs[0]) / 3.0

        def psi(R):
            lo = np.minimum(R, rs)
            hi = np.maximum(R, rs)
            hi = np.where(hi == 0, 1e-300, hi)
            ker = np.log(hi) + i0(lo / alpha) * sf.k0_array(hi / alpha)
            return np.sum(wsimp * rs * om(rs) * ker)

        h = 0.02
        ext = 8
        Rt = np.arange(0.3, 1.0001, h)
        Rext = np.concatenate(
            [Rt[0] + h * np.arange(-ext, 0), Rt, Rt[-1] + h * np.arange(1, ext + 1)]
        )
        psig = np.array([psi(R) for R in Rext])
        off1, w1 = central_fd_stencil(1, 6, h)
        off2, w2 = central_fd_stencil(2, 6, h)

        def lap(f, idx):
            d1 = np.array([np.dot(w1, f[i + off1]) for i in idx])
            d2 = np.array([np.dot(w2, f[i + off2]) for i in idx])
            return d2 + d1 / Rext[idx]

        idx1 = np.arange(4, Rext.size - 4)
        lap1 = np.full(Rext.size, np.nan)
        lap1[idx1] = lap(psig, idx1)
        idx2 = np.arange(8, Rext.size - 8)
        lap2 = lap(lap1, idx2)
        recon = lap1[idx2] - alpha**2 * lap2
        assert np.max(np.abs(recon - om(Rext[idx2]))) < 1e-6


def exact_weights(deriv, offsets):
    """deriv! times the x^deriv coefficient of each Lagrange basis polynomial, exactly."""
    weights = []
    for j in offsets:
        poly, denom = [Fraction(1)], 1  # prod (x - k) over k != j, lowest power first
        for k in offsets:
            if k != j:
                poly = [a - k * b for a, b in zip([0] + poly, poly + [0])]
                denom *= int(j - k)
        weights.append(math.factorial(deriv) * poly[deriv] / denom)
    return weights


class TestCentralStencil:
    CASES = [
        (deriv, order)
        for deriv in range(1, 5)
        for order in range(2, 21, 2)
        if 2 * ((deriv + order - 1) // 2) + 1 <= 21
    ]

    @pytest.mark.parametrize("deriv, order", CASES)
    def test_weights_are_the_rounded_rationals(self, deriv, order):
        offsets, weights = central_fd_stencil(deriv, order, 1.0)
        half = (deriv + order - 1) // 2
        assert offsets.tolist() == list(range(-half, half + 1))
        assert weights.tolist() == [float(w) for w in exact_weights(deriv, offsets)]

    @pytest.mark.parametrize("deriv, order", [(1, 2), (2, 2), (1, 6), (2, 6), (3, 4)])
    def test_order_is_the_requested_one(self, deriv, order):
        # exact on x^p for p < deriv + order, and not on x^(deriv + order)
        offsets, weights = central_fd_stencil(deriv, order, 0.5)
        x = 0.5 * offsets
        for p in range(deriv + order):
            want = math.factorial(deriv) if p == deriv else 0.0
            assert np.dot(weights, x**p) == pytest.approx(want, abs=1e-9)
        assert abs(np.dot(weights, x ** (deriv + order))) > 1e-3

    @pytest.mark.parametrize(
        "deriv, order", [(0, 2), (-1, 2), (1, 0), (1, -2), (1, 3), (2, 5), (1, 22), (3, 20), (4, 20)]
    )
    def test_rejects(self, deriv, order):
        with pytest.raises(DomainError):
            central_fd_stencil(deriv, order, 0.1)

    # h^2 overflows, or underflows to 0 and the weights divide by zero
    @pytest.mark.parametrize("h", [1e300, 1e-200])
    def test_rejects_steps_without_finite_weights(self, h):
        with pytest.raises(DomainError, match=re.escape(f"h={h}")):
            central_fd_stencil(2, 2, h)
