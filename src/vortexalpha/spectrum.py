"""Closed-form frequency formulas of the model and their analytic properties.

Two distinct frequency families share the letter Omega:

* ``omega_bifurcation(m, alpha)`` -- the angular velocity at which the
  m-fold branch leaves the unit disc,
  (m-1)/(2m) - [I_1 K_1(1/alpha) - I_m K_m(1/alpha)];
* ``equilibrium_frequency(j, Omega, alpha)`` -- the linear-evolution
  frequency j (Omega + omega_bifurcation(|j|, alpha)), odd in j.

The rotation offset Omega > 0 is a free modelling input (kept positive so
the first equilibrium frequency cannot resonate); 1/2 is the documented
default used by the CLI, with no claim of matching any canonical choice.

Every frequency row on an alpha grid (``equilibrium_matrix``, ``v0_curve``,
the margins and the non-degeneracy samples) comes from one I_n K_n table
per call.  Derivatives in alpha come from a Chebyshev interpolant: the
frequency combinations are analytic for Re alpha > 0, so a fit at a few
Chebyshev points, differentiated coefficient-wise, gives every derivative
up to q0 on the whole sampling grid to near machine precision (Trefethen,
*Approximation Theory and Approximation Practice*, 2013).  Margin routines
still take the infimum over a uniform grid, which callers may double to
check the stability of the reported value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun as sf
from .errors import DomainError
# unused here: perfbench/smoke_tests.py wraps this alias as its example
from .numerics import central_fd_stencil  # noqa: F401

_VARIANTS = ("pure", "plus_jV0", "plus_Omega_j", "difference")


def omega_sw(m, lam):
    """Screened-model bifurcation value I_1 K_1(lambda) - I_m K_m(lambda)."""
    if m < 1 or m != int(m):
        raise DomainError("fold m must be a positive integer")
    if lam <= 0:
        raise DomainError("lambda must be positive")
    P = sf.product_IK_array(int(m), np.array([float(lam)]))
    return float(P[1, 0] - P[int(m), 0])


def omega_bifurcation(m, alpha):
    """Bifurcation frequency (m-1)/(2m) - omega_sw(m, 1/alpha)."""
    if m < 1 or m != int(m):
        raise DomainError("fold m must be a positive integer")
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    m = int(m)
    return (m - 1) / (2.0 * m) - omega_sw(m, 1.0 / alpha)


def omega_infinity(alpha):
    """Limit of the bifurcation frequencies: 1/2 - I_1 K_1(1/alpha)."""
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    return 0.5 - sf.product_IK(1, 1.0 / alpha)


def bifurcation_table(m_max, alphas):
    """Matrix B[m, i] = omega_bifurcation(m, alphas[i]) for m = 1..m_max."""
    alphas = np.asarray(alphas, dtype=float)
    if np.any(alphas <= 0):
        raise DomainError("alpha must be positive")
    P = sf.product_IK_array(m_max, 1.0 / alphas)
    m = np.arange(1, m_max + 1, dtype=float)[:, None]
    return (m - 1) / (2 * m) - (P[1][None, :] - P[1:])


def check_monotonicity(alpha, m_max):
    """True iff m -> omega_bifurcation(m, alpha) strictly increases to m_max."""
    if m_max < 2:
        raise DomainError("m_max must be at least 2")
    table = bifurcation_table(int(m_max), np.array([alpha]))[:, 0]
    return bool(np.all(np.diff(table) > 0))


@dataclass(frozen=True)
class FrequencyVector:
    """Equilibrium frequency vector (Omega_j^E(alpha))_{j in S}."""

    tangential_set: tuple
    rotation_offset: float
    alpha: float
    components: np.ndarray


def _validate_tangential_set(S):
    S = tuple(int(j) for j in S)
    if not S or any(j < 1 for j in S) or any(b <= a for a, b in zip(S, S[1:])):
        raise DomainError("S must be a nonempty strictly increasing set of positive integers")
    return S


def equilibrium_frequency(j, Omega, alpha):
    """Linear frequency j (Omega + omega_bifurcation(|j|, alpha)); odd in j."""
    if j == 0:
        return 0.0
    return j * (Omega + omega_bifurcation(abs(int(j)), alpha))


def equilibrium_frequencies(S, Omega, alpha):
    """Frequency vector over the tangential set S at offset Omega > 0."""
    S = _validate_tangential_set(S)
    if Omega <= 0:
        raise DomainError("rotation offset Omega must be positive")
    comps = np.array([equilibrium_frequency(j, Omega, alpha) for j in S])
    return FrequencyVector(S, float(Omega), float(alpha), comps)


def _frequency_rows(js, Omega, alpha_grid):
    """(W, V0) on the grid from one I_n K_n table: W[k] = Omega_{js[k]}^E, V0 = V_0.

    Entries of ``js`` may be negative (odd extension) or zero (a zero row).
    """
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    if np.any(alpha_grid <= 0):
        raise DomainError("alpha must be positive")
    js = [int(j) for j in js]
    P = sf.product_IK_array(max([1] + [abs(j) for j in js]), 1.0 / alpha_grid)
    W = np.zeros((len(js), P.shape[1]))
    for k, j in enumerate(js):
        if j != 0:
            m = abs(j)
            W[k] = j * (Omega + ((m - 1) / (2.0 * m) - (P[1] - P[m])))
    return W, Omega + 0.5 - P[1]


def equilibrium_matrix(js, Omega, alpha_grid):
    """W[k, i] = Omega_{js[k]}^E(alpha_grid[i]), vectorized over the grid.

    Entries of ``js`` may be negative; the odd extension is applied.
    """
    return _frequency_rows(js, Omega, alpha_grid)[0]


def v0_curve(Omega, alpha_grid):
    """Asymptotic slope V_0(alpha) = Omega + 1/2 - I_1 K_1(1/alpha)."""
    return _frequency_rows((), Omega, alpha_grid)[1]


# ----------------------------------------------------------------------
# transversality margins
# ----------------------------------------------------------------------

def _angle_bracket(l):
    return max(1.0, float(np.sum(np.abs(l))))


@dataclass(frozen=True)
class MarginReport:
    """Result of a transversality-margin evaluation."""

    variant: str
    margin: float
    grid_size: int
    step: float
    q0: int
    argmin_alpha: float


def transversality_margin(
    S,
    Omega,
    l,
    variant,
    alpha_interval,
    q0,
    j=None,
    j0=None,
    npts=2001,
):
    """Numerical transversality margin for one Diophantine combination.

    Returns inf over the alpha grid of max_{q <= q0} |d^q/d alpha^q f| / <l>
    where f is the variant-selected combination of equilibrium frequencies;
    a strictly positive value certifies the lower bound on the grid.  See
    :func:`transversality_report` for the full record.
    """
    return transversality_report(
        S, Omega, l, variant, alpha_interval, q0, j=j, j0=j0, npts=npts
    ).margin


def transversality_report(
    S,
    Omega,
    l,
    variant,
    alpha_interval,
    q0,
    j=None,
    j0=None,
    npts=2001,
):
    """Transversality margin of one combination f, with its grid and minimiser.

    f(alpha) is l . omega_Eq(alpha) over S, plus, by variant: nothing
    (``pure``), j V_0 (``plus_jV0``), Omega_j^E (``plus_Omega_j``) or
    Omega_j^E - Omega_j0^E (``difference``).  The margin is the infimum over
    ``npts`` uniform nodes of [a0, a1] (spacing ``step``) of
    max_{q <= q0} |f^(q)| / <l>, with <l> = max(1, |l|_1).

    Method: f is interpolated at Chebyshev points of a slightly widened
    interval, with the degree set by the Bernstein ellipse through
    alpha = 0 (27 on [0.3, 0.7], 33 on [0.5, 1.5]); its derivatives are
    exact derivatives of the interpolant (see ``_derivative_envelope``).
    Cost: one ``product_IK_array`` call on deg + 1 nodes, then O(npts deg)
    to evaluate the q0 + 1 derivatives.  Against Cauchy-integral
    derivatives of the closed form (q0 = 4, all four variants, one of them
    with l = (1, -2, 1) so that f -> 0 as alpha grows) the envelope was
    within 1.1e-7 relative on [0.3, 0.7], 2.4e-7 on [0.5, 1.5], 1.6e-5 on
    [0.1, 2.0] and 7.7e-6 on [0.05, 1.0].  The degree grows like
    25 sqrt(a1 / a0) as a0 / a1 shrinks (119 on [0.1, 2.0]).
    """
    if variant not in _VARIANTS:
        raise DomainError(f"variant must be one of {_VARIANTS}")
    S = _validate_tangential_set(S)
    l = np.asarray(l, dtype=float)
    if l.shape != (len(S),):
        raise DomainError("l must have one integer entry per element of S")
    if q0 < 1:
        raise DomainError("q0 must be at least 1")
    if variant == "pure" and not np.any(l != 0):
        raise DomainError("variant 'pure' requires l != 0")
    if variant in ("plus_jV0", "plus_Omega_j"):
        if j is None or j == 0:
            raise DomainError(f"variant {variant!r} requires a nonzero j")
        if abs(int(j)) in S and variant == "plus_Omega_j":
            raise DomainError("j must lie outside the tangential set")
    if variant == "difference":
        if j is None or j0 is None or j == 0 or j0 == 0:
            raise DomainError("variant 'difference' requires nonzero j and j0")
        if abs(int(j)) in S or abs(int(j0)) in S:
            raise DomainError("j, j0 must lie outside the tangential set")
        if not np.any(l != 0) and int(j) == int(j0):
            raise DomainError("degenerate combination: l = 0 and j = j0")

    # f = coef @ W + v0_coef * V_0 over the modes S, then j and -j0 by variant
    modes, coef, v0_coef = list(S), list(l), 0.0
    if variant == "plus_jV0":
        v0_coef = float(int(j))
    elif variant == "plus_Omega_j":
        modes, coef = modes + [int(j)], coef + [1.0]
    elif variant == "difference":
        modes, coef = modes + [int(j), -int(j0)], coef + [1.0, 1.0]
    coef = np.array(coef)

    def combination(grid):
        W, v0 = _frequency_rows(modes, Omega, grid)
        return coef @ W + v0_coef * v0

    alphas, h, best = _derivative_envelope(combination, alpha_interval, q0, npts)
    scaled = best / _angle_bracket(l)
    k = int(np.argmin(scaled))
    return MarginReport(
        variant=variant,
        margin=float(scaled[k]),
        grid_size=npts,
        step=h,
        q0=int(q0),
        argmin_alpha=float(alphas[k]),
    )


def difference_derivative_bound(j, j0, Omega, alpha_interval, q0, npts=2001):
    """sup over grid and q <= q0 of |d^q (Omega_j^E - Omega_j0^E)| / |j - j0|."""
    if j == j0:
        raise DomainError("j and j0 must differ")

    def difference(grid):
        W, _ = _frequency_rows([int(j), -int(j0)], Omega, grid)
        return W[0] + W[1]

    _, _, best = _derivative_envelope(difference, alpha_interval, q0, npts)
    return float(np.max(best)) / abs(j - j0)


def _chebyshev_table(t, deg):
    """T[n, i] = T_n(t[i]) for n = 0..deg >= 1, by the three-term recurrence."""
    T = np.empty((deg + 1, t.size))
    T[0] = 1.0
    T[1] = t
    for n in range(2, deg + 1):
        T[n] = 2.0 * t * T[n - 1] - T[n - 2]
    return T


def _chebyshev_derivative(a):
    """Coefficients b of d/dt sum_n a_n T_n(t), zero-padded to the length of a.

    b_k = (2 / c_k) sum_{n > k, n - k odd} n a_n with c_0 = 2 and c_k = 1
    otherwise: suffix sums over each parity class, O(len(a)).
    """
    w = np.zeros(a.size + 1)
    w[:-1] = 2.0 * np.arange(a.size) * a
    tail = np.empty_like(w)  # tail[m] = w[m] + w[m + 2] + ...
    tail[0::2] = np.cumsum(w[0::2][::-1])[::-1]
    tail[1::2] = np.cumsum(w[1::2][::-1])[::-1]
    b = tail[1:]
    b[0] *= 0.5
    return b


def _derivative_envelope(f_on, alpha_interval, q0, npts):
    """(alphas, h, max_{q <= q0} |d^q f / d alpha^q|) on npts uniform interval nodes.

    ``f_on(grid)`` evaluates f, analytic for Re alpha > 0, on an array of
    alphas.  It is called once, at the deg + 1 Chebyshev extreme points of
    [a0 - min(w/10, a0/2), a1 + w/10], w = a1 - a0.  The widening keeps the
    output nodes away from the ends of the fit, where derivatives of the
    interpolant amplify rounding most; only the left end is limited by
    alpha = 0.  With c and r the centre and half-width of that interval, the
    Bernstein ellipse through alpha = 0 has rho = (c + sqrt(c^2 - r^2)) / r,
    and deg = ceil(36 / ln rho) makes the fit error about rho^-deg = e^-36
    relative.  q = 0 is |f| itself.
    """
    a0, a1 = (float(v) for v in alpha_interval)
    if not a0 < a1 or a0 <= 0:
        raise DomainError("alpha interval must satisfy 0 < a0 < a1")
    if npts < 2:
        raise DomainError(f"npts must be at least 2, got {npts!r}")
    h = (a1 - a0) / (npts - 1)
    b0, b1 = a0 - min((a1 - a0) / 10.0, a0 / 2.0), a1 + (a1 - a0) / 10.0
    c, r = 0.5 * (b0 + b1), 0.5 * (b1 - b0)
    deg = math.ceil(36.0 / math.log((c + math.sqrt(c * c - r * r)) / r))
    # coefficients from the values at cos(pi k / deg) by an FFT of the even extension
    v = f_on(c + r * np.cos(np.pi * np.arange(deg + 1) / deg))
    coef = np.fft.rfft(np.concatenate([v, v[-2:0:-1]])).real / deg
    coef[[0, deg]] *= 0.5
    D = np.empty((q0 + 1, deg + 1))
    D[0] = coef
    for q in range(1, q0 + 1):
        D[q] = _chebyshev_derivative(D[q - 1]) / r
    alphas = a0 + h * np.arange(npts)
    t = (alphas - c) / r
    # blocks of about 2^20 Vandermonde entries bound the memory at large degree
    best = np.concatenate([
        np.max(np.abs(D @ _chebyshev_table(tb, deg)), axis=0)
        for tb in np.array_split(t, 1 + t.size * (deg + 1) // 2**20)
    ])
    return alphas, h, best


# ----------------------------------------------------------------------
# non-degeneracy of the frequency curve
# ----------------------------------------------------------------------

def _smallest_sample_singular_value(samples_on, alpha_interval, n_samples, center):
    """Smallest singular value of ``samples_on(grid)``, rows over a uniform grid."""
    a0, a1 = (float(v) for v in alpha_interval)
    if not a0 < a1:
        raise DomainError("interval must be nondegenerate")
    A = samples_on(np.linspace(a0, a1, n_samples))
    if center:
        A = A - A.mean(axis=0)
    return float(np.linalg.svd(A, compute_uv=False)[-1])


def smallest_singular_value(curve, alpha_interval, n_samples, center=True):
    """Smallest singular value of the (optionally centered) sample matrix.

    ``curve(alpha)`` returns the vector of curve components; rows are
    samples over a uniform grid on the interval.
    """
    return _smallest_sample_singular_value(
        lambda grid: np.array([np.asarray(curve(a), dtype=float) for a in grid]),
        alpha_interval,
        n_samples,
        center,
    )


def check_nondegeneracy(S, Omega, alpha_interval, augment="none", n_samples=None):
    """Smallest singular value of the sampled frequency-curve matrix.

    The curve alpha -> omega_Eq(alpha) (optionally augmented by V_0 and the
    constant 1) is sampled at >= 4(d+2) points, all from one I_n K_n table.
    Columns are centered except when the constant-1 column is present
    (centering would annihilate it; the 1-column itself carries the affine
    offset).  A strictly positive return certifies numerically that the
    curve is not contained in a hyperplane.
    """
    if augment not in ("none", "V0", "V0_and_1"):
        raise DomainError("augment must be 'none', 'V0' or 'V0_and_1'")
    S = _validate_tangential_set(S)
    d = len(S)
    if n_samples is None:
        n_samples = max(4 * (d + 2), 48)

    def samples(grid):
        W, v0 = _frequency_rows(S, Omega, grid)
        cols = list(W)
        if augment in ("V0", "V0_and_1"):
            cols.append(v0)
        if augment == "V0_and_1":
            cols.append(np.ones(grid.size))
        return np.column_stack(cols)

    return _smallest_sample_singular_value(
        samples, alpha_interval, n_samples, center=(augment != "V0_and_1")
    )
