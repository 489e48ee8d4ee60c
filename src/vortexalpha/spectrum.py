"""Closed-form frequency formulas of the model and their analytic properties.

Two distinct frequency families share the letter Omega:

* ``omega_bifurcation(m, alpha)`` -- the angular velocity at which the
  m-fold branch leaves the unit disc,
  (m-1)/(2m) - [I_1 K_1(1/alpha) - I_m K_m(1/alpha)];
* ``equilibrium_frequency(j, Omega, alpha)`` -- the linear-evolution
  frequency j (Omega + omega_bifurcation(|j|, alpha)), odd in j.

The rotation offset Omega > 0 is a free modelling input (kept positive so
the first equilibrium frequency cannot resonate, and checked by every
frequency table); 1/2 is the suggested default, with no claim of
matching any canonical choice.

Every frequency combination is affine in P_n(alpha) = I_n K_n(1/alpha),
with Omega in its constant term only, and ``_affine_form`` states it:
each row on an alpha grid (``equilibrium_matrix``, ``v0_curve`` and the
non-degeneracy samples) is one, evaluated on one I_n K_n table per call.
The margins share their tables instead: the alpha derivatives of
P_1..P_nmax on one interval are fitted once (``_derivative_basis``) and
each margin is a weighted sum of them.  The derivatives come from a
Chebyshev interpolant: the P_n are analytic for Re alpha > 0, so a fit at
a few Chebyshev points, differentiated coefficient-wise, gives every
derivative up to q0 on the whole sampling grid to near machine precision
(Trefethen, *Approximation Theory and Approximation Practice*, 2013).
Margin routines still take the infimum over a uniform grid, which callers
may double to check the stability of the reported value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import specfun as sf
from .errors import DomainError, _integer, _positive
# unused here: perfbench/smoke_tests.py wraps this alias as its example
from .numerics import central_fd_stencil  # noqa: F401

_VARIANTS = ("pure", "plus_jV0", "plus_Omega_j", "difference")
# augmentations of the frequency curve; the index is the number of added columns
_AUGMENTS = ("none", "V0", "V0_and_1")


def omega_sw(m, lam):
    """Screened-model bifurcation value I_1 K_1(lambda) - I_m K_m(lambda)."""
    m = _integer(m, "fold m", least=1)
    P = sf.product_IK_array(m, np.array([_positive(lam, "lambda")]))
    return float(P[1, 0] - P[m, 0])


def omega_bifurcation(m, alpha):
    """Bifurcation frequency (m-1)/(2m) - omega_sw(m, 1/alpha): row m of ``bifurcation_table``."""
    m = _integer(m, "fold m", least=1)
    return float(bifurcation_table(m, [_positive(alpha, "alpha")])[m - 1, 0])


def omega_infinity(alpha):
    """Limit of the bifurcation frequencies: 1/2 - I_1 K_1(1/alpha)."""
    return 0.5 - sf.product_IK_array(1, np.array([1.0 / _positive(alpha, "alpha")]))[1, 0]


def bifurcation_table(m_max, alphas):
    """Matrix B[m, i] = omega_bifurcation(m, alphas[i]) for m = 1..m_max."""
    m_max = _integer(m_max, "m_max", least=1)
    P = sf.product_IK_array(m_max, 1.0 / _positive(alphas, "alpha"))
    m = np.arange(1, m_max + 1, dtype=float)[:, None]
    return (m - 1) / (2 * m) - (P[1][None, :] - P[1:])


def _validate_tangential_set(S):
    S = tuple(_integer(j, "each element of S", least=1) for j in S)
    if not S or any(b <= a for a, b in zip(S, S[1:])):
        raise DomainError("S must be a nonempty strictly increasing set of positive integers")
    return S


def equilibrium_frequency(j, Omega, alpha):
    """Linear frequency j (Omega + omega_bifurcation(|j|, alpha)); odd in j."""
    return float(_frequency_rows([j], Omega, [alpha])[0][0, 0])


def _frequency_rows(js, Omega, alpha_grid):
    """(W, V0) on the grid, W[k] = Omega_{js[k]}^E, from one ``_affine_form`` per row.

    Entries of ``js`` may be negative (odd extension) or zero (a zero row).
    """
    alpha_grid = _positive(alpha_grid, "alpha")
    js = [_integer(j, "mode j") for j in js]
    forms = [_affine_form([j], [1], 0, Omega) for j in js] + [_affine_form([], [], 1, Omega)]
    P = sf.product_IK_array(max(w.size for _, w in forms), 1.0 / alpha_grid)
    rows = np.array([c + w @ P[1 : w.size + 1] for c, w in forms])
    return rows[:-1], rows[-1]


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

@dataclass(frozen=True)
class MarginReport:
    """Result of a transversality-margin evaluation."""

    variant: str
    margin: float
    grid_size: int
    step: float
    q0: int
    argmin_alpha: float


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
    max_{q <= q0} |f^(q)| / <l>, with <l> = max(1, |l|_1).  ``l``, ``j``,
    ``j0``, ``q0`` and ``npts`` must be integers.

    Method: f = c + sum_n w_n P_n with P_n = I_n K_n(1/alpha) (see
    ``_affine_form``), and every P_n is interpolated at Chebyshev points of
    a slightly widened interval, with the degree set by the Bernstein
    ellipse through alpha = 0 (27 on [0.3, 0.7], 33 on [0.5, 1.5]); the
    derivatives are exact derivatives of the interpolant (see
    ``_derivative_basis``).
    Cost: the first report on an interval makes one ``product_IK_array``
    call on deg + 1 nodes and builds the Chebyshev table of the npts
    nodes; both are cached, whatever Omega, l or the variant, so a later
    report on the same interval, q0, npts and largest order computes only
    the (q0 + 1) x (deg + 1) combination and its O(npts deg q0) values.
    Against Cauchy-integral derivatives of the closed form (q0 = 4, all
    four variants, one of them with l = (1, -2, 1) so that f -> 0 as alpha
    grows; every fourth of 2001 nodes) the envelope was within 4.5e-8
    relative on [0.3, 0.7], 1.4e-7 on [0.5, 1.5], 4.1e-6 on [0.1, 2.0] and
    1.2e-5 on [0.05, 1.0].  The degree grows like 25 sqrt(a1 / a0) as
    a0 / a1 shrinks (119 on [0.1, 2.0]).
    """
    if variant not in _VARIANTS:
        raise DomainError(f"variant must be one of {_VARIANTS}")
    S = _validate_tangential_set(S)
    if np.ndim(l) != 1 or len(l) != len(S):
        raise DomainError("l must have one integer entry per element of S")
    l = [_integer(lk, "each entry of l") for lk in l]
    a0, a1, q0, npts = _margin_grid(alpha_interval, q0, npts)
    if q0 < 1:
        raise DomainError("q0 must be at least 1")
    j = None if j is None else _integer(j, "j")
    j0 = None if j0 is None else _integer(j0, "j0")
    if (j is not None and variant == "pure") or (j0 is not None and variant != "difference"):
        raise DomainError(f"variant {variant!r} takes no j={j} or j0={j0}")
    if variant == "pure" and not any(l):
        raise DomainError("variant 'pure' requires l != 0")
    if variant in ("plus_jV0", "plus_Omega_j"):
        if not j:
            raise DomainError(f"variant {variant!r} requires a nonzero j")
        if abs(j) in S and variant == "plus_Omega_j":
            raise DomainError("j must lie outside the tangential set")
    if variant == "difference":
        if not (j and j0):
            raise DomainError("variant 'difference' requires nonzero j and j0")
        if abs(j) in S or abs(j0) in S:
            raise DomainError("j, j0 must lie outside the tangential set")
        if not any(l) and j == j0:
            raise DomainError("degenerate combination: l = 0 and j = j0")

    # f = l . Omega^E over S + v0_coef V_0, then Omega_j^E and -Omega_j0^E by variant
    modes, coef, v0_coef = list(S), l, 0
    if variant == "plus_jV0":
        v0_coef = j
    elif variant == "plus_Omega_j":
        modes, coef = modes + [j], coef + [1]
    elif variant == "difference":
        modes, coef = modes + [j, -j0], coef + [1, 1]
    const, weights = _affine_form(modes, coef, v0_coef, Omega)
    alphas, h, best = _derivative_envelope(const, weights, (a0, a1), q0, npts)
    scaled = best / max(1, sum(map(abs, l)))  # <l>: l holds validated integers
    k = int(np.argmin(scaled))
    return MarginReport(
        variant=variant,
        margin=float(scaled[k]),
        grid_size=npts,
        step=h,
        q0=q0,
        argmin_alpha=float(alphas[k]),
    )


def difference_derivative_bound(j, j0, Omega, alpha_interval, q0, npts=2001):
    """sup over grid and q <= q0 of |d^q (Omega_j^E - Omega_j0^E)| / |j - j0|."""
    j, j0 = _integer(j, "j"), _integer(j0, "j0")
    if j == j0:
        raise DomainError("j and j0 must differ")
    a0, a1, q0, npts = _margin_grid(alpha_interval, q0, npts)
    const, weights = _affine_form([j, -j0], [1, 1], 0, Omega)
    _, _, best = _derivative_envelope(const, weights, (a0, a1), q0, npts)
    return float(np.max(best)) / abs(j - j0)


def _interval(alpha_interval):
    """(a0, a1) as floats with 0 < a0 < a1 < inf, or DomainError."""
    try:
        a0, a1 = (float(v) for v in alpha_interval)
    except (TypeError, ValueError) as exc:
        raise DomainError("alpha interval must be a pair of numbers") from exc
    if not 0 < a0 < a1 < math.inf:
        raise DomainError("alpha interval must satisfy 0 < a0 < a1 < inf")
    return a0, a1


def _margin_grid(alpha_interval, q0, npts):
    """(a0, a1, q0, npts) of a margin call as floats and ints, or DomainError.

    Requires 0 < a0 < a1 < inf, an integer q0 >= 0 and an integer
    npts >= 2.  The ints keep float keys out of the basis and table caches.
    """
    a0, a1 = _interval(alpha_interval)
    return a0, a1, _integer(q0, "q0", least=0), _integer(npts, "npts", least=2)


def _affine_form(modes, coef, v0_coef, Omega):
    """(c, w) with sum_k coef[k] Omega_{modes[k]}^E + v0_coef V_0 = c + sum_n w[n-1] P_n.

    P_n(alpha) = I_n K_n(1/alpha), n = 1..max(1, |modes|).  From
    Omega_j^E = j (Omega + (m - 1) / (2m) - P_1 + P_m), m = |j|, and
    V_0 = Omega + 1/2 - P_1: Omega enters c only.  Integer ``coef``,
    ``modes`` and ``v0_coef`` give exact weights (w_1 = 0 for |j| = 1).
    """
    Omega = _positive(Omega, "rotation offset Omega")
    weights = np.zeros(max([1] + [abs(j) for j in modes]))
    const = v0_coef * (Omega + 0.5)
    weights[0] -= v0_coef
    for ck, j in zip(coef, modes):
        if j != 0:
            m = abs(j)
            const += ck * j * (Omega + (m - 1) / (2.0 * m))
            weights[0] -= ck * j
            weights[m - 1] += ck * j
    return const, weights


# float64 entries that one cached array may hold (2 MiB); see _derivative_envelope
_CACHED_ENTRIES = 2**18


def _chebyshev_fit(a0, a1):
    """(c, r, deg): centre and half-width of the fit interval, and the fit degree.

    The fit interval is [a0 - min(w/10, a0/2), a1 + w/10], w = a1 - a0.
    The widening keeps the output nodes away from the ends of the fit,
    where derivatives of the interpolant amplify rounding most; only the
    left end is limited by alpha = 0.  The Bernstein ellipse through
    alpha = 0 has rho = q + sqrt(q^2 - 1), q = c / r, and
    deg = ceil(36 / ln rho) makes the fit error about rho^-deg = e^-36
    relative.
    """
    b0, b1 = a0 - min((a1 - a0) / 10.0, a0 / 2.0), a1 + (a1 - a0) / 10.0
    q = (b0 + b1) / (b1 - b0)
    rho = q + math.sqrt(q * q - 1.0)
    if not rho > 1.0:
        raise DomainError("alpha interval too wide for a Chebyshev fit (a1 / a0 about 1e15)")
    return 0.5 * (b0 + b1), 0.5 * (b1 - b0), math.ceil(36.0 / math.log(rho))


@functools.lru_cache(maxsize=4)
def _derivative_basis(a0, a1, q0, nmax):
    """D[n - 1, q] = Chebyshev coefficients of d^q P_n / d alpha^q, read-only.

    P_n(alpha) = I_n K_n(1/alpha) for n = 1..nmax and q = 0..q0, in
    T_k((alpha - c) / r), k = 0..deg, with (c, r, deg) from
    ``_chebyshev_fit``.  One ``product_IK_array`` call at the deg + 1
    Chebyshev extreme points cos(pi k / deg), then one FFT of the even
    extension along the node axis.  The key holds no Omega, l, variant,
    j or j0: every report on the interval with the same q0 and largest
    order shares the entry.  An entry holds nmax (q0 + 1) (deg + 1)
    floats (6.6 KiB for nmax = 6, q0 = 4, deg = 27); entries above
    ``_CACHED_ENTRIES`` are built uncached by ``_derivative_envelope``.
    """
    c, r, deg = _chebyshev_fit(a0, a1)
    nodes = c + r * np.cos(np.pi * np.arange(deg + 1) / deg)
    v = sf.product_IK_array(nmax, 1.0 / nodes)[1:]
    coef = np.fft.rfft(np.concatenate([v, v[:, -2:0:-1]], axis=1), axis=1).real / deg
    coef[:, [0, deg]] *= 0.5
    D = np.empty((nmax, q0 + 1, deg + 1))
    D[:, 0] = coef
    for q in range(1, q0 + 1):
        D[:, q] = _chebyshev_derivative(D[:, q - 1]) / r
    D.flags.writeable = False
    return D


def _uniform_nodes(a0, a1, npts):
    """(alphas, h): npts uniform nodes of [a0, a1] and their spacing."""
    h = (a1 - a0) / (npts - 1)
    return a0 + h * np.arange(npts), h


@functools.lru_cache(maxsize=4)
def _node_table(a0, a1, npts):
    """(alphas, h, T) with T[k, i] = T_k((alphas[i] - c) / r), k = 0..deg; read-only.

    (c, r, deg) from ``_chebyshev_fit``.  An entry holds (deg + 2) npts
    floats: 453 KiB at the default 2001 nodes and deg = 27.  Tables above
    ``_CACHED_ENTRIES`` are evaluated in blocks by ``_derivative_envelope``
    instead.
    """
    c, r, deg = _chebyshev_fit(a0, a1)
    alphas, h = _uniform_nodes(a0, a1, npts)
    T = _chebyshev_table((alphas - c) / r, deg)
    alphas.flags.writeable = T.flags.writeable = False
    return alphas, h, T


def _derivative_envelope(const, weights, alpha_interval, q0, npts):
    """(alphas, h, max_{q <= q0} |d^q f / d alpha^q|) on npts uniform interval nodes.

    f = const + sum_n weights[n - 1] P_n, as from ``_affine_form``, and
    q = 0 is |f| itself.  Its Chebyshev coefficients are the weighted sum
    of the ``_derivative_basis`` rows; the constant is added to the q = 0
    values.  Arguments are those ``_margin_grid`` returns.

    Retained memory: each of the two caches keeps at most 4 entries, and an
    entry is cached only if it holds at most ``_CACHED_ENTRIES`` floats
    (2 MiB), so the margins retain at most 16 MiB.  A larger basis is built
    for the call alone, and a larger table is built and used in blocks of
    at most ``_CACHED_ENTRIES`` floats.
    """
    a0, a1 = alpha_interval
    c, r, deg = _chebyshev_fit(a0, a1)
    key = (a0, a1, q0, weights.size)
    if weights.size * (q0 + 1) * (deg + 1) <= _CACHED_ENTRIES:
        D = _derivative_basis(*key)
    else:
        D = _derivative_basis.__wrapped__(*key)
    coef = (weights @ D.reshape(weights.size, -1)).reshape(D.shape[1:])
    if (deg + 2) * npts <= _CACHED_ENTRIES:
        alphas, h, T = _node_table(a0, a1, npts)
        values = coef @ T
    else:
        alphas, h = _uniform_nodes(a0, a1, npts)
        blocks = np.array_split((alphas - c) / r, 1 + npts * (deg + 1) // _CACHED_ENTRIES)
        values = np.concatenate([coef @ _chebyshev_table(t, deg) for t in blocks], axis=1)
    values[0] += const
    return alphas, h, np.max(np.abs(values), axis=0)


def _chebyshev_table(t, deg):
    """T[n, i] = T_n(t[i]) for n = 0..deg >= 1, by the three-term recurrence."""
    T = np.empty((deg + 1, t.size))
    T[0] = 1.0
    T[1] = t
    for n in range(2, deg + 1):
        T[n] = 2.0 * t * T[n - 1] - T[n - 2]
    return T


def _chebyshev_derivative(a):
    """Coefficients b of d/dt sum_n a_n T_n(t) along the last axis, zero-padded.

    b_k = (2 / c_k) sum_{n > k, n - k odd} n a_n with c_0 = 2 and c_k = 1
    otherwise, by the recurrence b_{k-1} = b_{k+1} + 2 k a_k from the top,
    with b_0 halved at the end.
    """
    size = a.shape[-1]
    b = np.zeros(a.shape[:-1] + (size + 1,))
    for k in range(size - 1, 0, -1):
        b[..., k - 1] = b[..., k + 1] + 2.0 * k * a[..., k]
    b[..., 0] *= 0.5
    return b[..., :size]


# ----------------------------------------------------------------------
# non-degeneracy of the frequency curve
# ----------------------------------------------------------------------

def check_nondegeneracy(S, Omega, alpha_interval, augment="none", n_samples=None):
    """Smallest singular value of the sampled frequency-curve matrix.

    The curve alpha -> omega_Eq(alpha) (optionally augmented by V_0 and the
    constant 1) is sampled at ``n_samples`` uniform points, all from one
    I_n K_n table; the default is max(4(d + 2), 48), and fewer than one more
    than the column count raise DomainError.
    Columns are centered except when the constant-1 column is present
    (centering would annihilate it; the 1-column itself carries the affine
    offset).  A strictly positive return certifies numerically that the
    curve is not contained in a hyperplane.
    """
    if augment not in _AUGMENTS:
        raise DomainError(f"augment must be one of {_AUGMENTS}")
    S = _validate_tangential_set(S)
    d = len(S)
    n_cols = d + _AUGMENTS.index(augment)
    if n_samples is None:
        n_samples = max(4 * (d + 2), 48)
    n_samples = _integer(n_samples, "n_samples")
    if n_samples < n_cols + 1:
        raise DomainError(f"n_samples must be at least {n_cols + 1} for {n_cols} columns")
    grid = np.linspace(*_interval(alpha_interval), n_samples)
    W, v0 = _frequency_rows(S, Omega, grid)
    A = np.column_stack([*W, v0, np.ones(grid.size)][:n_cols])
    if augment != "V0_and_1":
        A = A - A.mean(axis=0)
    return float(np.linalg.svd(A, compute_uv=False)[-1])
