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

Derivatives in alpha use symmetric finite-difference stencils of order 6
(Fornberg weights) on the sampling grid; margin routines double the grid
on request so callers can verify stability of the reported infimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun as sf
from .errors import DomainError, HypothesisError
from .numerics import central_fd_stencil

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


def equilibrium_matrix(js, Omega, alpha_grid):
    """W[k, i] = Omega_{js[k]}^E(alpha_grid[i]), vectorized over the grid.

    Entries of ``js`` may be negative; the odd extension is applied.
    """
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    js = [int(j) for j in js]
    nmax = max((abs(j) for j in js), default=1)
    nmax = max(nmax, 1)
    B = bifurcation_table(nmax, alpha_grid)
    rows = []
    for j in js:
        if j == 0:
            rows.append(np.zeros(alpha_grid.size))
        else:
            rows.append(j * (Omega + B[abs(j) - 1]))
    return np.array(rows)


def v0_curve(Omega, alpha_grid):
    """Asymptotic slope V_0(alpha) = Omega + 1/2 - I_1 K_1(1/alpha)."""
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    P = sf.product_IK_array(1, 1.0 / alpha_grid)
    return Omega + 0.5 - P[1]


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
    if variant not in _VARIANTS:
        raise DomainError(f"variant must be one of {_VARIANTS}")
    S = _validate_tangential_set(S)
    l = np.asarray(l, dtype=float)
    if l.shape != (len(S),):
        raise DomainError("l must have one integer entry per element of S")
    if q0 < 1:
        raise DomainError("q0 must be at least 1")
    a0, a1 = (float(v) for v in alpha_interval)
    if not a0 < a1 or a0 <= 0:
        raise DomainError("alpha interval must satisfy 0 < a0 < a1")
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

    def combination(grid):
        f = l @ equilibrium_matrix(S, Omega, grid)
        if variant == "plus_jV0":
            f = f + int(j) * v0_curve(Omega, grid)
        elif variant == "plus_Omega_j":
            f = f + equilibrium_matrix([int(j)], Omega, grid)[0]
        elif variant == "difference":
            extra = equilibrium_matrix([int(j), -int(j0)], Omega, grid)
            f = f + extra[0] + extra[1]
        return f

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
        W = equilibrium_matrix([int(j), -int(j0)], Omega, grid)
        return W[0] + W[1]

    _, _, best = _derivative_envelope(difference, alpha_interval, q0, npts)
    return float(np.max(best)) / abs(j - j0)


def _derivative_envelope(f_on, alpha_interval, q0, npts):
    """(alphas, h, max_{q <= q0} |d^q f / d alpha^q|) on npts uniform interval nodes.

    ``f_on(grid)`` evaluates f on the nodes padded at both ends by the reach
    of the order-6 central stencils; q = 0 is |f| itself.
    """
    a0, a1 = (float(v) for v in alpha_interval)
    h = (a1 - a0) / (npts - 1)
    half = 4 + (q0 + 5) // 2  # stencil reach for derivatives up to q0, order 6
    grid = a0 + h * np.arange(-half, npts + half)
    if grid[0] <= 0:
        raise DomainError("interval too close to alpha = 0 for the stencil margin")
    f = f_on(grid)
    core = np.arange(half, half + npts)
    best = np.abs(f[core])
    for q in range(1, q0 + 1):
        off, w = central_fd_stencil(q, 6, h)
        dq = np.zeros(npts)
        for o, c in zip(off, w):
            dq += c * f[core + o]
        best = np.maximum(best, np.abs(dq))
    return grid[core], h, best


# ----------------------------------------------------------------------
# non-degeneracy of the frequency curve
# ----------------------------------------------------------------------

def smallest_singular_value(curve, alpha_interval, n_samples, center=True):
    """Smallest singular value of the (optionally centered) sample matrix.

    ``curve(alpha)`` returns the vector of curve components; rows are
    samples over a uniform grid on the interval.
    """
    a0, a1 = (float(v) for v in alpha_interval)
    if not a0 < a1:
        raise DomainError("interval must be nondegenerate")
    grid = np.linspace(a0, a1, n_samples)
    A = np.array([np.asarray(curve(a), dtype=float) for a in grid])
    if center:
        A = A - A.mean(axis=0)
    return float(np.linalg.svd(A, compute_uv=False)[-1])


def check_nondegeneracy(S, Omega, alpha_interval, augment="none", n_samples=None):
    """Smallest singular value of the sampled frequency-curve matrix.

    The curve alpha -> omega_Eq(alpha) (optionally augmented by V_0 and the
    constant 1) is sampled at >= 4(d+2) points.  Columns are centered
    except when the constant-1 column is present (centering would
    annihilate it; the 1-column itself carries the affine offset).  A
    strictly positive return certifies numerically that the curve is not
    contained in a hyperplane.
    """
    if augment not in ("none", "V0", "V0_and_1"):
        raise DomainError("augment must be 'none', 'V0' or 'V0_and_1'")
    S = _validate_tangential_set(S)
    d = len(S)
    if n_samples is None:
        n_samples = max(4 * (d + 2), 48)

    def curve(a):
        comps = [equilibrium_frequency(jk, Omega, a) for jk in S]
        if augment in ("V0", "V0_and_1"):
            comps.append(Omega + omega_infinity(a))
        if augment == "V0_and_1":
            comps.append(1.0)
        return comps

    return smallest_singular_value(
        curve, alpha_interval, n_samples, center=(augment != "V0_and_1")
    )
