"""Modified Bessel functions I_n, K_n for integer order, built from scratch.

Evaluation strategy (regime switches chosen where the estimated truncation
errors cross the accuracy targets, see below):

* ``I_n``: ascending power series ``sum_m (x/2)^(n+2m) / (m! (n+m)!)``.
  All terms are positive, so the series is cancellation-free and is used
  for every order whenever ``x <= 600``.  Beyond that the exponentially
  scaled value is assembled from the large-argument expansion of I_0, I_1
  and a continued-fraction-seeded backward recurrence for higher orders.
* ``K_0, K_1``: the log + psi power series for ``x < 3``.  Its
  cancellation error grows like ``e^(2x) * eps``: below 1e-14 relative up
  to x = 2.5, up to about 4e-14 just below 3.  For ``x >= 3`` the smooth
  functions ``sqrt(x) e^x K_n(x)``, n = 0, 1, are one degree-20 Chebyshev
  series in ``t = 6/x - 1`` on [-1, 1] (the classical form of W. J. Cody,
  ACM TOMS Algorithm 715), summed by a Clenshaw recurrence that runs both
  orders in one pass.  The coefficients interpolate ``mpmath.besselk`` at
  the 21 Chebyshev nodes and decay below 1e-17; the relative error is a
  few ulp on the whole half-line, and the cost per point does not depend
  on x (both checked against mpmath in the tests).
* ``K_n``, n >= 2: upward recurrence ``K_{n+1} = K_{n-1} + (2n/x) K_n``
  (forward-stable since K grows with the order).

Scaling: for ``x > 700`` the unscaled values overflow/underflow doubles;
``bessel_ik`` then returns ``e^(-x) I_n`` and ``e^(x) K_n`` with the
``scaled`` flag set.  The products I_n K_n are formed in scaled form
throughout, so they are valid for every ``x > 0``.

Sign conventions on the positive real axis: ``I_n(x) > 0``, ``K_n(x) > 0``,
``K_n'(x) < 0``; derivatives come from the exact recurrences
``I_n' = (I_{n-1} + I_{n+1})/2`` and ``K_n' = -(K_{n-1} + K_{n+1})/2``
(never from numerical differentiation).

All functions are pure; no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

EULER_GAMMA = 0.5772156649015328606065120900824024

# Regime boundaries (documented above).
_X_SWITCH_K_SERIES = 3.0
_X_SWITCH_I_SERIES = 30.0   # i0/i1 fast path; higher orders use series to 600
_X_SWITCH_I_MILLER = 600.0
_X_OVERFLOW = 700.0

_SERIES_STOP = 1e-17        # stop when term < this fraction of the partial sum

# Chebyshev coefficients c[k, n] of sqrt(x) e^x K_n(x) = sum_k c[k, n] T_k(t),
# t = 6/x - 1, for x >= 3: the degree-20 interpolant at the Chebyshev nodes
# t_j = cos(pi (j + 1/2) / 21), values from mpmath.besselk at 40 digits
# (regenerated in tests/test_specfun.py).
_K01E_CHEB = np.array(
    [
        [1.2301183280819676, 1.326613562665711],
        [-0.022327477849515456, 0.07177264900566749],
        [0.0008138235764746633, -0.0014463372373090208],
        [-4.989330066984828e-05, 7.419433327185522e-05],
        [4.135774336266082e-06, -5.629886891577862e-06],
        [-4.209883679090034e-07, 5.432849568937565e-07],
        [4.990724437509742e-08, -6.21286348592956e-08],
        [-6.666329034798239e-09, 8.085538935224152e-09],
        [9.811708427460499e-10, -1.1667431339488899e-09],
        [-1.566053686935619e-10, 1.8334389212321316e-10],
        [2.6785845678669498e-11, -3.096548708626957e-11],
        [-4.864747505577724e-12, 5.565269261050936e-12],
        [9.313746905735515e-13, -1.0561231894758438e-12],
        [-1.8687711547513004e-13, 2.1031088815626315e-13],
        [3.910803307775287e-14, -4.3724378560691266e-14],
        [-8.501789586724971e-15, 9.450876021576496e-15],
        [1.9134401704560245e-15, -2.1162594289113016e-15],
        [-4.445415291455503e-16, 4.894384274337634e-16],
        [1.0631760191336011e-16, -1.1658037733576906e-16],
        [-2.602044889990399e-17, 2.842883570799864e-17],
        [6.1408470203229396e-18, -6.689331904367647e-18],
    ]
)


@dataclass(frozen=True)
class BesselEval:
    """One evaluation of the pair (I_n, K_n) at (n, x).

    When ``scaled`` is True the stored values are ``e^(-x) I_n(x)`` and
    ``e^(x) K_n(x)``; this happens for x > 700 where the plain values
    leave the double range.
    """

    order: int
    argument: float
    value_I: float
    value_K: float
    scaled: bool


def _check_order(n):
    if n != int(n) or n < 0:
        raise DomainError(f"order must be a nonnegative integer, got {n!r}")
    return int(n)


# ----------------------------------------------------------------------
# scaled core, vectorized over x (float ndarray in, ndarray out)
# ----------------------------------------------------------------------

def _i_series_scaled(n, x):
    """e^(-x) I_n(x) by the ascending series; x array, any single order n."""
    x = np.asarray(x, dtype=float)
    half = x / 2.0
    # first term (x/2)^n / n! in log space to survive large n
    with np.errstate(divide="ignore"):
        logt0 = n * np.log(np.where(x > 0, half, 1.0)) - math.lgamma(n + 1)
    term = np.where(x > 0, np.exp(logt0), 0.0)
    if n == 0:
        term = np.ones_like(x)
    s = term.copy()
    z2 = half * half
    m = 0
    active = np.ones_like(x, dtype=bool)
    while active.any() and m < 2000:
        m += 1
        term = term * z2 / (m * (m + n))
        s += term
        active = term > _SERIES_STOP * s
    return np.exp(-x) * s


def _asy_scaled(mu, x):
    """Large-argument expansion factor of sqrt(2 pi x) e^-x I_n, mu = 4 n^2.

    Terms are added until they stop decreasing or drop below 1e-18*sum.
    """
    x = np.asarray(x, dtype=float)
    s = np.ones_like(x)
    term = np.ones_like(x)
    prev = np.full_like(x, np.inf)
    active = np.ones_like(x, dtype=bool)
    k = 0
    while active.any() and k < 60:
        k += 1
        term = term * ((2 * k - 1) ** 2 - mu) / (8.0 * k * x)
        grow = np.abs(term) >= prev
        active &= ~grow
        s = np.where(active, s + term, s)
        prev = np.abs(term)
        active &= np.abs(term) > 1e-18 * np.abs(s)
    return s


def _i0e(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    lo = x <= _X_SWITCH_I_SERIES
    if lo.any():
        out[lo] = _i_series_scaled(0, x[lo])
    if (~lo).any():
        xs = x[~lo]
        out[~lo] = _asy_scaled(0.0, xs) / np.sqrt(2 * np.pi * xs)
    return out


def _i1e(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    lo = x <= _X_SWITCH_I_SERIES
    if lo.any():
        out[lo] = _i_series_scaled(1, x[lo])
    if (~lo).any():
        xs = x[~lo]
        out[~lo] = _asy_scaled(4.0, xs) / np.sqrt(2 * np.pi * xs)
    return out


def _k01e_series(x):
    """(e^x K_0, e^x K_1) by the log + psi series; x array, x < 3."""
    x = np.asarray(x, dtype=float)
    z2 = x * x / 4.0
    lg = np.log(x / 2.0)
    # order 0: K_0 = -log(x/2) I_0 + sum psi(m+1) (x^2/4)^m / (m!)^2
    term = np.ones_like(x)
    i0 = np.ones_like(x)
    psi = -EULER_GAMMA
    s0 = psi * term
    # order 1 pieces: K_1 = (1/x) + log(x/2) I_1 - (x/4) sum_k
    #   (psi(k+1)+psi(k+2)) (x^2/4)^k / (k! (k+1)!)
    term1 = np.ones_like(x)
    i1 = np.ones_like(x)          # I_1 / (x/2) = sum (x^2/4)^k /(k!(k+1)!)
    s1 = (psi + psi + 1.0) * term1
    m = 0
    while m < 60:
        m += 1
        term = term * z2 / (m * m)
        i0 += term
        psi += 1.0 / m
        s0 += psi * term
        term1 = term1 * z2 / (m * (m + 1))
        i1 += term1
        s1 += (2 * psi + 1.0 / (m + 1)) * term1
        if np.all(term < _SERIES_STOP * i0):
            break
    k0 = -lg * i0 + s0
    k1 = 1.0 / x + lg * (x / 2.0) * i1 - (x / 4.0) * s1
    ex = np.exp(x)
    return ex * k0, ex * k1


def _clenshaw(t, coef):
    """sum_k coef[k] T_k(t) over a 1-d array t.

    ``coef`` of shape (deg+1, 2) sums both columns in one pass and gives
    shape (2, t.size); shape (deg+1,) gives shape t.shape.
    """
    c = coef[..., None]
    t2 = 2.0 * t
    b1, b2 = c[-1], 0.0
    for ck in c[-2:0:-1]:
        b0 = t2 * b1
        b0 -= b2
        b0 += ck
        b1, b2 = b0, b1
    return c[0] + 0.5 * t2 * b1 - b2


def _k01e_cheb(x):
    """(e^x K_0, e^x K_1) by the Chebyshev series in 6/x - 1; x array, x >= 3."""
    x = np.asarray(x, dtype=float)
    k0e, k1e = _clenshaw(6.0 / x - 1.0, _K01E_CHEB) / np.sqrt(x)
    return k0e, k1e


def _k01e(x):
    """(e^x K_0(x), e^x K_1(x)) for arbitrary positive x (vectorized)."""
    x = np.asarray(x, dtype=float)
    k0 = np.empty_like(x)
    k1 = np.empty_like(x)
    lo = x < _X_SWITCH_K_SERIES
    hi = ~lo
    if lo.any():
        k0[lo], k1[lo] = _k01e_series(x[lo])
    if hi.any():
        k0[hi], k1[hi] = _k01e_cheb(x[hi])
    return k0, k1


# Horner coefficients for the unscaled small-x K_0 fast path:
# K_0 = -log(x/2) sum u^m/(m!)^2 + sum psi(m+1) u^m/(m!)^2,  u = x^2/4.
# 20 terms keep the truncation below 1e-17 relative for x <= 3.
_K0_TERMS = 20
_K0_I0_COEF = np.array([1.0 / math.factorial(m) ** 2 for m in range(_K0_TERMS)])
_K0_PSI_COEF = np.array(
    [
        (sum(1.0 / k for k in range(1, m + 1)) - EULER_GAMMA)
        / math.factorial(m) ** 2
        for m in range(_K0_TERMS)
    ]
)


def _k0_series_fast(x):
    """Unscaled K_0 for x <= 3 via two Horner polynomials in x^2/4.

    The Horner steps update two arrays in place (``p += c; p *= u``) in
    the same order of operations as the plain form ``p = p * u + c``, so
    the result is bitwise equal to it, without a fresh array per step.
    """
    u = x * x * 0.25
    pi0 = _K0_I0_COEF[-1] * u
    pps = _K0_PSI_COEF[-1] * u
    for m in range(_K0_TERMS - 2, 0, -1):
        pi0 += _K0_I0_COEF[m]
        pi0 *= u
        pps += _K0_PSI_COEF[m]
        pps *= u
    pi0 += _K0_I0_COEF[0]
    pps += _K0_PSI_COEF[0]
    return -np.log(0.5 * x) * pi0 + pps


def k0_array(x):
    """K_0 over a positive array (0 where e^-x underflows); kernel helper."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("K_0 requires x > 0")
    lo = x < _X_SWITCH_K_SERIES
    if lo.all():
        return _k0_series_fast(x)
    out = np.empty_like(x)
    if lo.any():
        out[lo] = _k0_series_fast(x[lo])
    hi = ~lo
    xh = x[hi]
    with np.errstate(under="ignore"):
        out[hi] = _clenshaw(6.0 / xh - 1.0, _K01E_CHEB[:, 0]) * (
            np.exp(-xh) / np.sqrt(xh)
        )
    return out


def k1_array(x):
    """K_1 over a positive array (0 where e^-x underflows)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("K_1 requires x > 0")
    _, k1e = _k01e(x)
    with np.errstate(under="ignore"):
        return k1e * np.exp(-x)


def i0_array(x):
    """I_0 over a nonnegative array; unscaled, so x must stay below 700."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("I_0 requires x >= 0")
    if np.any(x > _X_OVERFLOW):
        raise OverflowError("e^x overflows for x > 700")
    out = np.ones_like(x)
    pos = x > 0
    if pos.any():
        out[pos] = _i0e(x[pos]) * np.exp(x[pos])
    return out


def _ike_seq(nmax, x):
    """Scaled sequences (e^-x I_n)_[0..nmax], (e^x K_n)_[0..nmax] at scalar x > 0.

    I_0, I_1 from the fast regime-switched paths; higher orders by a
    continued-fraction-seeded backward recurrence (downward is the stable
    direction for I).  K by upward recurrence (stable: K grows with the
    order).  The scaled K entries may overflow to inf for very large order
    at small x -- callers decide whether that matters.
    """
    x = float(x)
    xa = np.array([x])
    iv = np.empty(nmax + 1)
    kv = np.empty(nmax + 1)
    iv[0] = _i0e(xa)[0]
    if nmax >= 1:
        iv[1] = _i1e(xa)[0]
    if nmax >= 2:
        r = _cf_ratio(nmax, x)       # I_nmax / I_{nmax-1}
        p = np.empty(nmax + 1)
        p[nmax] = r
        p[nmax - 1] = 1.0
        for k in range(nmax - 1, 0, -1):
            p[k - 1] = p[k + 1] + (2.0 * k / x) * p[k]
            if p[k - 1] > 1e250:
                p[k - 1:] /= 1e250
        iv[2:] = p[2:] * (iv[0] / p[0])
    k0, k1 = (float(v[0]) for v in _k01e(xa))
    kv[0] = k0
    if nmax >= 1:
        kv[1] = k1
    with np.errstate(over="ignore"):
        for n in range(1, nmax):
            kv[n + 1] = kv[n - 1] + (2.0 * n / x) * kv[n]
    return iv, kv


def _cf_ratio(n, x):
    """I_n(x)/I_{n-1}(x) by the modified Lentz continued fraction."""
    tiny = 1e-290
    f = tiny
    c = f
    d = 0.0
    k = 0
    while k < 10000:
        k += 1
        a = 2.0 * (n + k - 1) / x
        d = a + d
        if d == 0.0:
            d = tiny
        c = a + 1.0 / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return f


# ----------------------------------------------------------------------
# public scalar interface
# ----------------------------------------------------------------------

def bessel_ik(n, x):
    """Evaluate the pair (I_n(x), K_n(x)).

    Returns a :class:`BesselEval`; for x > 700 the values are
    exponentially scaled and the ``scaled`` flag is set.
    """
    n = _check_order(n)
    x = float(x)
    if x < 0:
        raise DomainError("argument must be nonnegative")
    if x == 0.0:
        return BesselEval(n, 0.0, 1.0 if n == 0 else 0.0, math.inf, False)
    iv, kv = _ike_seq(n, x)
    if x > _X_OVERFLOW:
        return BesselEval(n, x, float(iv[n]), float(kv[n]), True)
    ex = math.exp(x)
    return BesselEval(n, x, float(iv[n]) * ex, float(kv[n]) / ex, False)


def bessel_I(n, x, scaled=False):
    """I_n(x) for integer n >= 0, x >= 0 (series limit at 0).

    With ``scaled=True`` returns ``e^(-x) I_n(x)``.  Unscaled requests for
    x > 700 raise ``OverflowError`` (use the scaled form there).
    """
    n = _check_order(n)
    x = float(x)
    if x < 0:
        raise DomainError("argument must be nonnegative")
    if x == 0.0:
        base = 1.0 if n == 0 else 0.0
        return base
    if x > _X_OVERFLOW and not scaled:
        raise OverflowError("e^x overflows for x > 700; request scaled=True")
    if x <= _X_SWITCH_I_MILLER:
        v = float(_i_series_scaled(n, np.array([x]))[0])
    else:
        v = float(_ike_seq(n, x)[0][n])
    return v if scaled else v * math.exp(x)


def bessel_K(n, x, scaled=False):
    """K_n(x) for integer n >= 0, x > 0.

    With ``scaled=True`` returns ``e^(x) K_n(x)``.  Unscaled requests for
    x > 700 raise ``OverflowError``; results beyond the double range raise
    ``OverflowError`` as well.
    """
    n = _check_order(n)
    x = float(x)
    if x <= 0:
        raise DomainError("argument must be positive")
    if x > _X_OVERFLOW and not scaled:
        raise OverflowError("e^-x underflows for x > 700; request scaled=True")
    v = float(_ike_seq(n, x)[1][n])
    if not math.isfinite(v):
        raise OverflowError(f"K_{n}({x}) overflows double precision")
    return v if scaled else v * math.exp(-x)


def bessel_I_derivative(n, x):
    """I_n'(x) from the exact recurrence (I_{n-1} + I_{n+1})/2."""
    n = _check_order(n)
    x = float(x)
    if x < 0:
        raise DomainError("argument must be nonnegative")
    if x == 0.0:
        return 0.5 if n == 1 else 0.0
    iv, _ = _ike_seq(n + 1, x)
    im1 = iv[1] if n == 0 else iv[n - 1]
    if x > _X_OVERFLOW:
        raise OverflowError("use scaled identities for x > 700")
    return 0.5 * (im1 + iv[n + 1]) * math.exp(x)


def bessel_K_derivative(n, x):
    """K_n'(x) from the exact recurrence -(K_{n-1} + K_{n+1})/2."""
    n = _check_order(n)
    x = float(x)
    if x <= 0:
        raise DomainError("argument must be positive")
    if x > _X_OVERFLOW:
        raise OverflowError("use scaled identities for x > 700")
    _, kv = _ike_seq(n + 1, x)
    km1 = kv[1] if n == 0 else kv[n - 1]
    return -0.5 * (km1 + kv[n + 1]) * math.exp(-x)


def product_IK(n, x):
    """I_n(x) K_n(x), valid for large order/argument via scaled ratios.

    The result lies in (0, 1/(2n)) for every n >= 1, x > 0.
    """
    n = _check_order(n)
    if n < 1:
        raise DomainError("product bound requires n >= 1")
    x = float(x)
    if x <= 0:
        raise DomainError("argument must be positive")
    return float(product_IK_array(n, np.array([x]))[n, 0])


def _i_ratio_seq(nmax, x):
    """rho[n] = I_{n+1}(x)/I_n(x) for n = 0..nmax-1 (vectorized over x).

    Downward recurrence rho_{n-1} = 1/(2n/x + rho_n), which is the stable
    direction; seeded well above nmax with the leading-order ratio so the
    seed error is washed out by the time the requested range is reached.
    """
    x = np.asarray(x, dtype=float)
    xmax = float(x.max())
    start = nmax + 30 + int(2.0 * math.sqrt((nmax + 40) * xmax))
    rho = x / (2.0 * (start + 1))
    out = np.empty((nmax, x.size))
    for n in range(start, 0, -1):
        rho = 1.0 / (2.0 * n / x + rho)
        if n <= nmax:
            out[n - 1] = rho
    return out


def product_IK_array(nmax, x):
    """Matrix P[n, i] = I_n(x_i) K_n(x_i) for n = 0..nmax (vectorized).

    Built multiplicatively from the order ratios of I (stable downward)
    and K (stable upward, kappa_n = 2n/x + 1/kappa_{n-1}); no
    cancellation, no overflowing intermediates, valid for large order.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("argument must be positive")
    k0e, k1e = _k01e(x)
    P = np.empty((nmax + 1, x.size))
    P[0] = _i0e(x) * k0e
    if nmax == 0:
        return P
    rho = _i_ratio_seq(nmax, x)
    kappa = k1e / k0e
    P[1] = P[0] * rho[0] * kappa
    for n in range(1, nmax):
        kappa = 2.0 * n / x + 1.0 / kappa
        P[n + 1] = P[n] * rho[n] * kappa
    return P

