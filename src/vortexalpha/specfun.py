"""Modified Bessel functions of integer order, built from scratch.

The package needs two evaluators: the products I_n(x) K_n(x) of the
frequency formulas (``product_IK_array``) and K_0 of the combined kernel
(``k0_array``).  Evaluation strategy (regime switches chosen where the
estimated truncation errors cross the accuracy targets, see below):

* ``K_0, K_1``: the log + psi power series for ``x < 3``, both orders
  from one Horner table of 15 terms in ``x^2/4`` (``_K_SERIES``), whose
  truncation stays below 1e-17 relative.  Its cancellation error grows
  like ``e^(2x) * eps``: below 1e-14 relative up to x = 2.5, up to about
  4e-14 just below 3.  For ``x >= 3`` the smooth
  functions ``sqrt(x) e^x K_n(x)``, n = 0, 1, are one degree-20 Chebyshev
  series in ``t = 6/x - 1`` on [-1, 1] (the classical form of W. J. Cody,
  ACM TOMS Algorithm 715).  The coefficients interpolate
  ``mpmath.besselk`` at the 21 Chebyshev nodes and decay below 1e-17.
  They are converted once, at import, to powers of t and summed by
  Horner's rule in place (two passes per degree); the sums of the
  absolute power coefficients are 1.2533 (K_0) and 1.403 (K_1), against
  values of 1.2 to 1.4, so the power form is well conditioned on
  |t| <= 1.  The relative error is a few ulp on the whole half-line, and
  the cost per point does not depend on x (both checked against mpmath in
  the tests).  ``k0_array`` splits its arguments at x = 3 by one mask,
  runs each regime once on its copy of them and returns fresh arrays.
  It multiplies the order-0 fit by ``e^-x/sqrt(x)``; on request it also
  returns the kernel slope ``1/x^2 - K_1(x)/x`` from the same tables:
  for x < 3 as ``-log(x/2) p_2/2 + p_3/4`` (the
  ``1/x^2`` of ``K_1/x`` cancels exactly, so nothing is lost at small
  x), for x >= 3 from the order-1 fit.  The products need only the ratio
  ``kappa_1 = K_1/K_0`` (``_k_ratio``), read from that series and slope,
  or from the fit, whose factor cancels.
* ``I_{n+1}/I_n``: the order ratios ``rho_n`` from the downward
  recurrence ``rho_{n-1} = 1/(2n/x + rho_n)`` (W. Gautschi, SIAM Rev. 9
  (1967)), seeded well above the top order, at every x; its length grows
  like ``sqrt(n x)``.
* ``K_{n+1}/K_n``: the order ratios ``kappa_{n+1} = 2n/x + 1/kappa_n``
  by the upward recurrence from ``kappa_1`` (forward-stable since K grows
  with the order).

The products come from the Wronskian ``I_n K_{n+1} + I_{n+1} K_n = 1/x``
(DLMF 10.28.2) divided by ``I_n K_n``:
``I_n K_n = 1 / (x (rho_n + kappa_{n+1}))``.  The denominator is a sum of
positive terms, so nothing cancels, no factor needs an exponential scale,
and the error of one order does not carry into the next; the products are
valid for every finite ``x > 0``.  ``k0_array`` returns 0 where ``e^-x``
underflows.

All functions are pure; no shared mutable state.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, _integer, _positive

EULER_GAMMA = 0.5772156649015328606065120900824024

# Regime boundaries (documented above).
_X_SWITCH_K_SERIES = 3.0

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


def _psi(m):
    """Digamma at a positive integer: psi(m) = sum_{k < m} 1/k - gamma."""
    return sum(1.0 / k for k in range(1, m)) - EULER_GAMMA


# Horner coefficients c[m, j] in u = x^2/4 of the x < 3 series of K_0, K_1:
#   K_0 = -log(x/2) p_0 + p_1,  K_1 = 1/x + (x/2) log(x/2) p_2 - (x/4) p_3,
# with p_j = sum_m c[m, j] u^m and, for m = 0..14,
#   c[m] = (1/(m!)^2, psi(m+1)/(m!)^2,
#           1/(m! (m+1)!), (psi(m+1) + psi(m+2))/(m! (m+1)!)).
# 15 terms keep the truncation below 1e-17 relative for x <= 3: at
# u = 9/4 the first omitted term of every column is at most 3.1e-19.
_K_SERIES = np.array(
    [
        [
            1.0 / math.factorial(m) ** 2,
            _psi(m + 1) / math.factorial(m) ** 2,
            1.0 / (math.factorial(m) * math.factorial(m + 1)),
            (_psi(m + 1) + _psi(m + 2)) / (math.factorial(m) * math.factorial(m + 1)),
        ]
        for m in range(15)
    ]
)


def _horner(u, coef, out):
    """sum_m coef[m] u^m into ``out`` by the in-place loop ``p += c; p *= u``.

    The loop runs in the order of operations of the plain form
    ``p = p * u + c``, so it is bitwise equal to it, in two passes per
    degree and without a fresh array per step.  Each call sums one
    polynomial, or one per row when the ``coef[m]`` are columns that
    broadcast against ``u`` (the per-offset tables of
    :mod:`vortexalpha.greens`); for the K_0 tables a stacked accumulator
    of several polynomials measured about 20 % slower.
    """
    np.multiply(u, coef[-1], out=out)
    for c in coef[-2:0:-1]:
        out += c
        out *= u
    out += coef[0]
    return out


def _monomial(c):
    """Coefficients in powers of t of sum_k c[k] T_k(t), column by column.

    The recurrence of numpy's ``chebyshev.cheb2poly`` (whose import costs
    about 0.8 MiB): from the top, (p_0, p_1) -> (c_k - p_1, p_0 + 2 t p_1),
    then p_0 + t p_1.
    """
    def times_t(p):
        return np.concatenate((0.0 * p[:1], p[:-1]))

    p0, p1 = np.zeros_like(c), np.zeros_like(c)
    p0[0], p1[0] = c[-2], c[-1]
    for ck in c[-3::-1]:
        p0, p1 = -p1, p0 + 2.0 * times_t(p1)
        p0[0] += ck
    return p0 + times_t(p1)


# _K01E_CHEB in powers of t for Horner's rule (conditioning: module docstring)
_K01E_POWERS = _monomial(_K01E_CHEB)
_K0_I0, _K0_PSI = _K_SERIES[:, 0].tolist(), _K_SERIES[:, 1].tolist()
_K0_FIT = _K01E_POWERS[:, 0].tolist()
_K1_I1, _K1_PSI = _K_SERIES[:, 2].tolist(), _K_SERIES[:, 3].tolist()
_K1_FIT = _K01E_POWERS[:, 1].tolist()


def _k_ratio(x):
    """kappa_1 = K_1(x)/K_0(x) for positive x (vectorized).

    For x < 3, K_0 and the slope s = 1/x^2 - K_1/x of ``_k0_series``, with
    K_1 = 1/x - x s; for x >= 3 the two columns of the Chebyshev fit,
    whose common factor e^-x/sqrt(x) cancels in the ratio.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    lo = x < _X_SWITCH_K_SERIES
    xs = x[lo]
    k0, s = _k0_series(xs.copy(), True)
    out[lo] = (1.0 / xs - xs * s) / k0
    t = 6.0 / x[~lo] - 1.0
    out[~lo] = _horner(t, _K1_FIT, np.empty_like(t)) / _horner(t, _K0_FIT, np.empty_like(t))
    return out


def _k0_series(v, slope):
    """K_0 for x < 3 in place: ``v`` holds x on entry and K_0 on return.

    The operations are those of -log(x/2) p_0(u) + p_1(u), u = x^2/4, with
    p_j column j of ``_K_SERIES``, in the same order (negating a product
    is exact).  Returns (K_0, S): with ``slope``, S = 1/x^2 - K_1(x)/x =
    -log(x/2) p_2/2 + p_3/4, else None.
    """
    u = v * v
    u *= 0.25
    v *= 0.5
    np.log(v, out=v)
    p, s = np.empty_like(v), None
    if slope:
        s = _horner(u, _K1_I1, np.empty_like(v))
        s *= v
        s *= -0.5
        _horner(u, _K1_PSI, p)
        p *= 0.25
        s += p
    _horner(u, _K0_I0, p)
    p *= v
    _horner(u, _K0_PSI, v)
    v -= p
    return v, s


def _k0_fit(v, slope):
    """K_0 for x >= 3 in place: ``v`` holds x on entry and K_0 on return.

    Column 0 of the fit by Horner's rule, times e^-x / sqrt(x).  Returns
    (K_0, S): with ``slope``, S = (1/x)(1/x - K_1(x)) from column 1 of
    the fit, else None.
    """
    t = np.divide(6.0, v)
    t -= 1.0
    p, s = _horner(t, _K0_FIT, np.empty_like(v)), None
    if slope:
        s = _horner(t, _K1_FIT, np.empty_like(v))
        inv = np.divide(1.0, v)
    np.negative(v, out=t)
    np.sqrt(v, out=v)
    with np.errstate(under="ignore"):
        np.exp(t, out=t)
        t /= v
        if slope:
            s *= t
            np.subtract(inv, s, out=s)
            s *= inv
        return np.multiply(p, t, out=v), s


def k0_array(x, slope=False):
    """K_0 over a positive array (0 where e^-x underflows); kernel helper.

    Returns a fresh array of the shape of ``x``, which is not modified;
    with ``slope``, the pair (K_0, 1/x^2 - K_1(x)/x), both of that shape.
    The K_0 values do not depend on whether the slope is requested.

    One mask splits the arguments at the switch x = 3: the series runs in
    place on the copy of the entries below it, the fit on the copy of the
    rest, and both results are scattered back.  Every value depends on
    its own argument only, not on its position.
    """
    x = np.asarray(x, dtype=float)
    if x.size and not x.min() > 0:
        raise DomainError("K_0 requires x > 0")
    lo = x < _X_SWITCH_K_SERIES
    K = np.empty(x.shape)
    S = np.empty(x.shape) if slope else None
    for zone, regime in ((lo, _k0_series), (~lo, _k0_fit)):
        k, s = regime(x[zone], slope)
        K[zone] = k
        if slope:
            S[zone] = s
    return (K, S) if slope else K


def _i_ratio_seq(nmax, x):
    """rho[n] = I_{n+1}(x)/I_n(x) for n = 0..nmax-1, shape (nmax,) + x.shape.

    Downward recurrence rho_{n-1} = 1/(2n/x + rho_n), which is the stable
    direction; seeded well above nmax with the leading-order ratio so the
    seed error is washed out by the time the requested range is reached.
    """
    out = np.empty((nmax,) + np.shape(x))
    xmax = float(np.max(x, initial=0.0))
    start = nmax + 30 + int(2.0 * math.sqrt((nmax + 40) * xmax))
    rho = x / (2.0 * (start + 1))
    for n in range(start, 0, -1):
        rho = 1.0 / (2.0 * n / x + rho)
        if n <= nmax:
            out[n - 1] = rho
    return out


def product_IK_array(nmax, x):
    """Matrix P[n, i] = I_n(x_i) K_n(x_i) for n = 0..nmax (vectorized).

    P_n = 1 / (x (rho_n + kappa_{n+1})) from the Wronskian, with the order
    ratios of I (stable downward) and K (stable upward); no cancellation,
    no overflowing intermediates, valid for large order.  Every x must be
    positive and finite.
    """
    nmax = _integer(nmax, "order", least=0)
    x = np.asarray(_positive(x, "argument"))
    rho = _i_ratio_seq(nmax + 1, x)
    kappa = _k_ratio(x)
    P = np.empty((nmax + 1, x.size))
    for n in range(nmax + 1):
        if n:
            kappa = 2.0 * n / x + 1.0 / kappa
        P[n] = 1.0 / (x * (rho[n] + kappa))
    return P
