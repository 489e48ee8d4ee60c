"""Modified Bessel functions of integer order, built from scratch.

The package needs two evaluators: the products I_n(x) K_n(x) of the
frequency formulas (``product_IK_array``) and K_0 of the combined kernel
(``k0_array``).  Evaluation strategy (regime switches chosen where the
estimated truncation errors cross the accuracy targets, see below):

* ``I_0``: ascending power series ``sum_m (x^2/4)^m / (m!)^2`` for
  ``x <= 30`` (all terms positive, so it is cancellation-free), and the
  large-argument expansion of ``sqrt(2 pi x) e^-x I_0(x)`` beyond; the
  two agree to a few ulp at the switch.
* ``I_n``, n >= 1: I_0 times the order ratios ``I_{n+1}/I_n`` from the
  downward recurrence ``rho_{n-1} = 1/(2n/x + rho_n)`` (W. Gautschi, SIAM
  Rev. 9 (1967)), seeded well above the top order, at every x; its
  length grows like ``sqrt(n x)``.
* ``K_0, K_1``: the log + psi power series for ``x < 3``, both orders
  from one Horner table in ``x^2/4`` (``_K_SERIES``).  Its
  cancellation error grows like ``e^(2x) * eps``: below 1e-14 relative up
  to x = 2.5, up to about 4e-14 just below 3.  For ``x >= 3`` the smooth
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
  the tests).
* ``K_n``, n >= 2: ``product_IK_array`` carries the order ratios
  ``kappa_n = K_n/K_{n-1}`` by the upward recurrence
  ``kappa_{n+1} = 2n/x + 1/kappa_n`` from ``kappa_1 = K_1/K_0``
  (forward-stable since K grows with the order).

The products I_n K_n are formed from exponentially scaled factors and
order ratios, so they are valid for every ``x > 0``; ``k0_array`` returns
0 where ``e^-x`` underflows.

All functions are pure; no shared mutable state.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

EULER_GAMMA = 0.5772156649015328606065120900824024

# Regime boundaries (documented above).
_X_SWITCH_K_SERIES = 3.0
_X_SWITCH_I_SERIES = 30.0   # I_0: series below, large-argument expansion above

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


# ----------------------------------------------------------------------
# scaled core, vectorized over x (float ndarray in, ndarray out)
# ----------------------------------------------------------------------

def _i_series_scaled(x):
    """e^(-x) I_0(x) by the ascending series sum (x^2/4)^m / (m!)^2; x array."""
    x = np.asarray(x, dtype=float)
    half = x / 2.0
    term = np.ones_like(x)
    s = term.copy()
    z2 = half * half
    m = 0
    active = np.ones_like(x, dtype=bool)
    while active.any() and m < 2000:
        m += 1
        term = term * z2 / (m * m)
        s += term
        active = term > _SERIES_STOP * s
    return np.exp(-x) * s


def _asy_scaled(x):
    """Large-argument expansion factor of sqrt(2 pi x) e^-x I_0(x).

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
        term = term * (2 * k - 1) ** 2 / (8.0 * k * x)
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
        out[lo] = _i_series_scaled(x[lo])
    if (~lo).any():
        xs = x[~lo]
        out[~lo] = _asy_scaled(xs) / np.sqrt(2 * np.pi * xs)
    return out


def _psi(m):
    """Digamma at a positive integer: psi(m) = sum_{k < m} 1/k - gamma."""
    return sum(1.0 / k for k in range(1, m)) - EULER_GAMMA


# Horner coefficients c[m, j] in u = x^2/4 of the x < 3 series of K_0, K_1:
#   K_0 = -log(x/2) p_0 + p_1,  K_1 = 1/x + (x/2) log(x/2) p_2 - (x/4) p_3,
# with p_j = sum_m c[m, j] u^m and, for m = 0..19,
#   c[m] = (1/(m!)^2, psi(m+1)/(m!)^2,
#           1/(m! (m+1)!), (psi(m+1) + psi(m+2))/(m! (m+1)!)).
# 20 terms keep the truncation below 1e-17 relative for x <= 3.
_K_SERIES = np.array(
    [
        [
            1.0 / math.factorial(m) ** 2,
            _psi(m + 1) / math.factorial(m) ** 2,
            1.0 / (math.factorial(m) * math.factorial(m + 1)),
            (_psi(m + 1) + _psi(m + 2)) / (math.factorial(m) * math.factorial(m + 1)),
        ]
        for m in range(20)
    ]
)


def _horner(u, coef, out):
    """sum_m coef[m] u^m into ``out`` by the in-place loop ``p += c; p *= u``.

    The loop runs in the order of operations of the plain form
    ``p = p * u + c``, so it is bitwise equal to it, in two passes per
    degree and without a fresh array per step.  Entries of ``coef`` that
    are (rows, 1) arrays sum one polynomial per row of a (rows,) + u.shape
    ``out`` at once.  The ``evolve`` kernel path sums one column per call:
    a stacked accumulator measured about 20 % slower there.
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


def _k01e_series(x):
    """(e^x K_0, e^x K_1) by the log + psi series; x array, x < 3."""
    x = np.asarray(x, dtype=float)
    lg = np.log(x / 2.0)
    u = x * x / 4.0
    i0, s0, i1, s1 = _horner(u, _K_SERIES[:, :, None], np.empty((4,) + u.shape))
    k0 = -lg * i0 + s0
    k1 = 1.0 / x + lg * (x / 2.0) * i1 - (x / 4.0) * s1
    ex = np.exp(x)
    return ex * k0, ex * k1


def _k01e_cheb(x):
    """(e^x K_0, e^x K_1) by the Chebyshev fit in t = 6/x - 1; x array, x >= 3."""
    x = np.asarray(x, dtype=float)
    t = 6.0 / x - 1.0
    fit = _horner(t, _K01E_POWERS[:, :, None], np.empty((2,) + t.shape))
    k0e, k1e = fit / np.sqrt(x)
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


def _k0_series(v, work):
    """K_0 for x < 3 in place: ``v`` holds x on entry and K_0 on return.

    ``work`` is (2, v.size) scratch.  The operations are those of
    -log(x/2) p_0(u) + p_1(u), u = x^2/4, with p_j column j of
    ``_K_SERIES``, in the same order (negating a product is exact).
    """
    u, p = work
    np.multiply(v, v, out=u)
    u *= 0.25
    v *= 0.5
    np.log(v, out=v)
    _horner(u, _K0_I0, p)
    p *= v
    _horner(u, _K0_PSI, v)
    v -= p
    return v


def _k0_fit(v, work):
    """K_0 for x >= 3 in place: ``v`` holds x on entry and K_0 on return.

    ``work`` is (2, v.size) scratch; column 0 of the fit by Horner's rule,
    times e^-x / sqrt(x).
    """
    t, p = work
    np.divide(6.0, v, out=t)
    t -= 1.0
    _horner(t, _K0_FIT, p)
    np.negative(v, out=t)
    np.sqrt(v, out=v)
    with np.errstate(under="ignore"):
        np.exp(t, out=t)
        t /= v
        return np.multiply(p, t, out=v)


def k0_array(x, out=None, work=None):
    """K_0 over a positive array (0 where e^-x underflows); kernel helper.

    The result has the shape of ``x``, which is not modified.  Callers
    that evaluate K_0 repeatedly may pass the buffers: ``out``, 1-d and
    contiguous with x.size entries, receives the result (returned as a
    view of it), and ``work``, shape (2, x.size) with contiguous rows, is
    scratch; otherwise both are allocated here.

    Every value depends on its own argument only, not on its position.
    The series and the fit each run once, in place on ``out``: in flat
    order the series takes the leading slice before the first x >= 3 and
    the fit the trailing slice after the last x < 3, and the zone between
    them is permuted so that its x < 3 entries follow the leading slice.
    The zone is short when the arguments grow along the array (chords in
    the diagonal order of :func:`vortexalpha.greens.pair_plan`).
    """
    x = np.asarray(x, dtype=float)
    if x.size and x.min() <= 0:
        raise DomainError("K_0 requires x > 0")
    flat = x.reshape(-1)
    n = flat.size
    if out is None:
        out = np.empty(n)
    if work is None:
        work = np.empty((2, n))
    # the mask borrows the bytes of ``out`` until the arguments are copied in
    hi = np.greater_equal(flat, _X_SWITCH_K_SERIES, out=out.view(bool)[:n])
    a = int(hi.argmax()) if hi.any() else n                # first x >= 3
    b = n - int(hi[::-1].argmin()) if not hi.all() else 0  # one past the last x < 3
    up = hi[a:b].copy()
    lo = ~up
    s = a + int(np.count_nonzero(lo))                      # series: out[:s]
    out[:a] = flat[:a]
    out[b:] = flat[b:]
    zone = flat[a:b]
    out[a:s] = zone[lo]
    out[s:b] = zone[up]
    _k0_series(out[:s], work[:, :s])
    _k0_fit(out[s:], work[:, s:n])
    if a < b:
        values = out[a:b].copy()
        out[a:b][lo] = values[: s - a]
        out[a:b][up] = values[s - a :]
    return out.reshape(x.shape)


def _i_ratio_seq(nmax, x):
    """rho[n] = I_{n+1}(x)/I_n(x) for n = 0..nmax-1, shape (nmax,) + x.shape.

    Downward recurrence rho_{n-1} = 1/(2n/x + rho_n), which is the stable
    direction; seeded well above nmax with the leading-order ratio so the
    seed error is washed out by the time the requested range is reached.
    """
    out = np.empty((nmax,) + np.shape(x))
    if nmax == 0:
        return out
    xmax = float(np.max(x))
    start = nmax + 30 + int(2.0 * math.sqrt((nmax + 40) * xmax))
    rho = x / (2.0 * (start + 1))
    for n in range(start, 0, -1):
        rho = 1.0 / (2.0 * n / x + rho)
        if n <= nmax:
            out[n - 1] = rho
    return out


def product_IK_array(nmax, x):
    """Matrix P[n, i] = I_n(x_i) K_n(x_i) for n = 0..nmax (vectorized).

    Built multiplicatively from the order ratios of I (stable downward)
    and K (stable upward, kappa_{n+1} = 2n/x + 1/kappa_n); no
    cancellation, no overflowing intermediates, valid for large order.
    """
    if nmax < 0 or not float(nmax).is_integer():
        raise DomainError(f"order must be a nonnegative integer, got {nmax!r}")
    nmax = int(nmax)
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
