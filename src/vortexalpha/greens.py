"""Green kernel of the Euler-alpha model and the chord layout of its solvers.

The stream kernel is G(rho) = (1/2pi)(log rho + K_0(rho/alpha)): the Euler
log kernel plus a screened correction.  The two pieces have cancelling log
singularities, so their sum extends continuously to the diagonal with value
log(2 alpha) - gamma.  :func:`combined_boundary_kernel` is the one
evaluator of that sum in the package; the contour dynamics in
:mod:`vortexalpha.contour` and the rotating-patch functional in
:mod:`vortexalpha.vstates` reach its core :func:`_kernel_values`
through :func:`_kernel_block` on their chords, and its zero entries take
the analytic limit (the trapezoid weights and symmetry are preserved).
On request the core also returns the slope g'(rho)/rho of the sum,
from the same Bessel tables, for the exact V-state Jacobian.

:func:`pair_plan` is the one chord layout of those solvers.  A chord
matrix |z_j - z_k| on M uniform nodes is symmetric, and a patch with
discrete rotational symmetry (and, for real conformal coefficients, with
mirror symmetry) repeats each chord many times.  A plan is named by that
symmetry alone: its rotation period fixes the target rows (one period,
or its odd half with the mirror), and it lists every chord class of
those rows, so the kernel is evaluated once per class and gathered into
the block.  A pair's class is its shorter offset and the least residue
of the nodes that start it, modulo the period (and mirror images); all
zero chords form class 0, the diagonal.  The layout is rectangular: the
diagonal, then M/2 offset rows of W slots (W = period//2 + 1 with the
mirror, the period without it), each row listing the classes of its
offset and repeating them to fill its width.  On a near-circle the
chords of one offset are nearly equal and grow with the offset.  The
contour dynamics uses the full-grid plan (period M, no mirror), whose
rows are the offset rows |z_r - z_(r+e)|, e = 1..M/2, in order, so
their chords come from two sliding-window views without a gather
(:func:`_offset_chords`); the rotation plans of the conformal V-state
sector gather their representatives.

Both solvers get their kernel block from one call: :func:`_kernel_block`
forms the plan's chords from the node coordinates, rejects a crossing
boundary, evaluates the kernel (on request with its slope) once per
slot, and gathers it into the block, all in the per-grid buffers of
:class:`_Workspace`.  The kernel and the slope come from per-offset
polynomials: on row e the chords lie within a relative width w of the
unit-circle chord a_e = 2 sin(pi e / M), and g(a_e (1 + u)) and
g'(A)/A are analytic for |u| < 1, so their Chebyshev interpolants on
|u| <= 1/4 reproduce them to rounding.  One table per (M, alpha) holds
both at degree 18 (:func:`_offset_table`, built from a few kernel
values per offset on first use), and a patch of width w <= 2^-L sums
only its leading terms, down to degree 2 (:func:`_degree`).  Past
w = 1/4 the slots take the direct path, :func:`_kernel_values`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import specfun as sf
from .errors import DomainError, GeometryError, GridError, _positive

EULER_GAMMA = sf.EULER_GAMMA


@dataclass(frozen=True)
class PairPlan:
    """Chord classes of a target block against all M nodes, in rectangular slots.

    ``first`` and ``second`` hold the representative node pair
    (r, (r + e) mod M) of every slot.  Slot 0 is the diagonal (0, 0), the
    one class of zero chords; then come M//2 offset rows of ``width``
    slots, row e - 1 for the circulant offset
    e = min((k - j) mod M, (j - k) mod M), which list the classes of that
    offset by the start residue r of :func:`pair_plan` and repeat them
    cyclically to fill the row.  ``inverse[j, k]`` is the first slot of
    the class of the pair (j, k), so a kernel K evaluated on the
    representative chords gives the block as ``K[inverse]``.  The index
    arrays are read-only, since the cache shares them; gather with
    :meth:`take` into a buffer.
    """

    first: np.ndarray
    second: np.ndarray
    inverse: np.ndarray
    width: int

    def take(self, values, indices, out):
        """``values[indices]`` into ``out`` for one of the plan's index arrays.

        ``np.take`` copies an index array that is not writeable, so this
        reads the writeable array behind the read-only view instead.
        """
        return np.take(values, indices.base, out=out, mode="clip")


@functools.lru_cache(maxsize=4)
def pair_plan(M, period, reflect):
    """The :class:`PairPlan` of a chord matrix with this symmetry on M nodes.

    Two pairs share a class when a chain of these maps takes one to the
    other: the transpose (j, k) -> (k, j), the rotation
    (j, k) -> (j + period, k + period) mod M, and, if ``reflect``, the
    reflection (j, k) -> (-j, -k) mod M.  A chord matrix must be
    invariant under them: ``period = M`` means no rotation.  The target
    rows are one period, 0..period-1, or with ``reflect`` its odd half
    0..period//2, whose images under the maps give every row.

    A class is named by formula, not found by orbit search.  With
    d = (k - j) mod M the offset is e = min(d, M - d); it starts at j if
    d <= M - d and at k if d >= M - d.  Rotation moves a start a by
    ``period`` and reflection takes it to -(a + e), so e and the least
    residue r modulo ``period`` of the starts (and, if ``reflect``, of
    their images) name the class; every zero chord is class 0.  An
    offset holds at most ``period`` classes, or period//2 + 1 with the
    mirror, and that is the row width W: short rows (every other one
    with the mirror, and the last) are padded with their own classes,
    under 1 % of the slots on the V-state grids.  On the full grid the
    rows are the offset rows of :func:`_offset_chords`.  O(period M)
    integer work, with key tables of (M/2 + 1) period entries.

    The four most recent plans are kept.  One of n slots holds
    rows M + 2 n index words (8 bytes each), with n = 1 + (M//2) W:
    1 MiB for the full grid at M = 256.
    """
    if period < 1 or M % period:
        raise GridError("the period must divide the grid size")
    j = np.arange(period // 2 + 1 if reflect else period)[:, None]
    k = np.arange(M)
    key = k - j
    np.add(key, M, out=key, where=key < 0)  # d = (k - j) mod M
    from_j, from_k = key <= M // 2, key >= (M + 1) // 2  # the start(s) of the shorter offset
    np.subtract(M, key, out=key, where=from_k)
    start = np.where(from_j, j, period)
    np.minimum(start, k % period, out=start, where=from_k)
    if reflect:  # the reflection starts the offset at the negated other end
        np.minimum(start, -k % period, out=start, where=from_j)
        np.minimum(start, -j % period, out=start, where=from_k)
    del from_j, from_k
    key *= period
    key += start  # (e, start) as one index into (M/2 + 1) x period tables
    del start
    W = period // 2 + 1 if reflect else period
    seen = np.zeros((M // 2 + 1, period), dtype=bool)
    seen.reshape(-1)[key] = True
    rank = np.cumsum(seen, axis=1, dtype=np.intp)  # 1 + the place of a start in its row
    rank += (np.arange(M // 2 + 1) * W - W)[:, None]  # its slot, 1 + (e - 1) W + place
    inverse = rank.reshape(-1)[key]
    inverse[key < period] = 0  # one diagonal class: its chords are all exactly zero
    del rank, key
    # row e - 1 lists the starts of offset e, then repeats them to W slots
    seen = seen[1:]
    counts = np.count_nonzero(seen, axis=1)
    place = np.arange(W) % counts[:, None]
    place += (np.cumsum(counts) - counts)[:, None]  # among the starts of all rows
    first = np.zeros(1 + (M // 2) * W, dtype=np.intp)
    np.take(np.flatnonzero(seen), place, out=first[1:].reshape(place.shape), mode="clip")
    del place
    first %= period
    second = first.copy()
    second[1:].reshape(M // 2, W)[:] += np.arange(1, M // 2 + 1)[:, None]
    second %= M
    views = [a.view() for a in (first, second, inverse)]
    for v in views:
        v.flags.writeable = False  # shared by every caller of the cache
    return PairPlan(*views, W)


def green_kernel(alpha, rho):
    """Stream kernel (1/2pi)(log rho + K_0(rho/alpha)); rho > 0.

    Accepts scalars or arrays; every entry must be positive and finite.
    """
    out = combined_boundary_kernel(alpha, _positive(rho, "rho"))
    out /= 2 * np.pi
    return out


def combined_boundary_kernel(alpha, rho):
    """log rho + K_0(rho/alpha), continued by log(2 alpha) - gamma at rho = 0.

    A scalar gives a float; an array of any shape gives an array of that
    shape.  The input is not modified; every entry must be nonnegative and finite.
    """
    alpha = _positive(alpha, "alpha")
    arr = np.asarray(rho, dtype=float)
    if not (arr.min(initial=0.0) >= 0 and math.isfinite(arr.max(initial=0.0))):  # nan propagates
        raise DomainError("rho must be nonnegative and finite")
    flat = arr.reshape(-1)
    K, _ = _kernel_values(alpha, flat, flat == 0.0)
    return float(K[0]) if arr.ndim == 0 else K.reshape(arr.shape)


def _kernel_values(alpha, rho, zero, slope=False):
    """:func:`combined_boundary_kernel` of a flat rho, and on request its slope.

    ``zero`` indexes the zero entries of rho (a mask, or 0 for class 0 of
    a :class:`PairPlan`, the diagonal).  Zero entries are evaluated at
    rho = alpha, whose K_0 argument lies in the series band, and then
    overwritten by the limit.  Returns fresh arrays (K, S) of rho's size:
    with ``slope``, S = g'(rho)/rho = (1/x^2 - K_1(x)/x) / alpha^2,
    x = rho/alpha, the kernel's derivative over the chord (0 at the zero
    entries; the kernel values are the same as without it), else None.
    """
    x = rho / alpha
    x[zero] = 1.0
    K, S = sf.k0_array(x, slope=True) if slope else (sf.k0_array(x), None)
    if slope:
        S /= alpha * alpha
        S[zero] = 0.0
    with np.errstate(divide="ignore"):
        K += np.log(rho, out=x)
    K[zero] = math.log(2 * alpha) - EULER_GAMMA
    return K, S


def _disc_chords(M):
    """Chords 2 sin(pi e / M) of the unit circle at the offsets e = 1..M/2."""
    return 2.0 * np.sin(np.pi * np.arange(1, M // 2 + 1) / M)


class _Workspace:
    """Per-grid node vectors and the buffers of the chord-class kernel block.

    ``cos`` and ``sin`` hold cos theta_k and sin theta_k at the M nodes,
    ``disc`` the column of unit-circle chords of :func:`_disc_chords`.
    ``ends`` holds two node vectors doubled, v || v[:M/2], and ``windows``
    their sliding-window view of shape (2, M/2, M): row e - 1 holds
    v[(r + e) mod M] for r = 0..M-1, so one subtraction of v forms the
    differences at offset e without a gather (:func:`_offset_rows`).

    The other buffers fit the offset rows behind one diagonal entry,
    M^2/2 + 1 entries, which hold the slots of every plan (1 + (M/2) W
    with W <= M).  ``kernel`` (M x M) holds the chords of
    :func:`_pair_chords` in its leading entries, then the block that
    :func:`_kernel_block` forms from them, and ``slope`` (M x M) the
    slope block; ``work`` is scratch for the chords, ``x`` holds the
    offset variable u and ``values`` the kernel and the slope per slot
    from the offset tables.  The direct path, :func:`_kernel_values`,
    returns the kernel per slot and its slope in fresh arrays instead.
    One instance serves one grid size for both solvers, and is not
    reentrant.  The chords and blocks are views, valid until chords are
    next formed on that grid size: a
    :func:`vortexalpha.vstates.evaluate_F` call invalidates the views of
    a :func:`vortexalpha.contour.rhs` call, and the reverse.  What the
    solvers return owns its memory.
    """

    def __init__(self, M):
        theta = 2 * np.pi * np.arange(M) / M
        self.cos = np.cos(theta)
        self.sin = np.sin(theta)
        self.disc = _disc_chords(M)[:, None]
        self.ends = np.empty((2, M + M // 2))
        self.windows = np.lib.stride_tricks.sliding_window_view(self.ends, M, axis=1)[:, 1:]
        self.kernel = np.empty((M, M))
        self.slope = np.empty((M, M))
        slots = M * M // 2 + 1
        self.x = np.empty(slots)
        self.values = np.empty((2, slots))
        self.work = np.empty((2, slots))


@functools.lru_cache(maxsize=1)  # one grid size at a time: about 4.5 M^2 doubles
def _workspace(M):
    return _Workspace(M)


def _offset_rows(ws, x, y):
    """Views X, Y of shape (M/2, M): row e - 1 holds x, y at the nodes r + e mod M.

    ``x`` and ``y`` are copied into the doubled vectors of ``ws``; the
    views stay valid until the next call on that workspace.
    """
    M = x.size
    ws.ends[0, :M], ws.ends[0, M:] = x, x[: M // 2]
    ws.ends[1, :M], ws.ends[1, M:] = y, y[: M // 2]
    return ws.windows


def _offset_chords(x, y, ws):
    """Chords |z_r - z_{r+e}| by offset rows, in the leading entries of ``ws.kernel``.

    Returns a flat view of M^2/2 + 1 entries (M even): a zero (the
    diagonal), then the rows e = 1..M/2 of r = 0..M-1.  These are the
    slots of the full-grid plan of :func:`pair_plan`, whose second half
    of the last row repeats the classes of its first half.  Every chord
    is bitwise the one a gather of the node coordinates forms.
    """
    M = x.size
    flat = ws.kernel.reshape(-1)[: M // 2 * M + 1]
    flat[0] = 0.0
    A = flat[1:].reshape(M // 2, M)
    dy = ws.work[0, : A.size].reshape(A.shape)
    X, Y = _offset_rows(ws, x, y)
    np.subtract(X, x, out=A)
    A *= A
    np.subtract(Y, y, out=dy)
    dy *= dy
    A += dy
    np.sqrt(A, out=A)
    return flat


def _pair_chords(x, y, ws, plan):
    """Chords |z_j - z_k| of the plan's representative pairs, in ``ws.kernel``.

    ``x`` and ``y`` are the node coordinates.  The full-grid plan (its
    block is square) takes its chords from :func:`_offset_chords`; a
    rotation plan gathers the coordinates of its pairs, through
    ``ws.work``.  The chord of slot 0 is exactly zero, and every chord
    is bitwise the entry of the full chord matrix at its representative
    and at its transpose.
    """
    if plan.inverse.shape[0] == x.size:
        return _offset_chords(x, y, ws)
    n = plan.first.size
    A = ws.kernel.reshape(-1)[:n]
    dy, gathered = ws.work[:2, :n]
    plan.take(x, plan.first, A)
    A -= plan.take(x, plan.second, gathered)
    A *= A
    plan.take(y, plan.first, dy)
    dy -= plan.take(y, plan.second, gathered)
    dy *= dy
    A += dy
    return np.sqrt(A, out=A)


def _degree(level):
    """Degree K of the per-offset interpolant on |u| <= w = 2^-level.

    g(a_e (1 + u)) is analytic inside the Bernstein ellipse through its
    singularity at u = -1 (A = 0), of parameter
    rho = 1/w + sqrt(1/w^2 - 1), so the degree-K Chebyshev interpolant
    with K = ceil(37 / ln rho) is within about e^-37 of it: K = 18 at
    level 2, 9 at level 5, 2 from level 26.
    """
    w = math.ldexp(1.0, -level)
    return math.ceil(37.0 / math.log(1.0 / w + math.sqrt(1.0 / (w * w) - 1.0)))


@functools.lru_cache(maxsize=4)
def _offset_table(M, alpha):
    """Per-offset polynomials of the kernel and its slope on the chords A = a_e (1 + u).

    a_e = 2 sin(pi e / M) is the unit-circle chord at offset e.  Each of
    g(A) and S(A) = g'(A)/A is interpolated in its own right (a derivative
    of the kernel's interpolant would amplify its rounding by about 1/w)
    by Chebyshev polynomials of degree K = 18 on |u| <= w = 1/4, the
    level-2 interpolant of :func:`_degree`, from the K + 1 node values
    per offset of one :func:`_kernel_values` call.  Returns the
    coefficients of u^0..u^K, shape (2, K + 1, M/2, 1), read-only: kernel,
    then slope, each for Horner's rule with each column broadcast along
    its offset row.  A patch of width w <= 2^-L takes the leading
    ``_degree(L) + 1`` rows.  Up to w = 1/4 the truncated level-2 table
    stays within 7.2e-15 of :func:`_kernel_values` for the kernel
    (absolute) and 2.6e-13 for the slope (relative to max(1, |S|);
    8.5e-15 for alpha >= 0.3), on M = 64, 256 and 512 and alpha = 0.05,
    0.3, 0.7 and 5, so one table per (M, alpha) serves every width.  The four most
    recent tables are kept, 19 M doubles each.
    """
    w, K = 0.25, _degree(2)
    theta = np.pi * (np.arange(K + 1) + 0.5) / (K + 1)
    chords = np.outer(_disc_chords(M), 1.0 + w * np.cos(theta)).reshape(-1)
    values = np.stack(_kernel_values(alpha, chords, chords == 0.0, slope=True))
    values = values.reshape(2, M // 2, K + 1)
    mean = values.mean(axis=2, keepdims=True)
    values -= mean  # the transform then sums variations, not the rounding of g
    cheb = np.cos(np.outer(np.arange(K + 1), theta)) @ values.transpose(0, 2, 1)
    cheb *= 2.0 / (K + 1)
    cheb[:, 0] *= 0.5
    cheb[:, 0] += mean[:, :, 0]
    table = sf._monomial(cheb.transpose(1, 0, 2))
    table /= (w ** np.arange(K + 1))[:, None, None]  # s = u / w, exact: w is a power of 2
    table = np.ascontiguousarray(table.transpose(1, 0, 2)[..., None])
    table.flags.writeable = False
    return table


def _kernel_block(alpha, x, y, period, reflect=False, slope=False):
    """Kernel block G on the nodes (x, y) and, with ``slope``, S = g'(A)/A.

    The rows are those of ``pair_plan(x.size, period, reflect)``.  Its
    slot chords (:func:`_pair_chords`), and so every chord of the block,
    are checked first: one between distinct nodes below 1e-12, or NaN,
    raises :class:`GeometryError`.  The kernel is evaluated once per slot
    and gathered into ``ws.kernel``, the slope into ``ws.slope``; S is
    None without ``slope``.  On the full grid G is bitwise symmetric.

    The slots take the kernel and slope from the offset tables
    (:func:`_offset_kernel`), and a patch past their width of 1/4 from
    :func:`_kernel_values`.
    """
    M = x.size
    ws, plan = _workspace(M), pair_plan(M, period, reflect)
    chords = _pair_chords(x, y, ws, plan)
    if not chords[1:].min() >= 1e-12:  # slot 0 is the diagonal
        raise GeometryError("boundary self-intersects on the grid")
    K, S = _offset_kernel(alpha, ws, chords, plan.width, slope) or _kernel_values(
        alpha, chords, 0, slope
    )
    rows = plan.inverse.shape[0]
    G = plan.take(K, plan.inverse, ws.kernel[:rows])
    return G, None if S is None else plan.take(S, plan.inverse, ws.slope[:rows])


def _offset_kernel(alpha, ws, chords, width, slope):
    """Kernel and, with ``slope``, slope on the slots of ``chords``, in ``ws.values``.

    The slots after the diagonal are M/2 offset rows of ``width``
    (:class:`PairPlan`).  With u = A / a_e - 1 on each row and
    w = max |u|, the rows are summed by Horner's rule from the leading
    ``_degree(L) + 1`` rows of the :func:`_offset_table`, of level
    L = max(2, -k) for w = m 2^k, 1/2 <= m < 1, so w <= 2^-L (L = 2 at
    w = 0).  Returns (K, S), S None without ``slope``; past w = 1/4 (a
    patch far from the circle) it returns None, and
    :func:`_kernel_block` evaluates the slots directly.
    """
    M, n = ws.cos.size, chords.size
    shape = (M // 2, width)
    u = np.divide(chords[1:].reshape(shape), ws.disc, out=ws.x[1:n].reshape(shape))
    u -= 1.0
    w = max(u.max(), -u.min())
    if w > 0.25:
        return None
    degree = _degree(max(2, -math.frexp(w)[1]))
    out = ws.values[:, :n]
    for coef, values in zip(_offset_table(M, alpha)[: 1 + slope, : degree + 1], out):
        sf._horner(u, coef, values[1:].reshape(shape))
    out[:, 0] = math.log(2 * alpha) - EULER_GAMMA, 0.0  # the diagonal limit, zero slope
    return out[0], out[1] if slope else None
