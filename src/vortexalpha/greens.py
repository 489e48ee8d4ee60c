"""Green kernel of the Euler-alpha model and the chord layout of its solvers.

The stream kernel is G(rho) = (1/2pi)(log rho + K_0(rho/alpha)): the Euler
log kernel plus a screened correction.  The two pieces have cancelling log
singularities, so their sum extends continuously to the diagonal with value
log(2 alpha) - gamma.  :func:`combined_boundary_kernel` is the one
evaluator of that sum in the package; the contour dynamics in
:mod:`vortexalpha.contour` and the rotating-patch functional in
:mod:`vortexalpha.vstates` call its buffered core :func:`_kernel_into`
on their chords, and its zero entries take the analytic limit (the
trapezoid weights and symmetry are preserved).  On request the buffered
core also gives the slope g'(rho)/rho of the sum, from the same Bessel
tables, for the exact V-state Jacobian.

:func:`pair_plan` is the one chord layout of those solvers.  A chord
matrix |z_j - z_k| on M uniform nodes is symmetric, and a patch with
discrete rotational symmetry (and, for real conformal coefficients, with
mirror symmetry) repeats each chord many times.  A plan is named by that
symmetry alone: its rotation period fixes the target rows (one period,
or its odd half with the mirror), and it lists every chord class of
those rows once, ordered by circulant offset, so the kernel is evaluated
once per class and gathered into the block.  A pair's class is its
shorter offset and the least residue of the nodes that start it, modulo
the period (and mirror images); all zero chords form class 0, the
diagonal.  On a near-circle the chords of one offset are nearly equal
and grow with the offset, so the K_0 arguments in this order cross the
series/fit switch at x = 3 only a few times.

Both solvers share its chord-class step: :func:`_pair_chords` forms the
representative chords from the node coordinates, and :func:`_kernel_block`
evaluates the kernel (on request with its slope) once per class and
gathers the block, both in the per-grid buffers of :class:`_Workspace`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import specfun as sf
from .errors import DomainError, GridError

EULER_GAMMA = sf.EULER_GAMMA


@dataclass(frozen=True)
class PairPlan:
    """Chord classes of a target block against all M nodes, each listed once.

    ``first`` and ``second`` hold the representative node pair
    (r, (r + e) mod M) of every class, sorted by circulant offset
    e = min((k - j) mod M, (j - k) mod M) and, within one offset, by the
    start residue r of :func:`pair_plan`; class 0 is the diagonal (0, 0),
    the one class of zero chords.  ``inverse[j, k]`` is the class of the
    pair (j, k), so a kernel K evaluated on the representative chords
    gives the block as ``K[inverse]``.  The index arrays are read-only,
    since the cache shares them; gather with :meth:`take` into a buffer.
    """

    first: np.ndarray
    second: np.ndarray
    inverse: np.ndarray

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
    their images) name the class; every zero chord is class 0.  The
    classes are listed by e, then r, with representative
    (r, (r + e) mod M): O(period M) integer work, with key tables of
    (M/2 + 1) period entries.

    The four most recent plans are kept.  One of n classes holds
    rows M + 2 n index words (8 bytes each), with n <= M(M-1)/2 + 1:
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
    key += start
    del start
    key[key < period] = 0  # one diagonal class: its chords are all exactly zero
    seen = np.zeros((M // 2 + 1) * period, dtype=bool)
    seen[key] = True
    rank = np.cumsum(seen, dtype=np.intp) - 1
    inverse = rank[key]
    del rank, key
    offset, first = np.divmod(np.flatnonzero(seen), period)
    second = first + offset
    second %= M
    views = [a.view() for a in (first, second, inverse)]
    for v in views:
        v.flags.writeable = False  # shared by every caller of the cache
    return PairPlan(*views)


def green_kernel(alpha, rho):
    """Stream kernel (1/2pi)(log rho + K_0(rho/alpha)); rho > 0.

    Accepts scalars or arrays; every entry must be positive.
    """
    if np.any(np.asarray(rho, dtype=float) <= 0):
        raise DomainError("green_kernel requires rho > 0")
    out = combined_boundary_kernel(alpha, rho)
    out /= 2 * np.pi
    return out


def combined_boundary_kernel(alpha, rho):
    """log rho + K_0(rho/alpha), continued by log(2 alpha) - gamma at rho = 0.

    A scalar gives a float; an array of any shape gives an array of that
    shape.  The input is not modified.
    """
    if not 0 < alpha < math.inf:
        raise DomainError("alpha must be positive and finite")
    arr = np.asarray(rho, dtype=float)
    if np.any(arr < 0):
        raise DomainError("rho must be nonnegative")
    flat = arr.reshape(-1)
    n = flat.size
    out = _kernel_into(alpha, flat, flat == 0.0, np.empty(n), np.empty(n), np.empty((2, n)))
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _kernel_into(alpha, rho, zero, x, out, work, slope=None):
    """:func:`combined_boundary_kernel` of a flat rho into caller-owned buffers.

    ``zero`` indexes the zero entries of rho (a mask, or 0 for class 0 of
    a :class:`PairPlan`, the diagonal); ``x`` and ``out`` have rho's size
    and ``work`` is (2, rho.size) scratch for
    :func:`vortexalpha.specfun.k0_array` (a third row goes unused).  Zero
    entries are evaluated at rho = alpha, whose K_0 argument lies in the
    series band, and then overwritten by the limit.  A ``slope`` buffer of
    rho's size receives g'(rho)/rho = (1/x^2 - K_1(x)/x) / alpha^2,
    x = rho/alpha, the kernel's derivative over the chord (0 at the zero
    entries; the kernel values are the same as without it); ``work`` then
    needs 3 rows.  Returns ``out``.
    """
    np.divide(rho, alpha, out=x)
    x[zero] = 1.0
    sf.k0_array(x, out, work, slope)
    if slope is not None:
        slope /= alpha * alpha
        slope[zero] = 0.0
    with np.errstate(divide="ignore"):
        out += np.log(rho, out=x)
    out[zero] = math.log(2 * alpha) - EULER_GAMMA
    return out


class _Workspace:
    """Per-grid node vectors and the buffers of the chord-class kernel block.

    ``cos`` and ``sin`` hold cos theta_k and sin theta_k at the M nodes;
    the other buffers fit the most chord classes a plan can have,
    M(M-1)/2 + 1: the pairs j < k and the diagonal.  ``kernel`` (M x M)
    holds the chords of :func:`_pair_chords` in its leading entries, then
    the block of :func:`_kernel_block`; ``x`` holds A/alpha and then
    log A, ``k0`` the kernel per class.  The first slope request adds a
    third ``work`` row, ``slope`` and ``slopes``, so callers that never
    ask for one keep the smaller footprint.  One instance serves one grid
    size for both solvers, and is not reentrant.  The chords and blocks
    are views, valid until chords are next formed on that grid size: a
    :func:`vortexalpha.vstates.evaluate_F` call invalidates the views of a
    :func:`vortexalpha.contour.rhs` call, and the reverse.  What the
    solvers return owns its memory.
    """

    def __init__(self, M):
        theta = 2 * np.pi * np.arange(M) / M
        self.cos = np.cos(theta)
        self.sin = np.sin(theta)
        self.kernel = np.empty((M, M))
        classes = M * (M - 1) // 2 + 1
        self.x = np.empty(classes)
        self.k0 = np.empty(classes)
        self.work = np.empty((2, classes))
        self.slope = self.slopes = None


@functools.lru_cache(maxsize=1)  # one grid size at a time: about 3 M^2 doubles, 5 with slopes
def _workspace(M):
    return _Workspace(M)


def _pair_chords(x, y, ws, plan):
    """Chords |z_j - z_k| of the plan's representative pairs, in ``ws.kernel``.

    ``x`` and ``y`` are the node coordinates; ``ws.work`` holds the
    gathered ones.  The chord of class 0 is exactly zero, and every
    chord is bitwise the entry of the full chord matrix at its
    representative and at its transpose.
    """
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


def _kernel_block(alpha, chords, ws, plan, slope=False):
    """Kernel block G of the plan's target rows and, with ``slope``, S = g'(A)/A.

    The kernel of the representative ``chords`` from :func:`_pair_chords`
    is evaluated once per class and gathered into ``ws.kernel``, over the
    chords, and the slope into ``ws.slopes``; S is None without ``slope``.
    On the full grid G is bitwise symmetric.
    """
    n, rows = plan.first.size, plan.inverse.shape[0]
    if slope and ws.slope is None:
        classes = ws.x.size
        ws.work = np.empty((3, classes))
        ws.slope = np.empty(classes)
        ws.slopes = np.empty_like(ws.kernel)
    K = _kernel_into(
        alpha, chords, 0, ws.x[:n], ws.k0[:n], ws.work[:, :n], ws.slope[:n] if slope else None
    )
    G = plan.take(K, plan.inverse, ws.kernel[:rows])
    return G, plan.take(ws.slope[:n], plan.inverse, ws.slopes[:rows]) if slope else None
