"""Green kernel of the Euler-alpha model and the chord layout of its solvers.

The stream kernel is G(rho) = (1/2pi)(log rho + K_0(rho/alpha)): the Euler
log kernel plus a screened correction.  The two pieces have cancelling log
singularities, so their sum extends continuously to the diagonal with value
log(2 alpha) - gamma.  :func:`combined_boundary_kernel` is the one
evaluator of that sum in the package; the contour dynamics in
:mod:`vortexalpha.contour` and the rotating-patch functional in
:mod:`vortexalpha.vstates` call its buffered core on their chords, and
its zero entries take the analytic limit (the trapezoid weights and
symmetry are preserved).  On request it also gives the slope
g'(rho)/rho of the sum, from the same Bessel tables, for the exact
V-state Jacobian.

:func:`pair_plan` is the one chord layout of those solvers.  A chord
matrix |z_j - z_k| on M uniform nodes is symmetric, and a patch with
discrete rotational symmetry (and, for real conformal coefficients, with
mirror symmetry) repeats each chord many times.  The plan lists every
chord class of a target block once, ordered by circulant offset, so the
kernel is evaluated once per class and gathered into the block.  On a
near-circle the chords of one offset are nearly equal and grow with the
offset, so the K_0 arguments in this order cross the series/fit switch
at x = 3 only a few times.

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
    """Chord classes of a rows x M target block, each listed once.

    ``first`` and ``second`` hold the representative node pair (j_r, k_r)
    of every class, sorted by circulant offset
    d = min((k - j) mod M, (j - k) mod M) and, within one offset, by
    j_r M + k_r; the first ``zeros`` classes have d = 0, the diagonal,
    whose chords are exactly zero.
    ``inverse[j, k]`` is the class of the pair (j, k), so a kernel K
    evaluated on the representative chords gives the block as
    ``K[inverse]``.  The index arrays are read-only, since the cache
    shares them; gather with :meth:`take` into a buffer.
    """

    first: np.ndarray
    second: np.ndarray
    zeros: int
    inverse: np.ndarray

    def take(self, values, indices, out):
        """``values[indices]`` into ``out`` for one of the plan's index arrays.

        ``np.take`` copies an index array that is not writeable, so this
        reads the writeable array behind the read-only view instead.
        """
        return np.take(values, indices.base, out=out, mode="clip")


@functools.lru_cache(maxsize=4)
def pair_plan(M, rows, period, reflect):
    """The :class:`PairPlan` of target rows 0..rows-1 against all M nodes.

    Two pairs share a class when a chain of these maps takes one to the
    other: the transpose (j, k) -> (k, j), the rotation
    (j, k) -> (j + period, k + period) mod M, and, if ``reflect``, the
    reflection (j, k) -> (-j, -k) mod M.  A chord matrix must be
    invariant under them: ``period = M`` means no rotation.  The
    representative is the pair of the orbit with the least j M + k.
    Built from integer arithmetic in O(M^2) time, with temporaries of a
    few M^2 words.

    The four most recent plans are kept.  One holds at most 3 rows M
    index words (8 bytes each), about 2 rows M in practice: 1 MiB for
    rows = M = 256.
    """
    if not 1 <= rows <= M or period < 1 or M % period:
        raise GridError("need 1 <= rows <= M and a period that divides M")
    j = np.arange(rows)[:, None]
    k = np.arange(M)
    key = np.full((rows, M), M * M)
    for t in range(0, M, period):
        images = [((j + t) % M, (k + t) % M)]
        if reflect:
            images.append(((t - j) % M, (t - k) % M))
        for a, b in images:
            np.minimum(key, a * M + b, out=key)
            np.minimum(key, b * M + a, out=key)
    seen = np.zeros(M * M, dtype=bool)
    seen[key] = True
    reps = np.flatnonzero(seen)
    del seen
    d = (reps % M - reps // M) % M
    d = np.minimum(d, M - d)
    zeros = int(np.count_nonzero(d == 0))
    # by offset, then by j M + k; the temporaries are freed as soon as
    # possible, since a plan is built next to the solvers' own buffers
    reps = np.sort(d * (M * M) + reps) % (M * M)
    del d
    rank = np.empty(M * M, dtype=np.intp)  # read only at the representatives
    rank[reps] = np.arange(reps.size)
    inverse = rank[key]
    del rank, key
    first, second = np.divmod(reps, M)
    views = [a.view() for a in (first, second, inverse)]
    for v in views:
        v.flags.writeable = False  # shared by every caller of the cache
    return PairPlan(views[0], views[1], zeros, views[2])


def green_kernel(alpha, rho):
    """Stream kernel (1/2pi)(log rho + K_0(rho/alpha)); rho > 0.

    Accepts scalars or arrays; every entry must be positive.
    """
    if np.any(np.asarray(rho, dtype=float) <= 0):
        raise DomainError("green_kernel requires rho > 0")
    out = combined_boundary_kernel(alpha, rho)
    out /= 2 * np.pi
    return out


def combined_boundary_kernel(alpha, rho, slope=False):
    """log rho + K_0(rho/alpha), continued by log(2 alpha) - gamma at rho = 0.

    A scalar gives a float; an array of any shape gives an array of that
    shape.  The input is not modified.  With ``slope`` the result is the
    pair (kernel, g'(rho)/rho), where g'(rho)/rho = (1/x^2 - K_1(x)/x) /
    alpha^2, x = rho/alpha, is the kernel's derivative over the chord,
    set to 0 at rho = 0; the kernel values are the same as without it.
    """
    if not 0 < alpha < math.inf:
        raise DomainError("alpha must be positive and finite")
    arr = np.asarray(rho, dtype=float)
    if np.any(arr < 0):
        raise DomainError("rho must be nonnegative")
    flat = arr.reshape(-1)
    n = flat.size
    d = np.empty(n) if slope else None
    out = _kernel_into(
        alpha, flat, flat == 0.0, np.empty(n), np.empty(n),
        np.empty((3 if slope else 2, n)), d,
    )

    def shaped(v):
        return float(v[0]) if arr.ndim == 0 else v.reshape(arr.shape)

    return (shaped(out), shaped(d)) if slope else shaped(out)


def _kernel_into(alpha, rho, zero, x, out, work, slope=None):
    """:func:`combined_boundary_kernel` of a flat rho into caller-owned buffers.

    ``zero`` indexes the zero entries of rho (a mask or a slice); ``x``
    and ``out`` have rho's size and ``work`` is (2, rho.size) scratch for
    :func:`vortexalpha.specfun.k0_array` (a third row goes unused).  Zero
    entries are evaluated at rho = alpha, whose K_0 argument lies in the
    series band, and then overwritten by the limit.  A ``slope`` buffer of
    rho's size receives g'(rho)/rho (0 at the zero entries); ``work`` then
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
    M(M+1)/2.  ``kernel`` (M x M) holds the chords of :func:`_pair_chords`
    in its leading entries, then the block of :func:`_kernel_block`; ``x``
    holds A/alpha and then log A, ``k0`` the kernel per class.  The first
    slope request adds a third ``work`` row, ``slope`` and ``slopes``, so
    callers that never ask for one keep the smaller footprint.  One
    instance serves one grid size for both solvers, and is not
    reentrant.  The chords and blocks are views, valid until chords are
    next formed on that grid size: a :func:`vortexalpha.vstates.evaluate_F`
    call invalidates the views of a :func:`vortexalpha.contour.rhs` call,
    and the reverse.  What the solvers return owns its memory.
    """

    def __init__(self, M):
        theta = 2 * np.pi * np.arange(M) / M
        self.cos = np.cos(theta)
        self.sin = np.sin(theta)
        self.kernel = np.empty((M, M))
        classes = M * (M + 1) // 2
        self.x = np.empty(classes)
        self.k0 = np.empty(classes)
        self.work = np.empty((2, classes))
        self.slope = self.slopes = None


_workspaces = {}  # the most recent grid size only: about 3 M^2 doubles, 5 M^2 with slopes


def _workspace(M):
    ws = _workspaces.get(M)
    if ws is None:
        _workspaces.clear()
        ws = _workspaces[M] = _Workspace(M)
    return ws


def _pair_chords(x, y, ws, plan):
    """Chords |z_j - z_k| of the plan's representative pairs, in ``ws.kernel``.

    ``x`` and ``y`` are the node coordinates; ``ws.work`` holds the
    gathered ones.  The zero-offset chords are exactly zero, and every
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
        alpha, chords, slice(0, plan.zeros), ws.x[:n], ws.k0[:n], ws.work[:, :n],
        ws.slope[:n] if slope else None,
    )
    G = plan.take(K, plan.inverse, ws.kernel[:rows])
    return G, plan.take(ws.slope[:n], plan.inverse, ws.slopes[:rows]) if slope else None
