"""Green kernel of the Euler-alpha model and boundary-integral velocity.

The stream kernel is G(rho) = (1/2pi)(log rho + K_0(rho/alpha)): the Euler
log kernel plus a screened correction.  The two pieces have cancelling log
singularities, so their sum extends continuously to the diagonal with value
log(2 alpha) - gamma.  :func:`combined_boundary_kernel` is the one
evaluator of that sum in the package: the boundary quadratures here, the
contour dynamics in :mod:`vortexalpha.contour` and the rotating-patch
functional in :mod:`vortexalpha.vstates` all call it on their chord
matrices, and its zero entries take the analytic limit (the trapezoid
weights and symmetry are preserved).

Line integrals over the circle parameter use the plain (1/2pi) d-theta
convention of the velocity representation
     v(z) = -(1/2pi) oint [log|z-xi| + K_0(|z-xi|/alpha)] d-xi ;
the conformal functional in :mod:`vortexalpha.vstates` uses the
1/(2 i pi)-normalized line integral instead -- each usage documents its
convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun as sf
from .errors import DomainError, GridError

EULER_GAMMA = sf.EULER_GAMMA


@dataclass(frozen=True)
class Boundary:
    """Closed curve sampled at M uniform parameter values on [0, 2pi).

    ``points[k]`` is the complex position at theta_k = 2 pi k / M and
    ``tangents[k]`` the parameter derivative d xi / d theta there.  The
    closing node theta = 2pi must not be duplicated.
    """

    points: np.ndarray
    tangents: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        tan = np.asarray(self.tangents, dtype=complex)
        if pts.ndim != 1 or pts.shape != tan.shape:
            raise GridError("points and tangents must be 1-d arrays of equal size")
        if pts.size < 8:
            raise GridError("boundary needs at least 8 nodes")
        if pts.size % 2 != 0:
            raise GridError("boundary grid size must be even")
        if pts[0] == pts[-1]:
            raise GridError(
                "boundary looks endpoint-duplicated; drop the closing node"
            )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "tangents", tan)

    @property
    def size(self):
        return self.points.size


def boundary_circle(radius=1.0, M=256):
    """Uniformly sampled circle of given radius."""
    theta = 2 * np.pi * np.arange(M) / M
    w = np.exp(1j * theta)
    return Boundary(radius * w, 1j * radius * w)


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
    shape.  The input is not modified.  Zero entries are evaluated at
    rho = alpha, whose K_0 argument lies in the series band, and then
    overwritten by the limit.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    arr = np.asarray(rho, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 0):
        raise DomainError("rho must be nonnegative")
    x = arr / alpha
    zero = arr == 0.0
    has_zero = zero.any()
    if has_zero:
        x[zero] = 1.0
    out = sf.k0_array(x)
    with np.errstate(divide="ignore"):
        out += np.log(arr, out=x)
    if has_zero:
        out[zero] = math.log(2 * alpha) - EULER_GAMMA
    return float(out[0]) if scalar else out


def velocity_at(alpha, boundary, z):
    """Filtered velocity at a complex point from the boundary integral.

    Trapezoidal rule on the uniform parameter grid; if z falls on a grid
    node the (continuous) combined kernel takes its diagonal limit there.
    """
    return complex(velocity_field(alpha, boundary, z))


def velocity_field(alpha, boundary, targets):
    """:func:`velocity_at` over an array of targets, in one kernel call."""
    if not isinstance(boundary, Boundary):
        raise GridError("boundary must be a Boundary instance")
    targets = np.asarray(targets, dtype=complex)
    rho = np.abs(targets.reshape(-1, 1) - boundary.points)
    vals = combined_boundary_kernel(alpha, rho)
    return -(vals * boundary.tangents).mean(axis=1).reshape(targets.shape)


@dataclass(frozen=True)
class ConvergenceReport:
    """Grid-doubling record for the boundary quadrature."""

    grid_sizes: tuple
    values: tuple
    observed_order: float


def velocity_convergence(alpha, curve, z, M0=64, levels=3):
    """Observed convergence order of velocity_at under grid doubling.

    ``curve(M)`` must return the Boundary resampled at M nodes.  The order
    is estimated from the last three levels by Richardson comparison.
    """
    sizes = [M0 * 2**k for k in range(levels + 1)]
    vals = [velocity_at(alpha, curve(M), z) for M in sizes]
    d1 = abs(vals[-2] - vals[-1])
    d0 = abs(vals[-3] - vals[-2])
    order = math.log2(d0 / d1) if d1 > 0 else math.inf
    return ConvergenceReport(tuple(sizes), tuple(vals), order)

