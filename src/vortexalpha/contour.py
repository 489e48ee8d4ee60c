"""Radial contour dynamics: evolution, linearization and conserved quantities.

State: the radial deformation r(theta) of a patch boundary
R(theta) = sqrt(1 + 2 r(theta)), sampled on M uniform nodes, advected in a
frame rotating with offset Omega.  The evolution law is

    dr/dt = -Omega dr/dtheta + F[r],
    F[r](theta) = avg_eta [log A + K_0(A/alpha)](theta, eta)
                  * d2/(dtheta deta) [R(theta) R(eta) sin(eta - theta)],

with A the chord length between boundary points and avg the normalized
(1/2pi) eta-integral.  The kernel, evaluated on the chords, is that of
:func:`vortexalpha.greens.combined_boundary_kernel`: the log singularities
of its two pieces cancel, leaving a continuous kernel with diagonal value
log(2 alpha) - gamma, so the plain trapezoid rule applies.

The eta-derivative form of the integrand factors through the boundary
tangent z' = (R' + i R) e^{i eta}: with the rotated kernel average

    V_j = e^{-i theta_j} avg_k G_jk z'_k,

    F_j = R'_j Im V_j - R_j Re V_j,

so one real product of the kernel matrix G with the M x 2 block
[Re z', Im z'] gives F (contour-dynamics form, Dritschel, Comput. Phys.
Rep. 10 (1989)).  A call costs one kernel evaluation on the chord
classes of :func:`vortexalpha.greens.pair_plan` (the M(M+1)/2 chords
j <= k on the full grid, about M msec / 2 for a fold-symmetric sector of
msec target rows), gathered into the kernel matrix, plus one M x M x 2
product, all in the workspace buffers of :mod:`vortexalpha.greens`; a
call allocates no array of the chord count.

The linearization uses d rho/dt = -d/dtheta (V rho + L rho) with
V = Omega - V^E - V^SW and L = L^E + L^SW.  Note the relative signs: they
are forced by the Fourier multiplier of the flat state (mode e_j evolves
with frequency j(Omega + bifurcation frequency)) and verified against
directional finite differences of the nonlinear right-hand side; the
bookkeeping in which V^SW enters with a plus sign is not self-consistent
with that multiplier and is rejected here.

The kinetic energy
E = -(1/4pi^2) int_D int_D [log + K_0(./alpha)](|z - zeta|) dA(z) dA(zeta)
is computed on the boundary.  The radial function

    F(r) = r^2 (log r - 1)/4 + alpha^2 (K_0(r/alpha) + log r)

has Laplacian log r + K_0(r/alpha), is continuous with
F(0) = alpha^2 (log(2 alpha) - gamma), and its r^2 log r terms cancel, so
F - F(0) - c r^2 = O(r^4 log r).  Green's theorem in each variable gives
the contour-dynamics form (Dritschel, Comput. Phys. Rep. 10 (1989))

    E = (1/4pi^2) oint oint Re(dz conj(d zeta)) F(|z - zeta|),

which the trapezoid rule on the M nodes sums with an observed error of
order M^-5.

Conventions: spatial mean of r is conserved by the flow (the right-hand
side is an exact theta-derivative); the Hamiltonian phase space assumes
zero mean, but patches with nonzero mean (e.g. converted V-states, whose
enclosed area differs from pi) evolve correctly and keep their mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectrum
from .errors import DomainError, GeometryError, GridError, InstabilityError
from .greens import (
    EULER_GAMMA, _kernel_block, _pair_chords, _workspace, green_kernel, pair_plan,
)
from .numerics import dealias_twothirds, spectral_derivative
from .spectrum import _integer


@dataclass(frozen=True)
class RadialPatch:
    """Radial deformation samples with the frame and model parameters.

    ``fold > 1`` declares exact discrete fold-symmetry (the first sector is
    tiled over the grid at construction); kernel sums then evaluate one
    sector of targets only, which the flow preserves.
    """

    samples: np.ndarray
    rotation_offset: float
    alpha: float
    fold: int = 1

    def __post_init__(self):
        r = np.asarray(self.samples, dtype=float)
        if r.ndim != 1 or r.size < 32 or r.size % 2:
            raise GridError("samples must be a 1-d even array of size >= 32")
        fold = _integer(self.fold, "fold")
        if fold < 1 or r.size % fold:
            raise GridError("fold must divide the grid size")
        _check_samples(r)
        if fold > 1:
            sector = r[: r.size // fold]
            if np.max(np.abs(r - np.tile(sector, fold))) > 1e-12:
                raise GridError("samples are not fold-symmetric")
            r = np.tile(sector, fold)
        if not 0 < self.alpha < math.inf:
            raise DomainError("alpha must be positive and finite")
        if not math.isfinite(self.rotation_offset):
            raise DomainError("rotation offset must be finite")
        object.__setattr__(self, "samples", r)
        object.__setattr__(self, "fold", fold)

    @property
    def size(self):
        return self.samples.size

    @property
    def radii(self):
        return np.sqrt(1.0 + 2.0 * self.samples)

    @property
    def mean(self):
        return float(self.samples.mean())

    def theta(self):
        return 2 * np.pi * np.arange(self.size) / self.size

    def replace_samples(self, samples):
        return RadialPatch(samples, self.rotation_offset, self.alpha, self.fold)


@dataclass(frozen=True)
class Diagnostics:
    """Conserved-quantity snapshot: H = (E - Omega J) / 2."""

    J: float
    E: float
    H: float
    mean_r: float


def _check_samples(r):
    if not np.isfinite(r).all():
        raise GeometryError("samples must be finite")
    if np.min(1.0 + 2.0 * r) <= 0.0:
        raise GeometryError("1 + 2r must stay positive")


def _geometry(patch):
    r = patch.samples
    _check_samples(r)
    R = np.sqrt(1.0 + 2.0 * r)
    Rp = spectral_derivative(r) / R
    return R, Rp


def _kernel_product(patch, msec, *columns):
    """R, R', the rotated kernel average V and G @ columns / M on msec target rows.

    The kernel matrix G of the first msec rows is evaluated once per
    chord class (transpose, and rotation by msec) and gathered in the
    workspace; on the full grid it is bitwise symmetric.  V_j =
    avg_k G_jk z'_k e^{-i theta_j} with the tangent z' = (R' + i R) e^{i eta}
    comes from G @ [Re z', Im z', *columns], one real product.
    """
    M = patch.size
    ws = _workspace(M)
    R, Rp = _geometry(patch)
    plan = pair_plan(M, msec, msec, False)
    c, s = ws.cos, ws.sin
    x, y = R * c, R * s
    G, _ = _kernel_block(patch.alpha, _pair_chords(x, y, ws, plan), ws, plan)
    Y = G @ np.column_stack((Rp * c - y, Rp * s + x, *columns))
    Y /= M
    V = (c - 1j * s)[:msec] * (Y[:, 0] + 1j * Y[:, 1])
    return R, Rp, V, Y[:, 2:]


def rhs(patch):
    """Time derivative of r: -Omega dr/dtheta + joint kernel integral.

    The output has exactly zero mean (the analytic right-hand side is a
    theta-derivative; the numerical mean, already at round-off by kernel
    antisymmetry, is subtracted), and its modes above the 2/3 band are
    zeroed.  Fold-symmetric patches evaluate one target sector and tile.
    """
    fold = patch.fold
    msec = patch.size // fold if fold > 1 else patch.size
    R, Rp, V, _ = _kernel_product(patch, msec)
    F = Rp[:msec] * V.imag - R[:msec] * V.real
    if fold > 1:
        F = np.tile(F, fold)
    out = dealias_twothirds(-patch.rotation_offset * spectral_derivative(patch.samples) + F)
    return out - out.mean()


def linearized_rhs(patch, direction):
    """Action of the linearized evolution on a zero-mean direction rho.

    Computes -d/dtheta (V rho + L rho), dealiased, with the advection
    speed V = Omega - V^E - V^SW and the joint integral operator
    (L rho)(theta) = avg_eta rho(eta) [log A + K_0(A/alpha)].  Both come
    from one product G @ [Re z', Im z', rho]: V^E + V^SW is Im V / R for
    the rotated average V of :func:`_kernel_product`, L rho its column.
    """
    rho = np.asarray(direction, dtype=float)
    if rho.shape != patch.samples.shape:
        raise GridError("direction must match the patch grid")
    R, _, V, rest = _kernel_product(patch, patch.size, rho)
    speed = patch.rotation_offset - V.imag / R
    out = dealias_twothirds(-spectral_derivative(speed * rho + rest[:, 0]))
    return out - out.mean()


def default_timestep(patch, c=0.25):
    """Advective step c (2 pi / M) / (|Omega| + |Omega_inf| + 1).

    The advective speed is estimated by its flat-state value plus margin;
    c = 0.25 is the integration default, c = 0.5 the stability cap
    enforced by :func:`step_rk4`.
    """
    speed = abs(patch.rotation_offset) + abs(spectrum.omega_infinity(patch.alpha)) + 1.0
    return c * (2 * np.pi / patch.size) / speed


def step_rk4(patch, dt):
    """Classical fourth-order step; preserves the spatial mean to round-off."""
    if dt == 0.0:
        raise DomainError("dt must be nonzero")
    if abs(dt) > default_timestep(patch, c=0.5) * (1 + 1e-12):
        raise DomainError(
            f"dt={dt} exceeds the advective stability bound "
            f"{default_timestep(patch, c=0.5):.3e}"
        )
    r = patch.samples

    def f(samples):
        try:
            return rhs(patch.replace_samples(samples))
        except GeometryError as exc:
            raise InstabilityError(
                f"geometry bound violated mid-step (dt={dt})"
            ) from exc

    k1 = f(r)
    k2 = f(r + 0.5 * dt * k1)
    k3 = f(r + 0.5 * dt * k2)
    k4 = f(r + dt * k3)
    new = r + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    try:
        return patch.replace_samples(new)
    except GeometryError as exc:
        raise InstabilityError(f"geometry bound violated after step (dt={dt})") from exc


def evolve(patch, T, dt=None, snapshot_every=None):
    """Integrate over [0, T] (T may be negative); returns (patch, snapshots).

    Snapshots are (t, RadialPatch) pairs taken every ``snapshot_every``
    steps (always including the final state) when requested.  T = 0
    takes no step and returns the input patch.  T and dt must be finite,
    and dt nonzero.
    """
    if not math.isfinite(T) or not (dt is None or (math.isfinite(dt) and dt != 0)):
        raise DomainError(f"T and dt must be finite and dt nonzero, got T={T!r}, dt={dt!r}")
    if T == 0:
        return patch, [(0.0, patch)] if snapshot_every else []
    if dt is None:
        dt = default_timestep(patch) * (1 if T >= 0 else -1)
    if T * dt < 0:
        raise DomainError("sign of dt must match sign of T")
    nsteps = max(1, int(np.ceil(abs(T / dt) - 1e-12)))
    dt = T / nsteps
    snaps = []
    current = patch
    for k in range(nsteps):
        current = step_rk4(current, dt)
        if snapshot_every and ((k + 1) % snapshot_every == 0 or k == nsteps - 1):
            snaps.append(((k + 1) * dt, current))
    return current, snaps


def diagnostics(patch, n_radial=None, n_angular=None, include_energy=True):
    """Angular momentum J (closed form), kinetic energy E and H = (E - Omega J)/2.

    E is the boundary double integral of the module docstring, summed by
    the trapezoid rule on the patch's own M nodes: O(M^2) time and memory,
    one :func:`green_kernel` call on the M(M-1)/2 distinct chords.  The
    error falls like M^-5 (on the disc at alpha = 0.3: 4e-6 relative at
    M = 32, 1e-10 at M = 256).  ``n_radial`` and ``n_angular`` are
    ignored; they are accepted for callers written for the earlier area
    quadrature.
    """
    r = patch.samples
    J = 0.25 * float(np.mean((1.0 + 2.0 * r) ** 2))
    E = _energy(patch) if include_energy else math.nan
    H = 0.5 * (E - patch.rotation_offset * J)
    return Diagnostics(J=J, E=E, H=H, mean_r=patch.mean)


def _energy(patch):
    """mean_{j,k} Re(z'_j conj z'_k) F(|z_j - z_k|), with F of the module docstring.

    The summand is symmetric: it is formed on the M(M-1)/2 pairs j < k
    of the grid's plan (in its diagonal order), summed once and doubled,
    and the diagonal, where F(0) = alpha^2 (log(2 alpha) - gamma) and
    |z'_j|^2 = R'_j^2 + R_j^2, is added in closed form.
    """
    M, alpha = patch.size, patch.alpha
    ws = _workspace(M)
    R, Rp = _geometry(patch)
    # Cartesian z = R e^{i theta} and z' = (R' + i R) e^{i theta}
    x, y = R * ws.cos, R * ws.sin
    xp, yp = Rp * ws.cos - y, Rp * ws.sin + x
    plan = pair_plan(M, M, M, False)
    j, k = plan.first[plan.zeros :], plan.second[plan.zeros :]
    a = _pair_chords(x, y, ws, plan)[plan.zeros :]
    W = xp[j] * xp[k] + yp[j] * yp[k]
    F = a * a * (np.log(a) - 1.0) / 4.0
    F += (2 * np.pi * alpha * alpha) * green_kernel(alpha, a)
    F0 = alpha * alpha * (math.log(2 * alpha) - EULER_GAMMA)
    diagonal = F0 * float(np.sum(Rp * Rp + R * R))
    return (2.0 * float(np.dot(W, F)) + diagonal) / M**2


def linear_qp_solution(S, amplitudes, Omega, alpha, t, M):
    """Samples of the explicit linear solution sum a_j cos(j theta - w_j t)."""
    S = [_integer(j, "each element of S") for j in S]
    if any(j < 1 for j in S):
        raise DomainError("S must contain positive integers")
    amplitudes = np.asarray(amplitudes, dtype=float)
    if amplitudes.shape != (len(S),) or np.any(amplitudes == 0.0):
        raise DomainError("one nonzero amplitude per mode required")
    theta = 2 * np.pi * np.arange(M) / M
    out = np.zeros(M)
    for j, a in zip(S, amplitudes):
        wj = spectrum.equilibrium_frequency(j, Omega, alpha)
        out += a * np.cos(j * theta - wj * t)
    return out


def qp_residual(S, amplitudes, Omega, alpha, t, M):
    """Max-norm defect of the linear solution in the flat-state equation."""
    S = [_integer(j, "each element of S") for j in S]
    theta = 2 * np.pi * np.arange(M) / M
    drho = np.zeros(M)
    for j, a in zip(S, np.asarray(amplitudes, dtype=float)):
        wj = spectrum.equilibrium_frequency(j, Omega, alpha)
        drho += a * wj * np.sin(j * theta - wj * t)
    rho = linear_qp_solution(S, amplitudes, Omega, alpha, t, M)
    flat = RadialPatch(np.zeros(M), Omega, alpha)
    return float(np.max(np.abs(drho - linearized_rhs(flat, rho))))


def vstate_to_radial(branch_point, M, Omega=None):
    """Convert a conformal V-state to radial samples on an M-grid.

    Inverts theta -> arg Phi(e^{i phi}) by Newton with exact (spectral)
    evaluation of the finite coefficient series.  Returns the patch and
    the achieved phase residual max |arg z(phi_k) - theta_k|; the latter
    is reported, not assumed, since the conformal and polar
    parametrizations are related only numerically.

    The resulting mean of r is (area/pi - 1)/2 < 0: conformal V-states
    enclose area pi (1 - sum n a_n^2).  Rescaling it away would change
    the effective length-scale parameter, so the mean is kept.

    ``Omega`` overrides the patch's rotation offset.  By default the offset
    is -Omega of the V-state, which makes it a steady state of :func:`rhs`:
    a flat-state mode e_j evolves with frequency j (offset +
    omega_bifurcation(j, alpha)), while V-states bifurcate at
    Omega = omega_bifurcation(m, alpha).
    """
    pert = branch_point.perturbation
    theta = 2 * np.pi * np.arange(M) / M
    phi = theta.copy()
    for _ in range(50):
        w = np.exp(1j * phi)
        z = pert.map_points(w)
        zp = 1j * w * pert.map_derivative(w)
        err = np.angle(z * np.exp(-1j * theta))
        if np.max(np.abs(err)) < 1e-14:
            break
        dgdphi = np.imag(zp * np.conj(z)) / np.abs(z) ** 2
        phi -= err / dgdphi
    w = np.exp(1j * phi)
    z = pert.map_points(w)
    residual = float(np.max(np.abs(np.angle(z * np.exp(-1j * theta)))))
    r = 0.5 * (np.abs(z) ** 2 - 1.0)
    om = -branch_point.Omega if Omega is None else Omega
    fold = branch_point.m if M % branch_point.m == 0 else 1
    return RadialPatch(r, om, branch_point.alpha, fold=fold), residual
