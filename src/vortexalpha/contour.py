"""Radial contour dynamics: evolution, linearization and conserved quantities.

State: the radial deformation r(theta) of a patch boundary
R(theta) = sqrt(1 + 2 r(theta)), sampled on M uniform nodes, advected in a
frame rotating with offset Omega.  The evolution law is

    dr/dt = -Omega dr/dtheta + F[r],
    F[r](theta) = avg_eta [log A + K_0(A/alpha)](theta, eta)
                  * d2/(dtheta deta) [R(theta) R(eta) sin(eta - theta)],

with A the chord length between boundary points and avg the normalized
(1/2pi) eta-integral.  The kernel is evaluated on the chord matrix by
:func:`vortexalpha.greens.combined_boundary_kernel`: the log singularities
of its two pieces cancel, leaving a continuous kernel with diagonal value
log(2 alpha) - gamma, so the plain trapezoid rule applies.

The linearization uses d rho/dt = -d/dtheta (V rho + L rho) with
V = Omega - V^E - V^SW and L = L^E + L^SW.  Note the relative signs: they
are forced by the Fourier multiplier of the flat state (mode e_j evolves
with frequency j(Omega + bifurcation frequency)) and verified against
directional finite differences of the nonlinear right-hand side; the
bookkeeping in which V^SW enters with a plus sign is not self-consistent
with that multiplier and is rejected here.

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
from .greens import combined_boundary_kernel, green_kernel
from .numerics import dealias_twothirds, spectral_derivative


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
        fold = int(self.fold)
        if fold < 1 or r.size % fold:
            raise GridError("fold must divide the grid size")
        if fold > 1:
            sector = r[: r.size // fold]
            if np.max(np.abs(r - np.tile(sector, fold))) > 1e-12:
                raise GridError("samples are not fold-symmetric")
            r = np.tile(sector, fold)
        if np.min(1.0 + 2.0 * r) <= 0.0:
            raise GeometryError("1 + 2r must stay positive")
        if self.alpha <= 0:
            raise DomainError("alpha must be positive")
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


def patch_from_modes(modes, amplitudes, Omega, alpha, M):
    """Zero-mean patch r = sum_k amplitudes[k] cos(modes[k] theta)."""
    theta = 2 * np.pi * np.arange(M) / M
    r = np.zeros(M)
    for j, a in zip(modes, amplitudes):
        r += a * np.cos(int(j) * theta)
    return RadialPatch(r, Omega, alpha)


@dataclass(frozen=True)
class Diagnostics:
    """Conserved-quantity snapshot: H = (E - Omega J) / 2."""

    J: float
    E: float
    H: float
    mean_r: float


def _eval_trig(samples, theta):
    """Trigonometric interpolation of uniform samples at arbitrary angles."""
    samples = np.asarray(samples, dtype=float)
    M = samples.size
    fk = np.fft.rfft(samples) / M
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    out = np.full(theta.shape, fk[0].real)
    for k in range(1, fk.size):
        w = 2.0 if (k < M // 2 or M % 2) else 1.0
        out += w * (fk[k].real * np.cos(k * theta) - fk[k].imag * np.sin(k * theta))
    return out


class _Workspace:
    """Per-grid trigonometric tables shared by all kernel sums."""

    def __init__(self, M):
        theta = 2 * np.pi * np.arange(M) / M
        diff = theta[None, :] - theta[:, None]  # eta - theta
        self.cos = np.cos(diff)
        self.sin = np.sin(diff)
        self.M = M


_workspaces = {}  # the most recent grid size only: 2 M^2 doubles


def _workspace(M):
    ws = _workspaces.get(M)
    if ws is None:
        _workspaces.clear()
        ws = _workspaces[M] = _Workspace(M)
    return ws


def _geometry(patch):
    r = patch.samples
    if np.min(1.0 + 2.0 * r) <= 0.0:
        raise GeometryError("1 + 2r must stay positive")
    R = np.sqrt(1.0 + 2.0 * r)
    Rp = spectral_derivative(r) / R
    return R, Rp


def _chord_matrix(R, ws, msec=None):
    """Chord lengths for the first msec target rows against all sources."""
    msec = msec or R.size
    Rr = R[:msec, None]
    a2 = Rr**2 + R[None, :] ** 2 - 2.0 * (Rr * R[None, :]) * ws.cos[:msec]
    diag = (np.arange(msec), np.arange(msec))
    a2[diag] = 0.0
    return np.sqrt(np.maximum(a2, 0.0))


def _interaction(patch, msec=None):
    ws = _workspace(patch.size)
    R, Rp = _geometry(patch)
    A = _chord_matrix(R, ws, msec)
    G = combined_boundary_kernel(patch.alpha, A)
    return ws, R, Rp, G


def rhs(patch, dealias=True):
    """Time derivative of r: -Omega dr/dtheta + joint kernel integral.

    The output has exactly zero mean (the analytic right-hand side is a
    theta-derivative; the numerical mean, already at round-off by kernel
    antisymmetry, is subtracted).  Modes above the 2/3 band are zeroed
    unless ``dealias`` is disabled.  Fold-symmetric patches evaluate one
    target sector and tile.
    """
    fold = patch.fold
    msec = patch.size // fold if fold > 1 else patch.size
    ws, R, Rp, G = _interaction(patch, msec)
    # d2/(dtheta deta) [R(theta) R(eta) sin(eta-theta)] on the grid
    Rr, Rpr = R[:msec, None], Rp[:msec, None]
    D = (Rpr * Rp[None, :] + Rr * R[None, :]) * ws.sin[:msec] + (
        Rpr * R[None, :] - Rr * Rp[None, :]
    ) * ws.cos[:msec]
    F = (G * D).mean(axis=1)
    if fold > 1:
        F = np.tile(F, fold)
    out = -patch.rotation_offset * spectral_derivative(patch.samples) + F
    if dealias:
        out = dealias_twothirds(out)
    return out - out.mean()


def linearized_rhs(patch, direction, dealias=True):
    """Action of the linearized evolution on a zero-mean direction rho.

    Computes -d/dtheta (V rho + L rho) with the advection speed
    V = Omega - V^E - V^SW and the joint integral operator
    (L rho)(theta) = avg_eta rho(eta) [log A + K_0(A/alpha)].
    """
    rho = np.asarray(direction, dtype=float)
    if rho.shape != patch.samples.shape:
        raise GridError("direction must match the patch grid")
    ws, R, Rp, G = _interaction(patch)
    dsrc = Rp[None, :] * ws.sin + R[None, :] * ws.cos
    V = patch.rotation_offset - (G * dsrc).mean(axis=1) / R
    Lrho = (G * rho[None, :]).mean(axis=1)
    out = -spectral_derivative(V * rho + Lrho)
    if dealias:
        out = dealias_twothirds(out)
    return out - out.mean()


def default_timestep(patch, c=0.25):
    """Advective step c (2 pi / M) / (|Omega| + |Omega_inf| + 1).

    The advective speed is estimated by its flat-state value plus margin;
    c = 0.25 is the integration default, c = 0.5 the stability cap
    enforced by :func:`step_rk4`.
    """
    speed = abs(patch.rotation_offset) + abs(spectrum.omega_infinity(patch.alpha)) + 1.0
    return c * (2 * np.pi / patch.size) / speed


def step_rk4(patch, dt, dealias=True):
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
            return rhs(patch.replace_samples(samples), dealias=dealias)
        except GeometryError as exc:
            raise InstabilityError(
                f"geometry bound violated mid-step (dt={dt})"
            ) from exc

    k1 = f(r)
    k2 = f(r + 0.5 * dt * k1)
    k3 = f(r + 0.5 * dt * k2)
    k4 = f(r + dt * k3)
    new = r + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(new)):
        raise InstabilityError("non-finite samples after step")
    try:
        return patch.replace_samples(new)
    except GeometryError as exc:
        raise InstabilityError(f"geometry bound violated after step (dt={dt})") from exc


def evolve(patch, T, dt=None, snapshot_every=None, dealias=True):
    """Integrate over [0, T] (T may be negative); returns (patch, snapshots).

    Snapshots are (t, RadialPatch) pairs taken every ``snapshot_every``
    steps (always including the final state) when requested.
    """
    if dt is None:
        dt = default_timestep(patch) * (1 if T >= 0 else -1)
    if T * dt < 0:
        raise DomainError("sign of dt must match sign of T")
    nsteps = max(1, int(np.ceil(abs(T / dt) - 1e-12)))
    dt = T / nsteps
    snaps = []
    current = patch
    for k in range(nsteps):
        current = step_rk4(current, dt, dealias=dealias)
        if snapshot_every and ((k + 1) % snapshot_every == 0 or k == nsteps - 1):
            snaps.append(((k + 1) * dt, current))
    return current, snaps


def diagnostics(patch, n_radial=64, n_angular=None, include_energy=True):
    """Angular momentum (closed form), kinetic energy (polar quadrature), H.

    The energy double integral is the weakest-tolerance diagnostic
    (~1e-4 with the default grid); disable it for per-step monitoring.
    """
    r = patch.samples
    J = 0.25 * float(np.mean((1.0 + 2.0 * r) ** 2))
    E = math.nan
    if include_energy:
        E = _energy(patch, n_radial, n_angular or min(patch.size, 128))
    H = 0.5 * (E - patch.rotation_offset * J)
    return Diagnostics(J=J, E=E, H=H, mean_r=patch.mean)


def _energy(patch, n_radial, n_angular):
    # polar tensor nodes ell_{p,q} = R(theta_q) x_p on the patch interior
    M = patch.size
    theta_full = patch.theta()
    R_full = patch.radii
    if n_angular == M:
        theta, R = theta_full, R_full
    else:
        theta = 2 * np.pi * np.arange(n_angular) / n_angular
        R = np.sqrt(1.0 + 2.0 * _eval_trig(patch.samples, theta))
    x = (np.arange(n_radial) + 0.5) / n_radial
    ell = R[None, :] * x[:, None]
    w = (R[None, :] / n_radial) * (2 * np.pi / n_angular) * ell
    z = (ell * np.exp(1j * theta)[None, :]).ravel()
    wts = w.ravel()
    dist = np.abs(z[:, None] - z[None, :])
    off = ~np.eye(z.size, dtype=bool)
    g = np.zeros_like(dist)
    g[off] = green_kernel(patch.alpha, dist[off])
    psi = g @ wts
    return -float(np.dot(wts, psi)) / (2 * np.pi)


def linear_qp_solution(S, amplitudes, Omega, alpha, t, M):
    """Samples of the explicit linear solution sum a_j cos(j theta - w_j t)."""
    S = [int(j) for j in S]
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


def qp_residual(S, amplitudes, Omega, alpha, t, M, dealias=False):
    """Max-norm defect of the linear solution in the flat-state equation."""
    S = [int(j) for j in S]
    theta = 2 * np.pi * np.arange(M) / M
    drho = np.zeros(M)
    for j, a in zip(S, np.asarray(amplitudes, dtype=float)):
        wj = spectrum.equilibrium_frequency(j, Omega, alpha)
        drho += a * wj * np.sin(j * theta - wj * t)
    rho = linear_qp_solution(S, amplitudes, Omega, alpha, t, M)
    flat = RadialPatch(np.zeros(M), Omega, alpha)
    return float(np.max(np.abs(drho - linearized_rhs(flat, rho, dealias=dealias))))


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
