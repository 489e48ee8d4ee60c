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

The eta-derivative form of the integrand factors through e^{i theta}:
with P_j = sum_k G_jk R_k e^{i eta_k} and Q_j the same with R'_k, and
C_j + i S_j = e^{-i theta_j} P_j, C'_j + i S'_j = e^{-i theta_j} Q_j,

    F_j = (R'_j (S'_j + C_j) + R_j (S_j - C'_j)) / M,

so one real product of the kernel matrix G with the M x 4 block
[R cos, R sin, R' cos, R' sin] gives F (contour-dynamics form, Dritschel,
Comput. Phys. Rep. 10 (1989)).  A call costs one kernel evaluation on
the chord classes of :func:`vortexalpha.greens.pair_plan` (the M(M+1)/2
chords j <= k on the full grid, about M msec / 2 for a fold-symmetric
sector of msec target rows), gathered into the kernel matrix, plus one
M x M x 4 product; there are no M x M trigonometric tables, and the
chords, the K_0 arguments and values and the kernel matrix are written
into per-grid workspace buffers, so a call allocates no array of the
chord count.

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
from .greens import EULER_GAMMA, _kernel_into, green_kernel, pair_plan
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


class _Workspace:
    """Per-grid node vectors and the buffers of the kernel sums.

    ``cos`` and ``sin`` hold cos theta_k and sin theta_k at the M nodes.
    The other buffers are sized for the most chord classes a plan can
    have, M(M+1)/2, so a kernel evaluation allocates no array of that
    size.  Every kernel sum overwrites ``kernel`` (M x M): its leading
    entries first with the chords of the plan's representative pairs,
    then, once their kernel is evaluated, with the kernel matrix gathered
    from the plan.  The kernel of the chords goes into ``k0`` (K_0 first,
    the combined kernel on return), ``x`` holds the K_0 arguments A/alpha
    and then log A, and ``work`` (two rows) is the scratch of the Horner
    sums and of the chord gathers.  One instance serves one grid size.
    The kernel sums are not reentrant (two threads must not run them at
    once): the pair chords from :func:`_pair_chords` and the kernel
    matrix from :func:`_interaction` are buffer views, valid until chords
    are next formed on that grid size (by any kernel sum or the energy).
    What :func:`rhs`, :func:`linearized_rhs` and :func:`diagnostics`
    return owns its memory.
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
        self.M = M


_workspaces = {}  # the most recent grid size only: M^2 doubles


def _workspace(M):
    ws = _workspaces.get(M)
    if ws is None:
        _workspaces.clear()
        ws = _workspaces[M] = _Workspace(M)
    return ws


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


def _plan(M, msec=None):
    """Chord classes of the first msec target rows: transpose, and rotation by msec."""
    msec = msec or M
    return pair_plan(M, msec, msec, False)


def _pair_chords(R, ws, plan):
    """Chords |z_j - z_k| of the plan's representative pairs, in ``ws.kernel``.

    ``ws.work`` holds the gathered coordinates.  Formed from the Cartesian nodes z = R e^{i theta}: the zero-offset
    chords are exactly zero, and every chord is bitwise the entry of the
    full chord matrix at its representative and at its transpose.
    """
    x, y = R * ws.cos, R * ws.sin
    n = plan.first.size
    A = ws.kernel.reshape(-1)[:n]
    dy, gathered = ws.work[:, :n]
    plan.take(x, plan.first, A)
    A -= plan.take(x, plan.second, gathered)
    A *= A
    plan.take(y, plan.first, dy)
    dy -= plan.take(y, plan.second, gathered)
    dy *= dy
    A += dy
    return np.sqrt(A, out=A)


def _interaction(patch, msec=None):
    """Workspace, R, R' and the kernel matrix G of the first msec target rows.

    The kernel is evaluated once per chord class of :func:`_plan` and
    gathered into ``ws.kernel``; on the full grid G is bitwise symmetric.
    """
    ws = _workspace(patch.size)
    R, Rp = _geometry(patch)
    plan = _plan(patch.size, msec)
    n = plan.first.size
    K = _kernel_into(
        patch.alpha, _pair_chords(R, ws, plan), slice(0, plan.zeros),
        ws.x[:n], ws.k0[:n], ws.work[:, :n],
    )
    G = ws.kernel[: plan.inverse.shape[0]]
    plan.take(K, plan.inverse, G)
    return ws, R, Rp, G


def _kernel_product(ws, G, R, Rp, *columns):
    """Rotated kernel averages (P, Q) and G @ columns / M from one product.

    P_j = avg_k G_jk R_k e^{i(eta_k - theta_j)} = (C_j + i S_j) / M and Q_j
    the same with R'_k: the cosine and sine sums of the module docstring.
    Both come from G @ [R cos, R sin, R' cos, R' sin, *columns], a real
    (rows x M) @ (M x (4 + n)) product, rotated by e^{-i theta_j}.
    """
    c, s = ws.cos, ws.sin
    Y = G @ np.column_stack((R * c, R * s, Rp * c, Rp * s, *columns))
    Y /= ws.M
    rot = (c - 1j * s)[: G.shape[0]]
    P = rot * (Y[:, 0] + 1j * Y[:, 1])
    Q = rot * (Y[:, 2] + 1j * Y[:, 3])
    return P, Q, Y[:, 4:]


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
    P, Q, _ = _kernel_product(ws, G, R, Rp)
    R, Rp = R[:msec], Rp[:msec]
    F = Rp * (Q.imag + P.real) + R * (P.imag - Q.real)
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
    (L rho)(theta) = avg_eta rho(eta) [log A + K_0(A/alpha)].  Both come
    from one product G @ [R cos, R sin, R' cos, R' sin, rho]: V^E + V^SW
    is (S' + C) / (M R), L rho the fifth column / M.
    """
    rho = np.asarray(direction, dtype=float)
    if rho.shape != patch.samples.shape:
        raise GridError("direction must match the patch grid")
    ws, R, Rp, G = _interaction(patch)
    P, Q, rest = _kernel_product(ws, G, R, Rp, rho)
    V = patch.rotation_offset - (Q.imag + P.real) / R
    Lrho = rest[:, 0]
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
    try:
        return patch.replace_samples(new)
    except GeometryError as exc:
        raise InstabilityError(f"geometry bound violated after step (dt={dt})") from exc


def evolve(patch, T, dt=None, snapshot_every=None, dealias=True):
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
        current = step_rk4(current, dt, dealias=dealias)
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
    plan = _plan(M)
    j, k = plan.first[plan.zeros :], plan.second[plan.zeros :]
    a = _pair_chords(R, ws, plan)[plan.zeros :]
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


def qp_residual(S, amplitudes, Omega, alpha, t, M, dealias=False):
    """Max-norm defect of the linear solution in the flat-state equation."""
    S = [_integer(j, "each element of S") for j in S]
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
