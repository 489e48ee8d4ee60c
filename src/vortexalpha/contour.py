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
Rep. 10 (1989)).  A call forms the chords of the chord classes of
:func:`vortexalpha.greens.pair_plan` (the M(M-1)/2 chords j < k and the
diagonal) by circulant offset, sums the kernel on them from cached
per-offset polynomials (no K_0 evaluation once the tables of the
patch's width are built; one per class for a patch far from the
circle), gathers it into the kernel matrix, and takes one M x M x 2
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

Time stepping (:func:`step_rk4`) is integrating-factor (Lawson) RK4 on
v = rfft(r) (Cox & Matthews, J. Comput. Phys. 176 (2002); Kassam &
Trefethen, SIAM J. Sci. Comput. 26 (2005)).  The flat-state evolution
v_k' = L_k v_k, L_k ~ -i k (Omega + omega_bifurcation(k, alpha)), is
stepped exactly with the discrete symbol that one :func:`linearized_rhs`
call at the disc gives (:func:`_flat_symbol`); RK4 sees only the
remainder N(v) = rfft(rhs(irfft v)) - L v, which is quadratic in the
amplitude.  The stiff rotation of the high modes, which held the classical
step to 1/M, is gone from the step bound: :func:`default_timestep` is set
by the amplitude of r alone.

Conventions: spatial mean of r is conserved by the flow (the right-hand
side is an exact theta-derivative); the Hamiltonian phase space assumes
zero mean, but patches with nonzero mean (e.g. converted V-states, whose
enclosed area differs from pi) evolve correctly and keep their mean.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import spectrum
from .errors import DomainError, GeometryError, GridError, InstabilityError
from .errors import _finite, _integer, _positive
from .greens import (
    EULER_GAMMA, _kernel_block, _offset_chords, _offset_rows, _workspace, green_kernel,
)
from .numerics import dealias_twothirds, spectral_derivative


@dataclass(frozen=True)
class RadialPatch:
    """Radial deformation samples on M nodes with the frame and model parameters."""

    samples: np.ndarray
    rotation_offset: float
    alpha: float

    def __post_init__(self):
        r = np.array(self.samples, dtype=float)
        if r.ndim != 1:
            raise GridError("samples must be a 1-d array")
        _grid_size(r.size)
        if not np.isfinite(r).all():
            raise GeometryError("samples must be finite")
        if np.min(1.0 + 2.0 * r) <= 0.0:
            raise GeometryError("1 + 2r must stay positive")
        r.flags.writeable = False  # a frozen patch owns its samples
        _positive(self.alpha, "alpha")
        _finite(self.rotation_offset, "rotation offset")
        object.__setattr__(self, "samples", r)

    @property
    def size(self):
        return self.samples.size

    @property
    def radii(self):
        return np.sqrt(1.0 + 2.0 * self.samples)

    @property
    def mean(self):
        return float(self.samples.mean())

    def replace_samples(self, samples):
        return RadialPatch(samples, self.rotation_offset, self.alpha)


@dataclass(frozen=True)
class Diagnostics:
    """Conserved-quantity snapshot: H = (E - Omega J) / 2."""

    J: float
    E: float
    H: float
    mean_r: float


def _grid_size(M):
    """M as an int, rejected unless even and at least 32 (the grid of a patch)."""
    M = _integer(M, "grid size")
    if M < 32 or M % 2:
        raise GridError(f"grid size must be even and at least 32, got {M}")
    return M


def _geometry(patch):
    """R, R', the nodes x + i y = R e^{i theta} and the tangent x' + i y' = z'.

    z' = (R' + i R) e^{i theta}, the theta-derivative of the nodes.
    """
    ws = _workspace(patch.size)
    R = patch.radii
    Rp = spectral_derivative(patch.samples) / R
    x, y = R * ws.cos, R * ws.sin
    return R, Rp, x, y, Rp * ws.cos - y, Rp * ws.sin + x


def _kernel_product(patch, *columns):
    """R, R', the rotated kernel average V and G @ columns / M.

    The kernel matrix G is evaluated once per chord class (the
    transpose) and gathered in the workspace; it is bitwise symmetric.
    V_j = avg_k G_jk z'_k e^{-i theta_j} with the tangent z' of
    :func:`_geometry` comes from G @ [Re z', Im z', *columns], one real
    product.
    """
    M = patch.size
    ws = _workspace(M)
    R, Rp, x, y, xp, yp = _geometry(patch)
    G, _ = _kernel_block(patch.alpha, x, y, M)
    Y = G @ np.column_stack((xp, yp, *columns))
    Y /= M
    V = (ws.cos - 1j * ws.sin) * (Y[:, 0] + 1j * Y[:, 1])
    return R, Rp, V, Y[:, 2:]


def rhs(patch):
    """Time derivative of r: -Omega dr/dtheta + joint kernel integral.

    The output has exactly zero mean (the analytic right-hand side is a
    theta-derivative; the numerical mean, already at round-off by kernel
    antisymmetry, is subtracted), and its modes above the 2/3 band are
    zeroed.  The advection term takes dr/dtheta = R R' from the geometry.
    """
    R, Rp, V, _ = _kernel_product(patch)
    F = Rp * V.imag - R * V.real
    out = dealias_twothirds(-patch.rotation_offset * (R * Rp) + F)
    return out - out.mean()


def linearized_rhs(patch, direction):
    """Action of the linearized evolution on a zero-mean direction rho.

    Computes -d/dtheta (V rho + L rho), dealiased, with the advection
    speed V = Omega - V^E - V^SW and the joint integral operator
    (L rho)(theta) = avg_eta rho(eta) [log A + K_0(A/alpha)].  Both come
    from one product G @ [Re z', Im z', rho]: V^E + V^SW is Im V / R for
    the rotated average V of :func:`_kernel_product`, L rho its column.
    """
    rho = _finite(direction, "direction")
    if np.shape(rho) != patch.samples.shape:
        raise GridError("direction must match the patch grid")
    R, _, V, rest = _kernel_product(patch, rho)
    speed = patch.rotation_offset - V.imag / R
    out = dealias_twothirds(-spectral_derivative(speed * rho + rest[:, 0]))
    return out - out.mean()


def default_timestep(patch):
    """Step 0.25 / max(1/4, 20 sqrt(max|r'|), M max|r| / 2 pi) for :func:`step_rk4`.

    The flat-state rotation is stepped exactly, so the bound comes from
    the remainder N alone and is read from r (one FFT, no Bessel call):

    - accuracy, 0.0125 / sqrt(max|r'|): N is quadratic in the amplitude,
      so at fixed dt the error falls like its square, and the square root
      keeps the error level across amplitudes.  With this step, the end
      state at T = 1 is within 1.8e-13 of a fine reference on two-mode
      patches and within 2.5e-10 on rough ones (k^-2 spectrum up to the
      2/3 cut), for M = 128 to 512, alpha = 0.3 and 0.7 and amplitude
      0.005 to 0.1: below the error of classical RK4 at its 1/M step in
      each of these 36 cases;
    - stability, (pi / 2M) / max|r|: the advection speed that the
      remainder adds stays below 0.41 max|r| (measured up to amplitude
      0.2), so with the largest kept mode M / 3, dt k dV stays below 0.43
      at twice this step, well inside the RK4 stability region (2.8 on
      the imaginary axis); this term sets the step at large M;
    - a ceiling of 1, taken by the flat patch.

    This is the integration default; :func:`step_rk4` enforces twice it.
    """
    r = patch.samples
    slope = float(np.max(np.abs(spectral_derivative(r))))
    height = float(np.max(np.abs(r)))
    return 0.25 / max(0.25, 20.0 * math.sqrt(slope), patch.size * height / (2 * np.pi))


@functools.lru_cache(maxsize=4)
def _flat_symbol(M, alpha, offset):
    """Discrete symbol L_k of the flat-state evolution, read-only.

    :func:`linearized_rhs` at the flat patch is circulant, so its action
    on the zero-mean delta e_0 - 1/M, whose rfft is 1 at every k >= 1,
    is the symbol itself after one rfft.  L_k is about
    -i k (offset + omega_bifurcation(k, alpha)).  It is the continuum
    linearization by the trapezoid rule, not the derivative of the
    discrete :func:`rhs`: at the flat state they differ by 1.2e-6 at
    M = 64 and 3.6e-8 at M = 128 (like M^-5).  L_0 and the modes above
    the 2/3 cut, where :func:`rhs` is zero, are exactly 0.
    """
    delta = np.full(M, -1.0 / M)
    delta[0] += 1.0
    L = np.fft.rfft(linearized_rhs(RadialPatch(np.zeros(M), offset, alpha), delta))
    L[0] = 0.0
    L[(M // 2) * 2 // 3 + 1 :] = 0.0
    L.flags.writeable = False
    return L


def step_rk4(patch, dt):
    """Integrating-factor (Lawson) RK4 step on v = rfft(r).

    With the flat-state symbol L of :func:`_flat_symbol`, E = exp(L dt/2)
    and the remainder N(v) = rfft(rhs(irfft v)) - L v, the step is

        a = N(v),  b = N(E (v + dt/2 a)),  c = N(E v + dt/2 b),
        d = N(E^2 v + dt E c),
        v' = E^2 v + dt/6 (E^2 a + 2 E (b + c) + d),

    four :func:`rhs` calls, fourth order, and exact for the flat-state
    rotation, so dt is bounded by the amplitude (twice
    :func:`default_timestep`), not by 1/M.  L_0 = 0 and N has zero mean,
    so the spatial mean is kept to round-off.
    """
    if not math.isfinite(dt) or dt == 0.0:
        raise DomainError(f"dt must be finite and nonzero, got {dt!r}")
    cap = 2 * default_timestep(patch)
    if abs(dt) > cap * (1 + 1e-12):
        raise DomainError(f"dt={dt} exceeds the step bound {cap:.3e}")
    M = patch.size
    L = _flat_symbol(M, patch.alpha, patch.rotation_offset)
    E = np.exp((0.5 * dt) * L)
    E2 = E * E

    def N(w):
        try:
            samples = rhs(patch.replace_samples(np.fft.irfft(w, M)))
        except GeometryError as exc:
            raise InstabilityError(
                f"geometry bound violated mid-step (dt={dt})"
            ) from exc
        return np.fft.rfft(samples) - L * w

    v = np.fft.rfft(patch.samples)
    a = N(v)
    b = N(E * (v + (0.5 * dt) * a))
    c = N(E * v + (0.5 * dt) * b)
    d = N(E2 * v + dt * (E * c))
    new = np.fft.irfft(E2 * v + (dt / 6.0) * (E2 * a + 2.0 * E * (b + c) + d), M)
    try:
        return patch.replace_samples(new)
    except GeometryError as exc:
        raise InstabilityError(f"geometry bound violated after step (dt={dt})") from exc


def evolve(patch, T, dt=None, snapshot_every=None):
    """Integrate over [0, T] (T may be negative); returns (patch, snapshots).

    Each step divides the remaining span into the fewest equal steps no
    longer than |dt|, or, when dt is None, than :func:`default_timestep`
    of the current state, so the last step ends on T and the default
    step follows the amplitude as it changes.  Snapshots are
    (t, RadialPatch) pairs taken every ``snapshot_every`` steps (always
    including the final state) when requested.  T = 0 takes no step and
    returns the input patch.  T and dt must be finite, dt nonzero, and
    ``snapshot_every`` None or an integer of at least 1.
    """
    if not math.isfinite(T) or not (dt is None or (math.isfinite(dt) and dt != 0)):
        raise DomainError(f"T and dt must be finite and dt nonzero, got T={T!r}, dt={dt!r}")
    if snapshot_every is not None:
        _integer(snapshot_every, "snapshot_every", least=1)
    if T == 0:
        return patch, [(0.0, patch)] if snapshot_every else []
    if dt is not None and T * dt < 0:
        raise DomainError("sign of dt must match sign of T")
    snaps = []
    current, t, k = patch, 0.0, 0
    while t != T:
        bound = default_timestep(current) if dt is None else abs(dt)
        left = max(1, math.ceil(abs((T - t) / bound) - 1e-12))
        h = (T - t) / left
        current = step_rk4(current, h)
        t = T if left == 1 else t + h
        k += 1
        if snapshot_every and (k % snapshot_every == 0 or t == T):
            snaps.append((t, current))
    return current, snaps


def diagnostics(patch, n_radial=None):
    """Angular momentum J (closed form), kinetic energy E and H = (E - Omega J)/2.

    E is the boundary double integral of the module docstring, summed by
    the trapezoid rule on the patch's own M nodes: O(M^2) time and memory,
    one :func:`green_kernel` call on the M(M-1)/2 distinct chords.  The
    error falls like M^-5 (on the disc at alpha = 0.3: 4e-6 relative at
    M = 32, 1e-10 at M = 256).  ``n_radial`` is ignored; it is accepted
    for callers written for the earlier area quadrature.
    """
    r = patch.samples
    J = 0.25 * float(np.mean((1.0 + 2.0 * r) ** 2))
    E = _energy(patch)
    H = 0.5 * (E - patch.rotation_offset * J)
    return Diagnostics(J=J, E=E, H=H, mean_r=patch.mean)


def _energy(patch):
    """mean_{j,k} Re(z'_j conj z'_k) F(|z_j - z_k|), with F of the module docstring.

    The summand is symmetric: it is formed on the M(M-1)/2 pairs j < k,
    read from the offset rows of :func:`vortexalpha.greens._offset_chords`
    (the full-grid chord classes after class 0, the diagonal, in their
    order), summed once and doubled, and the diagonal, where
    F(0) = alpha^2 (log(2 alpha) - gamma) and |z'_j|^2 = R'_j^2 + R_j^2,
    is added in closed form.
    """
    M, alpha = patch.size, patch.alpha
    R, Rp, x, y, xp, yp = _geometry(patch)
    ws = _workspace(M)
    pairs = M * (M - 1) // 2
    a = _offset_chords(x, y, ws)[1 : pairs + 1]
    Xp, Yp = _offset_rows(ws, xp, yp)
    W = (xp * Xp + yp * Yp).reshape(-1)[:pairs]
    F = a * a * (np.log(a) - 1.0) / 4.0
    F += (2 * np.pi * alpha * alpha) * green_kernel(alpha, a)
    F0 = alpha * alpha * (math.log(2 * alpha) - EULER_GAMMA)
    diagonal = F0 * float(np.sum(Rp * Rp + R * R))
    return (2.0 * float(np.dot(W, F)) + diagonal) / M**2


def _linear_solution(S, amplitudes, Omega, alpha, t, M):
    """rho = sum a_j cos(j theta - w_j t) on M nodes and its time derivative."""
    S = spectrum._validate_tangential_set(S)
    amplitudes = _finite(amplitudes, "amplitudes")
    if np.shape(amplitudes) != (len(S),) or np.any(amplitudes == 0.0):
        raise DomainError("one nonzero amplitude per mode required")
    t = _finite(t, "t")
    M = _integer(M, "grid size")
    if M < 1:
        raise GridError("grid size must be positive")
    w = spectrum.equilibrium_matrix(S, Omega, [alpha])[:, 0]
    phase = np.outer(2 * np.pi * np.arange(M) / M, S) - w * t
    return np.cos(phase) @ amplitudes, np.sin(phase) @ (amplitudes * w)


def linear_qp_solution(S, amplitudes, Omega, alpha, t, M):
    """Samples of the explicit linear solution sum a_j cos(j theta - w_j t)."""
    return _linear_solution(S, amplitudes, Omega, alpha, t, M)[0]


def qp_residual(S, amplitudes, Omega, alpha, t, M):
    """Max-norm defect of the linear solution in the flat-state equation."""
    M = _grid_size(M)
    rho, drho = _linear_solution(S, amplitudes, Omega, alpha, t, M)
    flat = RadialPatch(np.zeros(M), Omega, alpha)
    return float(np.max(np.abs(drho - linearized_rhs(flat, rho))))


def vstate_to_radial(branch_point, M):
    """Convert a conformal V-state to radial samples on an M-grid.

    Inverts theta -> arg Phi(e^{i phi}) by Newton with exact (spectral)
    evaluation of the finite coefficient series.  Returns the patch and
    the achieved phase residual max |arg z(phi_k) - theta_k|; the latter
    is reported, not assumed, since the conformal and polar
    parametrizations are related only numerically.  The patch is a plain
    full-grid one: when m divides M its samples repeat under rotation by
    2 pi / m, and the flow keeps that symmetry to round-off.

    The resulting mean of r is (area/pi - 1)/2 < 0: conformal V-states
    enclose area pi (1 - sum n a_n^2).  Rescaling it away would change
    the effective length-scale parameter, so the mean is kept.

    The patch's rotation offset is -Omega of the V-state, which makes it
    a steady state of :func:`rhs`: a flat-state mode e_j evolves with
    frequency j (offset + omega_bifurcation(j, alpha)), while V-states
    bifurcate at Omega = omega_bifurcation(m, alpha).  For another offset,
    ``dataclasses.replace(patch, rotation_offset=...)``.
    """
    M = _grid_size(M)
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
    return RadialPatch(r, -branch_point.Omega, branch_point.alpha), residual
