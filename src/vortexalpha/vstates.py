"""Rotating-patch functional over conformal perturbations and V-state branches.

A near-circular patch boundary is the image of the unit circle under
Phi(z) = z + sum_n a_n z^{-n} with real coefficients; m-fold symmetry is
the sparsity pattern a_n = 0 unless n = m-1 (mod m).  The rotating-frame
functional

    F(w) = Im{ (Omega Phi(w) + I(w)) conj(w) conj(Phi'(w)) },
    I(w) = (1/2 i pi) oint Phi'(tau) [log|Phi(w)-Phi(tau)|
                                      + K_0(|Phi(w)-Phi(tau)|/alpha)] d tau,

vanishes exactly on V-states.  It is sampled on M uniform circle nodes,
with the kernel evaluated on the chord matrix by
:func:`vortexalpha.greens.combined_boundary_kernel` (diagonal limit
log(2 alpha) - gamma), and projected onto sine modes; outputs live in the
sine-coefficient basis e_n(w) = Im(w^n).

The sign convention of the linearized multiplier relative to the
frequency formulas is pinned empirically by the finite-difference Jacobian
test in the suite (diagonal entries (n+1)(Omega^E_{n+1}(alpha) - Omega)),
not assumed.

Branches are parametrized by the fixed leading amplitude a_{m-1} = s and
solved by damped Newton on {g_{nm} = 0} for the higher coefficients and
Omega; pseudo-arclength is an extension point, not needed at these
amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectrum
from .errors import ConvergenceError, DomainError, GeometryError, GridError
from .greens import Boundary, combined_boundary_kernel
from .numerics import sine_coefficients

_MIN_PHI_PRIME = 1e-9


@dataclass(frozen=True)
class ConformalPerturbation:
    """Real coefficients (a_0..a_N) of f(z) = sum a_n z^-n with fold symmetry."""

    coefficients: np.ndarray
    fold: int = 1

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        m = int(self.fold)
        if m < 1:
            raise DomainError("fold must be a positive integer")
        live = np.nonzero(coeffs)[0]
        bad = [int(n) for n in live if n % m != (m - 1) % m]
        if bad:
            raise DomainError(
                f"coefficients {bad} violate the {m}-fold pattern n = m-1 (mod m)"
            )
        weight = float(np.sum(np.arange(len(coeffs)) * np.abs(coeffs)))
        if weight >= 1.0:
            raise GeometryError(
                f"sum n |a_n| = {weight:.3f} >= 1: bi-Lipschitz regime violated"
            )
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "fold", m)

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def map_points(self, w):
        """Phi(w) = w + sum a_n conj(w)^n on the unit circle."""
        w = np.asarray(w, dtype=complex)
        wb = np.conj(w)
        out = w.astype(complex)
        p = np.ones_like(w)
        for a in self.coefficients:
            if a != 0.0:
                out = out + a * p
            p = p * wb
        return out

    def map_derivative(self, w):
        """Phi'(w) = 1 - sum n a_n w^{-n-1} on the unit circle."""
        w = np.asarray(w, dtype=complex)
        wb = np.conj(w)
        out = np.ones_like(w)
        p = wb.copy()  # conj(w)^(n+1) at index n
        for n, a in enumerate(self.coefficients):
            if n >= 1 and a != 0.0:
                out = out - n * a * p
            p = p * wb
        return out

    def boundary(self, M):
        """Sampled image curve with parameter tangents (for velocity checks)."""
        theta = 2 * np.pi * np.arange(M) / M
        w = np.exp(1j * theta)
        return Boundary(self.map_points(w), 1j * w * self.map_derivative(w))


@dataclass(frozen=True)
class FunctionalValue:
    """Sine-mode expansion of one functional evaluation.

    ``sine_coefficients[k]`` is the coefficient of sin((k+1) theta); the
    cosine residual should sit at round-off for symmetric inputs.
    """

    sine_coefficients: np.ndarray
    cos_residual: float
    grid_size: int

    def coefficient(self, n):
        """g_n, the coefficient of e_n = Im(w^n)."""
        if n < 1 or n > len(self.sine_coefficients):
            raise DomainError(f"mode {n} outside the computed band")
        return float(self.sine_coefficients[n - 1])


def evaluate_F(alpha, Omega, perturbation, grid_size, band=None):
    """Sample the rotating-patch functional and project onto sine modes.

    ``band`` truncates the returned coefficients.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    M = int(grid_size)
    if M < 8 or M % 2:
        raise GridError("grid size must be even and at least 8")
    if M < 4 * (perturbation.degree + 1):
        raise GridError(
            f"grid {M} under-resolves degree {perturbation.degree}; need M >= 4(N+1)"
        )
    samples = _f_samples(alpha, Omega, perturbation, M)
    g = sine_coefficients(samples)
    fk = np.fft.rfft(samples)
    cos_res = float(np.max(np.abs(fk.real)) * 2.0 / M)
    if band is not None:
        g = g[: int(band)]
    return FunctionalValue(g, cos_res, M)


def _f_samples(alpha, Omega, pert, M):
    theta = 2 * np.pi * np.arange(M) / M
    w = np.exp(1j * theta)
    z = pert.map_points(w)
    dphi = pert.map_derivative(w)
    if np.min(np.abs(dphi)) < _MIN_PHI_PRIME:
        raise GeometryError("Phi' vanishes on the grid")
    # m-fold symmetry: F has period 2 pi / m, so only the first sector of
    # target nodes is evaluated and the result is tiled
    m = pert.fold
    msec = M // m if (m > 1 and M % m == 0) else M
    zr, wr, dphir = z[:msec], w[:msec], dphi[:msec]
    dist = np.abs(zr[:, None] - z[None, :])
    # the msec diagonal chords are exactly zero; any other chord this
    # short means the curve crosses itself
    if np.count_nonzero(dist < 1e-12) != msec:
        raise GeometryError("boundary self-intersects on the grid")
    G = combined_boundary_kernel(alpha, dist)
    I = (G * (dphi * w)[None, :]).mean(axis=1)
    sector = np.imag((Omega * zr + I) * np.conj(wr) * np.conj(dphir))
    return np.tile(sector, m) if msec < M else sector


def _omega_derivative_samples(pert, M):
    """Samples of dF/dOmega = Im{Phi(w) conj(w) conj(Phi'(w))} (kernel-free)."""
    theta = 2 * np.pi * np.arange(M) / M
    w = np.exp(1j * theta)
    z = pert.map_points(w)
    dphi = pert.map_derivative(w)
    return np.imag(z * np.conj(w) * np.conj(dphi))


def linearized_multiplier(alpha, Omega, n):
    """Diagonal entry (n+1)(Omega^E_{n+1}(alpha) - Omega) of d_f F at f = 0."""
    if n < 0 or n != int(n):
        raise DomainError("n must be a nonnegative integer")
    n = int(n)
    return (n + 1) * (spectrum.omega_bifurcation(n + 1, alpha) - Omega)


@dataclass(frozen=True)
class CRReport:
    """Crandall-Rabinowitz hypothesis check at one (alpha, m)."""

    alpha: float
    fold: int
    Omega: float
    kernel_dim: int
    kernel_modes: tuple
    transversality: float
    multipliers: tuple  # (coefficient index n, multiplier) pairs


def check_crandall_rabinowitz(alpha, m, n_max, Omega=None, kernel_tol=1e-10):
    """Kernel dimension and transversality of the linearization at the disc.

    Works inside the m-fold coefficient pattern n = m-1 (mod m) up to
    n_max.  At the bifurcation value Omega = omega_bifurcation(m, alpha)
    (the default) the kernel must be one-dimensional, spanned by the
    conj(w)^(m-1) direction, with transversality derivative exactly -m.
    """
    if m < 1:
        raise DomainError("m must be a positive integer")
    if Omega is None:
        Omega = spectrum.omega_bifurcation(m, alpha)
    pattern = list(range(m - 1, int(n_max) + 1, m))
    mults = [(n, linearized_multiplier(alpha, Omega, n)) for n in pattern]
    kernel_modes = tuple(n for n, v in mults if abs(v) < kernel_tol)
    # d/dOmega of the multiplier is -(n+1); for the kernel direction this
    # is the transversality pairing against e_m
    trans = -(kernel_modes[0] + 1) if kernel_modes else 0.0
    return CRReport(
        alpha=float(alpha),
        fold=int(m),
        Omega=float(Omega),
        kernel_dim=len(kernel_modes),
        kernel_modes=kernel_modes,
        transversality=float(trans),
        multipliers=tuple(mults),
    )


@dataclass(frozen=True)
class BranchPoint:
    """One V-state on an m-fold branch."""

    m: int
    alpha: float
    Omega: float
    perturbation: ConformalPerturbation
    residual: float
    amplitude: float
    alias_tail: float
    newton_steps: int


def _branch_coeffs(m, s, higher):
    """Coefficient array with a_{m-1} = s and a_{nm-1} = higher[n-2]."""
    N = len(higher) + 1
    coeffs = np.zeros(N * m)
    coeffs[m - 1] = s
    for k, a in enumerate(higher):
        coeffs[(k + 2) * m - 1] = a
    return coeffs


def _branch_residual(alpha, m, s, u, M, N):
    coeffs = _branch_coeffs(m, s, u[1:])
    pert = ConformalPerturbation(coeffs, fold=m)
    fv = evaluate_F(alpha, u[0], pert, M)
    g = fv.sine_coefficients
    band = g[m - 1 : N * m : m]            # g_m, g_2m, ..., g_Nm
    tail = g[N * m : min(2 * N * m, len(g))]
    return band.copy(), float(np.max(np.abs(tail))) if len(tail) else 0.0, pert


def continue_branch(
    alpha,
    m,
    amplitudes,
    band=10,
    grid_size=256,
    tol=1e-11,
    max_steps=40,
    tail_tol=1e-8,
):
    """Newton continuation of the m-fold branch over fixed leading amplitudes.

    For each amplitude s the system {g_{nm} = 0, n = 1..band} is solved for
    (Omega, a_{2m-1}, ..., a_{band*m-1}), warm-started from the previous
    point; the first point starts at the bifurcation frequency with zero
    higher coefficients.  A line-search trial point outside the
    bi-Lipschitz regime counts as a rejected step.  Raises
    :class:`ConvergenceError` carrying the last iterate when Newton stalls,
    and :class:`GridError` when the discarded sine tail exceeds
    ``tail_tol`` (under-resolved band).
    """
    if m < 2:
        raise DomainError("branch continuation requires m >= 2")
    amplitudes = [float(s) for s in amplitudes]
    if not amplitudes or any(s <= 0 for s in amplitudes):
        raise DomainError("amplitudes must be positive")
    if any(b <= a for a, b in zip(amplitudes, amplitudes[1:])):
        raise DomainError("amplitudes must be strictly increasing")
    if amplitudes[0] > 1e-3:
        raise DomainError("first amplitude must be at most 1e-3 (local branch)")
    N = int(band)
    M = int(grid_size)

    u = np.zeros(N)
    u[0] = spectrum.omega_bifurcation(m, alpha)
    points = []
    for s in amplitudes:
        u, r, tail, pert, steps = _newton_solve(
            alpha, m, s, u, M, N, tol, max_steps
        )
        if tail > tail_tol:
            raise GridError(
                f"alias tail {tail:.2e} above {tail_tol:.0e} at s={s}; "
                "increase band or grid"
            )
        points.append(
            BranchPoint(
                m=int(m),
                alpha=float(alpha),
                Omega=float(u[0]),
                perturbation=pert,
                residual=float(np.max(np.abs(r))),
                amplitude=s,
                alias_tail=tail,
                newton_steps=steps,
            )
        )
    return points


def _initial_jacobian(alpha, m, s, u, pert, M, N):
    """Analytic Jacobian seed: exact Omega column + diagonal multipliers.

    The Omega derivative of F is kernel-free, so its column is exact at
    the current point; the coefficient columns start from the f = 0
    linearization (nm)(Omega^E_nm - Omega) and are corrected by Broyden
    updates as the iteration proceeds.
    """
    jac = np.zeros((N, N))
    g = sine_coefficients(_omega_derivative_samples(pert, M))
    jac[:, 0] = g[m - 1 : N * m : m]
    for k in range(1, N):
        n = (k + 1) * m  # sine mode fed by coefficient a_{(k+1)m-1}
        jac[k, k] = n * (spectrum.omega_bifurcation(n, alpha) - u[0])
    return jac


def _newton_solve(alpha, m, s, u0, M, N, tol, max_steps):
    u = u0.copy()
    r, tail, pert = _branch_residual(alpha, m, s, u, M, N)
    rnorm = np.max(np.abs(r))
    jac = _initial_jacobian(alpha, m, s, u, pert, M, N)
    fd_fresh = False
    steps = 0
    while rnorm >= tol:
        if steps >= max_steps:
            raise ConvergenceError(
                f"Newton stalled at residual {rnorm:.3e} (s={s})",
                last_iterate={"u": u, "residual": rnorm},
            )
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"singular Jacobian at s={s}", last_iterate={"u": u, "residual": rnorm}
            ) from exc
        lam = 1.0
        for _ in range(10):
            try:
                r_new, tail, pert = _branch_residual(alpha, m, s, u + lam * step, M, N)
            except GeometryError:
                pass  # trial point outside the bi-Lipschitz regime: reject it
            else:
                if np.max(np.abs(r_new)) < rnorm:
                    break
            lam *= 0.5
        else:
            if not fd_fresh:
                jac = _fd_jacobian(alpha, m, s, u, r, M, N)
                fd_fresh = True
                steps += 1
                continue
            raise ConvergenceError(
                f"line search failed at s={s}",
                last_iterate={"u": u, "residual": rnorm},
            )
        new_norm = np.max(np.abs(r_new))
        if new_norm > 0.2 * rnorm and not fd_fresh:
            # slow contraction under the approximate Jacobian: go exact
            jac = _fd_jacobian(alpha, m, s, u + lam * step, r_new, M, N)
            fd_fresh = True
        else:
            du = lam * step
            jac = jac + np.outer(r_new - r - jac @ du, du) / np.dot(du, du)
        u = u + lam * step
        r = r_new
        rnorm = new_norm
        steps += 1
    return u, r, tail, pert, steps


def _fd_jacobian(alpha, m, s, u, r, M, N):
    jac = np.empty((N, N))
    for k in range(N):
        h = 1e-7 * max(1.0, abs(u[k]))
        up = u.copy()
        up[k] += h
        rp, _, _ = _branch_residual(alpha, m, s, up, M, N)
        jac[:, k] = (rp - r) / h
    return jac
