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

The coefficients are real, so Phi(conj w) = conj Phi(w) and F is odd,
F(-theta) = -F(theta); with m-fold symmetry it also has period 2 pi / m.
Of the msec target nodes of one period (msec = M/m when m divides M, else
msec = M) only the nodes 0..msec//2 are evaluated, and the rest follow by
oddness.  The chords of those rows repeat under transpose, under rotation
by msec and under the reflection (j, k) -> (-j, -k), so the kernel is
evaluated once per chord class of :func:`vortexalpha.greens.pair_plan`:
one sample costs about M msec / 4 + M kernel entries.

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
from .greens import combined_boundary_kernel, pair_plan
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


@dataclass(frozen=True)
class FunctionalValue:
    """Sine-mode expansion of one functional evaluation.

    ``sine_coefficients[k]`` is the coefficient of sin((k+1) theta).
    """

    sine_coefficients: np.ndarray
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
    if band is not None:
        g = g[: int(band)]
    return FunctionalValue(g, M)


def _boundary_samples(pert, M):
    """w, Phi(w) and Phi'(w) on the M uniform circle nodes w_j = e^{i theta_j}.

    On the grid, sum_n a_n conj(w_j)^n is the DFT of the zero-padded
    coefficients, so Phi = w + fft(a) and Phi' = 1 - conj(w) fft(n a_n),
    one FFT each (the degree is below M).
    """
    theta = 2 * np.pi * np.arange(M) / M
    w = np.exp(1j * theta)
    a = pert.coefficients
    z = w + np.fft.fft(a, M)
    dphi = 1.0 - np.conj(w) * np.fft.fft(np.arange(a.size) * a, M)
    return w, z, dphi


def _f_samples(alpha, Omega, pert, M):
    w, z, dphi = _boundary_samples(pert, M)
    if np.min(np.abs(dphi)) < _MIN_PHI_PRIME:
        raise GeometryError("Phi' vanishes on the grid")
    # F has period 2 pi / m and is odd, so of the first msec target nodes
    # only 0..msec//2 are evaluated; node msec - k takes -F at node k, and
    # the sector is tiled m times.  The kernel is evaluated once per chord
    # class of those rows and gathered into the h x M block.  Every chord
    # is a rotation, reflection or transpose of a representative, so the
    # self-intersection check below still sees every chord class.
    m = pert.fold
    msec = M // m if (m > 1 and M % m == 0) else M
    h = msec // 2 + 1
    zr, wr, dphir = z[:h], w[:h], dphi[:h]
    plan = pair_plan(M, h, msec, True)
    dist = np.abs(z[plan.first] - z[plan.second])
    # the zero-offset chords are exactly zero; any other chord this short
    # means the curve crosses itself
    if np.count_nonzero(dist < 1e-12) != plan.zeros:
        raise GeometryError("boundary self-intersects on the grid")
    G = combined_boundary_kernel(alpha, dist)[plan.inverse]
    # one real matrix product; G @ c with complex c would copy G to complex
    c = dphi * w
    re_im = G @ np.column_stack((c.real, c.imag)) / M
    I = re_im[:, 0] + 1j * re_im[:, 1]
    sector = np.empty(msec)
    sector[:h] = np.imag((Omega * zr + I) * np.conj(wr) * np.conj(dphir))
    sector[h:] = -sector[msec - h : 0 : -1]
    return np.tile(sector, m) if msec < M else sector


def _omega_derivative_samples(pert, M):
    """Samples of dF/dOmega = Im{Phi(w) conj(w) conj(Phi'(w))} (kernel-free)."""
    w, z, dphi = _boundary_samples(pert, M)
    return np.imag(z * np.conj(w) * np.conj(dphi))


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
    n_max = int(n_max)
    # table[n] = omega_bifurcation(n + 1, alpha), one I_n K_n table
    table = spectrum.bifurcation_table(max(n_max + 1, m), [alpha])[:, 0]
    if Omega is None:
        Omega = table[m - 1]
    pattern = range(m - 1, n_max + 1, m)
    mults = [(n, float((n + 1) * (table[n] - Omega))) for n in pattern]
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
    if band < 1:
        raise DomainError(f"band must be at least 1, got {band!r}")
    N = int(band)
    M = int(grid_size)

    # omega_bifurcation(n, alpha) for n = m, 2m, ..., Nm from one table
    omegas = spectrum.bifurcation_table(N * m, [alpha])[m - 1 :: m, 0]
    u = np.zeros(N)
    u[0] = omegas[0]
    points = []
    for s in amplitudes:
        u, r, tail, pert, steps = _newton_solve(
            alpha, m, s, u, M, N, tol, max_steps, omegas
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


def _initial_jacobian(m, u, pert, M, N, omegas):
    """Analytic Jacobian seed: exact Omega column + diagonal multipliers.

    The Omega derivative of F is kernel-free, so its column is exact at
    the current point; the coefficient columns start from the f = 0
    linearization (nm)(Omega^E_nm - Omega), with ``omegas[k]`` =
    omega_bifurcation((k+1) m, alpha), and are corrected by Broyden
    updates as the iteration proceeds.
    """
    jac = np.zeros((N, N))
    g = sine_coefficients(_omega_derivative_samples(pert, M))
    jac[:, 0] = g[m - 1 : N * m : m]
    k = np.arange(1, N)
    # sine mode n = (k+1) m is fed by coefficient a_{(k+1)m-1}
    jac[k, k] = (k + 1) * m * (omegas[1:] - u[0])
    return jac


def _newton_solve(alpha, m, s, u0, M, N, tol, max_steps, omegas):
    u = u0.copy()
    r, tail, pert = _branch_residual(alpha, m, s, u, M, N)
    rnorm = np.max(np.abs(r))
    jac = _initial_jacobian(m, u, pert, M, N, omegas)
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
