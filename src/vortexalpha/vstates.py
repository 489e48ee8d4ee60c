"""Rotating-patch functional over conformal perturbations and V-state branches.

A near-circular patch boundary is the image of the unit circle under
Phi(z) = z + sum_n a_n z^{-n} with real coefficients; m-fold symmetry is
the sparsity pattern a_n = 0 unless n = m-1 (mod m).  The rotating-frame
functional

    F(w) = Im{ (Omega Phi(w) + I(w)) conj(w) conj(Phi'(w)) },
    I(w) = (1/2 i pi) oint Phi'(tau) [log|Phi(w)-Phi(tau)|
                                      + K_0(|Phi(w)-Phi(tau)|/alpha)] d tau,

vanishes exactly on V-states.  It is sampled on M uniform circle nodes,
with the kernel block of :func:`vortexalpha.greens.combined_boundary_kernel`
(diagonal limit log(2 alpha) - gamma), evaluated once per chord class and
gathered into the workspace block of :mod:`vortexalpha.greens`, shared
with :mod:`vortexalpha.contour`, and reduced by one real product with
the two node columns Re c, Im c of c = Phi'(w) w; the samples are projected onto sine modes, and outputs
live in the sine-coefficient basis e_n(w) = Im(w^n).

The coefficients are real, so Phi(conj w) = conj Phi(w) and F is odd,
F(-theta) = -F(theta); with m-fold symmetry it also has period 2 pi / m.
Of the msec target nodes of one period (msec = M/m when m divides M, else
msec = M) only the nodes 0..msec//2 are evaluated, and the rest follow by
oddness.  The chords of those rows repeat under transpose, under rotation
by msec and under the reflection (j, k) -> (-j, -k), so the kernel is
evaluated once per chord class of :func:`vortexalpha.greens.pair_plan`,
the diagonal as one class: one sample of F costs at most
M msec / 4 + M / 4 + 1 kernel entries.

The exact derivatives of the sampled F come from the same evaluation.
Moving a_n moves the chord A_jk = |Phi(w_j) - Phi(w_k)| by
Re((Phi_j - Phi_k) conj(conj(w_j)^n - conj(w_k)^n)) / A_jk, so every
direction needs only the kernel slope g'(A)/A = (1/A)(1/A - K_1(A/alpha)/alpha),
which the kernel evaluator returns on the same chord classes; all
directions then share two matrix products.  At the disc the Jacobian is
diagonal, with entries (n+1)(Omega_{n+1} - Omega) for a_n, where
Omega_{n+1} = omega_bifurcation(n + 1, alpha) (the sign convention
relative to the frequency formulas is checked in the suite, not assumed).

Branches are parametrized by the fixed leading amplitude a_{m-1} = s and
solved by chord Newton on {g_{nm} = 0} for the higher coefficients and
Omega, with the exact Jacobian and a backtracking line search.  The branch
is symmetric under s -> -s (rotation by pi/m), so each point starts at an
interpolant in s^2 through the latest solved points, anchored at the disc;
pseudo-arclength is an extension point, not needed at these amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectrum
from .errors import ConvergenceError, DomainError, GeometryError, GridError
from .errors import _finite, _integer, _positive
# unused here: perfbench/smoke_tests.py wraps this alias as its example
from .greens import combined_boundary_kernel  # noqa: F401
from .greens import _kernel_block
from .numerics import sine_coefficients

_MIN_PHI_PRIME = 1e-9
_KERNEL_TOL = 1e-10  # kernel: |multiplier| at most this times the window's largest
_TAIL_TOL = 1e-8  # largest discarded sine coefficient of a resolved band


@dataclass(frozen=True)
class ConformalPerturbation:
    """Real coefficients (a_0..a_N) of f(z) = sum a_n z^-n with fold symmetry."""

    coefficients: np.ndarray
    fold: int = 1

    def __post_init__(self):
        coeffs = np.atleast_1d(np.array(_finite(self.coefficients, "coefficients")))
        m = _integer(self.fold, "fold", least=1)
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
        coeffs.flags.writeable = False  # a frozen perturbation owns its coefficients
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "fold", m)

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def map_points(self, w):
        """Phi(w) = w + sum a_n conj(w)^n on the unit circle (Horner's rule)."""
        w = np.asarray(w, dtype=complex)
        return w + np.polyval(self.coefficients[::-1], np.conj(w))

    def map_derivative(self, w):
        """Phi'(w) = 1 - sum n a_n w^{-n-1} on the unit circle (Horner's rule)."""
        wb = np.conj(np.asarray(w, dtype=complex))
        a = self.coefficients
        return 1.0 - wb * np.polyval((np.arange(a.size) * a)[::-1], wb)


@dataclass(frozen=True)
class FunctionalValue:
    """Sine-mode expansion of one functional evaluation.

    ``sine_coefficients[k]`` is the coefficient of sin((k+1) theta), that
    is g_{k+1}, the coefficient of e_{k+1} = Im(w^{k+1}).
    """

    sine_coefficients: np.ndarray
    grid_size: int


def evaluate_F(alpha, Omega, perturbation, grid_size):
    """Sample the rotating-patch functional and project onto sine modes.

    All M/2 coefficients g_1..g_{M/2} of the M-node grid are returned; a
    caller that needs a band slices ``sine_coefficients``.
    """
    M = _grid_size(alpha, Omega, perturbation, grid_size)
    return FunctionalValue(sine_coefficients(_f_samples(alpha, Omega, perturbation, M)), M)


def _grid_size(alpha, Omega, pert, grid_size):
    """The grid size M after checking the arguments of one evaluation."""
    _positive(alpha, "alpha")
    _finite(Omega, "Omega")
    M = _integer(grid_size, "grid size")
    if M < 8 or M % 2:
        raise GridError("grid size must be even and at least 8")
    if M < 4 * (pert.degree + 1):
        raise GridError(
            f"grid {M} under-resolves degree {pert.degree}; need M >= 4(N+1)"
        )
    return M


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


def _f_samples(alpha, Omega, pert, M, modes=None):
    """Samples of F on the M nodes; with ``modes``, also those of its derivatives.

    ``modes`` lists coefficient indices n.  The derivative samples are an
    (M, 1 + len(modes)) array: dF/dOmega, then dF/da_n for each n.
    """
    w, z, dphi = _boundary_samples(pert, M)
    if np.min(np.abs(dphi)) < _MIN_PHI_PRIME:
        raise GeometryError("Phi' vanishes on the grid")
    # F has period 2 pi / m and is odd, so of the first msec target nodes
    # only 0..msec//2 are evaluated; node msec - k takes -F at node k, and
    # the sector is tiled m times.  The kernel is evaluated once per chord
    # class of those rows and gathered into the h x M block.
    m = pert.fold
    msec = M // m if M % m == 0 else M
    h = msec // 2 + 1
    zr, wr, dphir = z[:h], w[:h], dphi[:h]
    G, S = _kernel_block(alpha, z.real, z.imag, msec, True, slope=modes is not None)
    # one real matrix product with c read as (Re c, Im c) columns; G @ c
    # with complex c would copy G to complex
    c = dphi * w
    I = (G @ c.view(float).reshape(M, 2) / M).view(complex)[:, 0]
    samples = _odd_tiled(np.imag((Omega * zr + I) * np.conj(wr) * np.conj(dphir)), msec, M)
    if modes is None:
        return samples
    rows = _derivative_rows(Omega, modes, w, z, dphi, c, I, G, S)
    return samples, _odd_tiled(rows, msec, M)


def _derivative_rows(Omega, modes, w, z, dphi, c, I, G, S):
    """dF/dOmega and dF/da_n on the h target rows of G and S = g'(A)/A.

    Moving a_n moves Phi by dz = conj(w)^n and Phi' by -n conj(w)^(n+1),
    so c = Phi' w moves by -n dz and the chord A_jk by
    Re((z_j - z_k) conj(dz_j - dz_k)) / A_jk.  Split into row factors
    times column factors, that chord term needs the products of S with
    c, x c and y c (z = x + i y), shared by every direction, and with
    dx c, dy c and Re(z conj dz) c for each direction; all of them come
    from one real product with S, and the dz columns from one with G, each
    reading its complex columns as (re, im) pairs of floats.
    """
    M, h = w.size, G.shape[0]
    n = np.asarray(modes)
    K = n.size
    dz = w[(-np.outer(np.arange(M), n)) % M]  # conj(w_k)^n, exact from the table
    x, y, dx, dy = z.real[:, None], z.imag[:, None], dz.real, dz.imag
    q = x * dx + y * dy  # Re(z conj dz)
    cc = c[:, None]
    block = np.hstack((cc, x * cc, y * cc, dx * cc, dy * cc, q * cc))
    Y = (S @ block.view(float) / M).view(complex)
    Sc, Sxc, Syc = Y[:, :1], Y[:, 1:2], Y[:, 2:3]
    Sdxc, Sdyc, Sqc = Y[:, 3 : 3 + K], Y[:, 3 + K : 3 + 2 * K], Y[:, 3 + 2 * K :]
    Gdz = (G @ dz.view(float) / M).view(complex)
    dI = (
        q[:h] * Sc + Sqc - x[:h] * Sdxc - y[:h] * Sdyc - dx[:h] * Sxc - dy[:h] * Syc
        - n * Gdz
    )
    # F = Im{(Omega z + I) conj(w) conj(Phi')}, and conj(w) conj(dPhi') = -n w^n
    wr, zr, dphir = w[:h, None], z[:h, None], dphi[:h, None]
    frame = np.conj(wr) * np.conj(dphir)
    dF = np.imag(
        (Omega * dz[:h] + dI) * frame - n * (Omega * zr + I[:, None]) * np.conj(dz[:h])
    )
    return np.hstack((np.imag(zr * frame), dF))


def _odd_tiled(rows, msec, M):
    """Samples on all M nodes from the rows 0..h-1 of an odd sector of msec nodes.

    Node msec - k takes minus row k, and the sector is tiled M // msec
    times; columns of a 2-d ``rows`` are separate functions.
    """
    h = rows.shape[0]
    sector = np.empty((msec,) + rows.shape[1:])
    sector[:h] = rows
    sector[h:] = -sector[msec - h : 0 : -1]
    return np.tile(sector, (M // msec,) + (1,) * (rows.ndim - 1)) if msec < M else sector


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


def check_crandall_rabinowitz(alpha, m, n_max, Omega=None):
    """Kernel dimension and transversality of the linearization at the disc.

    Works inside the m-fold coefficient pattern n = m-1 (mod m) up to
    n_max.  At the bifurcation value Omega = omega_bifurcation(m, alpha)
    (the default) the kernel must be one-dimensional, spanned by the
    conj(w)^(m-1) direction, with transversality derivative exactly -m.
    A mode is kernel when |multiplier| is at most ``_KERNEL_TOL`` times the
    window's largest, since all multipliers shrink like Omega_m at large
    alpha.  Omega_n is strictly increasing in n, so two kernel modes mean
    that the frequencies differ by less than the table's rounding, and
    DomainError is raised.  With n_max = 41 (alpha from 1e6 to 1e8) that
    starts at alpha = 3.4e6 for m = 7, 5.5e6 for m = 5, 1.1e7 for m = 3
    and 2.2e7 for m = 2, though some larger alpha still pass.
    """
    m = _integer(m, "fold m", least=1)
    n_max = _integer(n_max, "n_max")
    if n_max < m - 1:
        raise DomainError(f"n_max={n_max} is below the kernel mode m - 1 = {m - 1}")
    # table[n] = omega_bifurcation(n + 1, alpha), one I_n K_n table
    table = spectrum.bifurcation_table(n_max + 1, [alpha])[:, 0]
    Omega = table[m - 1] if Omega is None else _finite(Omega, "Omega")
    pattern = range(m - 1, n_max + 1, m)
    mults = [(n, float((n + 1) * (table[n] - Omega))) for n in pattern]
    scale = max(abs(v) for _, v in mults)
    kernel_modes = tuple(n for n, v in mults if abs(v) <= _KERNEL_TOL * scale)
    if len(kernel_modes) > 1:
        raise DomainError(
            f"alpha={alpha}: the frequency table cannot separate modes {kernel_modes}"
        )
    # d/dOmega of the multiplier is -(n+1); for the kernel direction this
    # is the transversality pairing against e_m
    trans = -(kernel_modes[0] + 1) if kernel_modes else 0.0
    return CRReport(
        alpha=float(alpha),
        fold=m,
        Omega=float(Omega),
        kernel_dim=len(kernel_modes),
        kernel_modes=kernel_modes,
        transversality=float(trans),
        multipliers=tuple(mults),
    )


@dataclass(frozen=True)
class BranchPoint:
    """One V-state on an m-fold branch.

    ``residual_history`` holds max |g_nm| at each Newton iterate, from the
    predicted start (``residual_history[0]``) to the solution (whose value
    is ``residual``);
    ``jacobians`` counts the exact Jacobians the point took.
    """

    m: int
    alpha: float
    Omega: float
    perturbation: ConformalPerturbation
    residual: float
    amplitude: float
    alias_tail: float
    newton_steps: int
    residual_history: tuple
    jacobians: int


def _branch_residual(alpha, m, s, u, M, N, jacobian=False):
    """Band residual g_nm, alias tail and perturbation at u = (Omega, a_{2m-1}, ...).

    With ``jacobian`` also the exact N x N Jacobian d g_nm / d u from one
    evaluation; its residual is bitwise that of :func:`evaluate_F`.
    """
    coeffs = np.zeros(len(u) * m)
    coeffs[m - 1 :: m] = np.concatenate(([s], u[1:]))
    pert = ConformalPerturbation(coeffs, fold=m)
    if jacobian:
        M = _grid_size(alpha, u[0], pert, M)
        samples, columns = _f_samples(alpha, u[0], pert, M, np.arange(2, N + 1) * m - 1)
        g = sine_coefficients(samples)
    else:
        g = evaluate_F(alpha, u[0], pert, M).sine_coefficients
    band = g[m - 1 : N * m : m]            # g_m, g_2m, ..., g_Nm
    tail = g[N * m : 2 * N * m]  # nonempty: _grid_size keeps M >= 4 N m
    out = (band.copy(), float(np.max(np.abs(tail))), pert)
    if not jacobian:
        return out
    return out + (sine_coefficients(columns)[m - 1 : N * m : m],)


def continue_branch(
    alpha,
    m,
    amplitudes,
    band=10,
    grid_size=256,
    tol=1e-11,
    max_steps=40,
):
    """Newton continuation of the m-fold branch over fixed leading amplitudes.

    For each amplitude s the system {g_{nm} = 0, n = 1..band} is solved for
    (Omega, a_{2m-1}, ..., a_{band*m-1}).  The disc, with Omega at the
    bifurcation frequency and zero higher coefficients, is the branch
    point at s = 0.  Each point starts at the interpolant in s^2 through
    the latest three known points, the disc among them at first, with
    the coefficients that are odd in s divided by s; the first point
    thus starts at the disc.  Each point is solved by chord Newton with
    the exact Jacobian of its start; the Jacobian is recomputed at the
    current iterate when a step contracts the residual by less than a
    factor 5 or when the line search fails.  A line-search trial point
    outside the bi-Lipschitz regime counts as a rejected step.  Raises
    :class:`ConvergenceError` carrying the last iterate when Newton
    stalls, and :class:`GridError` when the discarded sine tail exceeds
    1e-8 (under-resolved band).
    """
    m = _integer(m, "fold m", least=2)
    amplitudes = [float(s) for s in _positive(amplitudes, "amplitudes")]
    if not amplitudes or any(b <= a for a, b in zip(amplitudes, amplitudes[1:])):
        raise DomainError("amplitudes must be a nonempty strictly increasing sequence")
    if amplitudes[0] > 1e-3:
        raise DomainError("first amplitude must be at most 1e-3 (local branch)")
    N = _integer(band, "band", least=1)
    M = _integer(grid_size, "grid size")
    tol = _positive(tol, "tol")
    max_steps = _integer(max_steps, "max_steps", least=0)

    u = np.zeros(N)
    u[0] = spectrum.omega_bifurcation(m, alpha)
    points, solved = [], [(0.0, u)]  # the disc is the branch point at s = 0
    for s in amplitudes:
        u, tail, pert, history, jacobians = _newton_solve(
            alpha, m, s, _predict(solved, s), M, N, tol, max_steps
        )
        if tail > _TAIL_TOL:
            raise GridError(
                f"alias tail {tail:.2e} above {_TAIL_TOL:.0e} at s={s}; "
                "increase band or grid"
            )
        solved = solved[-2:] + [(s, u)]
        points.append(
            BranchPoint(
                m=m,
                alpha=float(alpha),
                Omega=float(u[0]),
                perturbation=pert,
                residual=history[-1],
                amplitude=s,
                alias_tail=tail,
                newton_steps=len(history) - 1,
                residual_history=history,
                jacobians=jacobians,
            )
        )
    return points


def _predict(solved, s):
    """Start at amplitude s: Lagrange interpolation in s^2 through ``solved``.

    ``solved`` holds up to three (amplitude, u) pairs, the first of them
    possibly the disc (0, u_b).  Rotation by pi/m maps the branch at s to
    the one at -s with a_{km-1} -> (-1)^k a_{km-1}, so Omega and the entries
    u[i] of odd i are even in s and those of even i >= 2 are odd: the odd
    ones are interpolated as u[i]/s (0 at the disc) and multiplied back.
    """
    q = [t * t for t, _ in solved]
    u = np.zeros_like(solved[0][1])
    for j, (t, uj) in enumerate(solved):
        weight = math.prod((s * s - ql) / (q[j] - ql) for ql in q[:j] + q[j + 1 :])
        v = uj.copy()
        v[2::2] = uj[2::2] / t if t else 0.0
        u += weight * v
    u[2::2] *= s
    return u


def _newton_solve(alpha, m, s, u, M, N, tol, max_steps):
    """Chord Newton for one branch point from the start u.

    Returns the solution, its alias tail and perturbation, the residual
    history and the number of exact Jacobians taken.
    """
    r, tail, pert, jac = _branch_residual(alpha, m, s, u, M, N, jacobian=True)
    history = [float(np.max(np.abs(r)))]
    jacobians, fresh = 1, True  # fresh: jac was taken at u
    while history[-1] >= tol:
        rnorm = history[-1]
        if len(history) > max_steps:
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
                trial = _branch_residual(alpha, m, s, u + lam * step, M, N)
            except GeometryError:
                pass  # trial point outside the bi-Lipschitz regime: reject it
            else:
                if np.max(np.abs(trial[0])) < rnorm:
                    u = u + lam * step
                    r, tail, pert = trial
                    history.append(float(np.max(np.abs(r))))
                    fresh = False
                    break
            lam *= 0.5
        else:
            if fresh:
                raise ConvergenceError(
                    f"line search failed at s={s}",
                    last_iterate={"u": u, "residual": rnorm},
                )
        if tol <= history[-1] and history[-1] > 0.2 * rnorm:
            # a failed line search (history[-1] is rnorm) or a slow step: refresh
            r, tail, pert, jac = _branch_residual(alpha, m, s, u, M, N, jacobian=True)
            jacobians, fresh = jacobians + 1, True
    return u, tail, pert, tuple(history), jacobians
