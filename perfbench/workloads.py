"""The benchmark's four workloads: seeded inputs, one op each, and its gates.

Each workload turns a ``numpy.random.Generator`` into op inputs, runs one
op through module attributes of ``vortexalpha`` (so the tracer's wrappers
are seen), and checks the op's output against references that do not come
from the code under test (closed forms and ``scipy.special``).  A gate
passes when its measured error is at most its tolerance.

``tiny=True`` shrinks every input so the smoke tests run in seconds; the
benchmark itself always runs the full size.

``PROBE`` names the host-speed probe kernel (see ``probe.py``) that tracks
the op: ``cpu`` for the CPU-bound ops of ``evolve``, ``branch`` and
``margins``, ``memory`` for the allocation- and bandwidth-bound op of
``conservation``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from vortexalpha import contour, spectrum, vstates

# mid band of the K_0 evaluator: arguments with 3 < x < 20 (series below,
# asymptotic expansion above); the trace reports the share of each band
K0_SERIES_MAX = 3.0
K0_ASY_MIN = 20.0


def _omega_bifurcation_ref(m, alpha):
    """Closed-form bifurcation frequency from scipy's I_n, K_n."""
    from scipy.special import iv, kv

    x = 1.0 / alpha
    return (m - 1) / (2.0 * m) - (iv(1, x) * kv(1, x) - iv(m, x) * kv(m, x))


def _angular_momentum(r):
    return 0.25 * float(np.mean((1.0 + 2.0 * r) ** 2))


class Evolve:
    """RK4 evolution of a seeded two-mode patch over a fixed horizon."""

    name = "evolve"
    PROBE = "cpu"
    ALPHA = 0.3
    OMEGA = 0.5
    AMPLITUDE = 0.01
    GATES = {"mean_drift": 1e-12, "J_rel_change": 1e-10, "nonfinite": 0.0}

    def __init__(self, tiny=False):
        self.M = 64 if tiny else 256
        self.T = 0.01 if tiny else 0.025

    def make_input(self, rng):
        theta = 2 * np.pi * np.arange(self.M) / self.M
        p2, p3 = rng.uniform(0.0, 2 * np.pi, 2)
        r = self.AMPLITUDE * (np.cos(2 * theta + p2) + np.cos(3 * theta + p3))
        return contour.RadialPatch(r, self.OMEGA, self.ALPHA)

    warmup_input = make_input

    def run(self, patch):
        final, _ = contour.evolve(patch, self.T)
        return final

    def check(self, patch, final):
        r0, r1 = patch.samples, final.samples
        J0 = _angular_momentum(r0)
        return {
            "mean_drift": abs(float(r1.mean()) - float(r0.mean())),
            "J_rel_change": abs(_angular_momentum(r1) - J0) / J0,
            "nonfinite": float(np.count_nonzero(~np.isfinite(r1))),
        }

    def counters(self, final):
        return {"sim_time": self.T}


class Branch:
    """Newton continuation of the m = 2 and m = 3 branches at alpha = 0.7."""

    name = "branch"
    PROBE = "cpu"
    ALPHA = 0.7
    JITTER = 0.003
    GATES = {"residual": 1e-11, "omega_start": 1e-6}

    def __init__(self, tiny=False):
        if tiny:
            self.band, self.grid = 4, 64
            self.ends = {2: 0.02, 3: 0.01}
        else:
            self.band, self.grid = 10, 256
            self.ends = {2: 0.15, 3: 0.04}

    def make_input(self, rng):
        """Ladder per m: 1e-4, then 0.01 .. end with jittered interior."""
        ladders = {}
        for m, end in self.ends.items():
            steps = np.arange(1, int(round(end / 0.01)) + 1) * 0.01
            steps[:-1] += rng.uniform(-self.JITTER, self.JITTER, steps.size - 1)
            ladders[m] = [1e-4] + [float(s) for s in steps]
        return ladders

    warmup_input = make_input

    def run(self, ladders):
        return {
            m: vstates.continue_branch(
                self.ALPHA, m, amps, band=self.band, grid_size=self.grid
            )
            for m, amps in ladders.items()
        }

    def check(self, ladders, branches):
        residual = 0.0
        omega_start = 0.0
        for m, points in branches.items():
            if len(points) != len(ladders[m]):
                return {"residual": math.inf, "omega_start": math.inf}
            for p in points:
                g = vstates.evaluate_F(
                    self.ALPHA, p.Omega, p.perturbation, self.grid
                ).sine_coefficients
                residual = max(residual, float(np.max(np.abs(g[m - 1 : self.band * m : m]))))
            ref = _omega_bifurcation_ref(m, self.ALPHA)
            omega_start = max(omega_start, abs(points[0].Omega - ref))
        return {"residual": residual, "omega_start": omega_start}

    def counters(self, branches):
        return {"newton_steps": sum(p.newton_steps for pts in branches.values() for p in pts)}


class Margins:
    """Transversality margins and non-degeneracy over S = {2, 3, 4}."""

    name = "margins"
    PROBE = "cpu"
    S = (2, 3, 4)
    INTERVAL = (0.3, 0.7)
    Q0 = 4
    EXTRA_MODES = (1, 5, 6)
    AUGMENTS = ("none", "V0", "V0_and_1")
    GATES = {"matrix_rel": 1e-12, "nonpositive": 0.0}

    def __init__(self, tiny=False):
        self.npts = 201 if tiny else 2001
        lmax = 1 if tiny else 3
        extra = self.EXTRA_MODES[:1] if tiny else self.EXTRA_MODES
        ls = [
            l
            for l in itertools.product(range(-lmax, lmax + 1), repeat=len(self.S))
            if 1 <= sum(map(abs, l)) <= lmax
        ]
        self.tasks = [("pure", l, None) for l in ls]
        self.tasks += [("plus_Omega_j", l, j) for l in ls for j in extra]
        self.tasks += [("nondegeneracy", aug, None) for aug in self.AUGMENTS]

    def make_input(self, rng):
        return {
            "Omega": float(rng.uniform(0.45, 0.55)),
            "order": rng.permutation(len(self.tasks)),
            "gate_alphas": np.sort(rng.uniform(*self.INTERVAL, 5)),
        }

    warmup_input = make_input

    def run(self, inp):
        Omega = inp["Omega"]
        out = []
        for k in inp["order"]:
            kind, arg, j = self.tasks[k]
            if kind == "nondegeneracy":
                out.append(
                    spectrum.check_nondegeneracy(self.S, Omega, self.INTERVAL, augment=arg)
                )
            else:
                rep = spectrum.transversality_report(
                    self.S, Omega, arg, kind, self.INTERVAL, self.Q0, j=j, npts=self.npts
                )
                out.append(rep.margin)
        return out

    def check(self, inp, values):
        from scipy.special import iv, kv

        Omega, alphas = inp["Omega"], inp["gate_alphas"]
        js = list(self.S) + list(self.EXTRA_MODES) + [-j for j in self.S]
        W = spectrum.equilibrium_matrix(js, Omega, alphas)
        x = 1.0 / alphas
        ref = np.array(
            [
                j * (Omega + (abs(j) - 1) / (2.0 * abs(j))
                     - (iv(1, x) * kv(1, x) - iv(abs(j), x) * kv(abs(j), x)))
                for j in js
            ]
        )
        values = np.asarray(values, dtype=float)
        return {
            "matrix_rel": float(np.max(np.abs(W - ref) / np.abs(ref))),
            "nonpositive": float(np.count_nonzero(~(values > 0))),
        }

    def counters(self, values):
        return {}


class Conservation:
    """Conserved quantities (J, E, H) of seeded near-disc patches.

    M = 32 gives the default quadrature 64 x 32 = 2048 polar nodes: 0.9 s and
    0.83 GB per call.  M = 64 (4096 nodes) takes 5 s and 3.1 GB, too few ops
    per run for a steady median and too much memory for a shared host.
    """

    name = "conservation"
    PROBE = "memory"
    M = 32
    ALPHA = 0.3
    OMEGA = 0.5
    AMPLITUDE = (0.005, 0.01)

    def __init__(self, tiny=False):
        # tiny: a 512-node energy quadrature, good to ~2e-2 on the disc
        self.kwargs = {"n_radial": 16} if tiny else {}
        self.GATES = {
            "E_rel_disc": 5e-2 if tiny else 1e-2,
            "J_rel": 1e-12,
            "mean_drift": 1e-15,
            "H_identity": 1e-14,
        }

    def _patch(self, r):
        return contour.RadialPatch(r, self.OMEGA, self.ALPHA)

    def make_input(self, rng):
        theta = 2 * np.pi * np.arange(self.M) / self.M
        a2, a3 = rng.uniform(*self.AMPLITUDE, 2)
        p2, p3 = rng.uniform(0.0, 2 * np.pi, 2)
        return self._patch(a2 * np.cos(2 * theta + p2) + a3 * np.cos(3 * theta + p3))

    def warmup_input(self, rng):
        """The unit disc, whose energy has a closed form."""
        return self._patch(np.zeros(self.M))

    def run(self, patch):
        return contour.diagnostics(patch, **self.kwargs)

    def check(self, patch, d):
        """Near-disc patches differ from the disc energy by O(amplitude^2) ~ 1e-3."""
        from scipy.special import iv, kv

        a = self.ALPHA
        E_disc = 1.0 / 16.0 - a * a * (1.0 - 2.0 * iv(1, 1 / a) * kv(1, 1 / a)) / 2.0
        J = _angular_momentum(patch.samples)
        return {
            "E_rel_disc": abs(d.E - E_disc) / abs(E_disc),
            "J_rel": abs(d.J - J) / J,
            "mean_drift": abs(d.mean_r - float(patch.samples.mean())),
            "H_identity": abs(d.H - 0.5 * (d.E - self.OMEGA * d.J)),
        }

    def counters(self, d):
        return {}


WORKLOADS = {w.name: w for w in (Evolve, Branch, Margins, Conservation)}

REACH_ALPHA = 0.7
REACH_FOLD = 3
REACH_LADDER = [1e-4] + [0.01 * k for k in range(1, 11)]


def branch_reach():
    """Largest amplitude of the fixed m = 3 ladder that continuation reaches.

    Prefixes of the ladder are continued in turn; the first one that raises
    ends the probe.
    """
    reached = 0.0
    for k in range(1, len(REACH_LADDER) + 1):
        try:
            vstates.continue_branch(REACH_ALPHA, REACH_FOLD, REACH_LADDER[:k])
        except (ValueError, ArithmeticError) as exc:
            return reached, f"{type(exc).__name__}: {exc}"
        reached = REACH_LADDER[k - 1]
    return reached, None
