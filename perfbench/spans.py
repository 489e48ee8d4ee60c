"""Per-module spans around the public functions of ``vortexalpha``.

The tracer wraps every public function defined in the six working modules.
While installed it replaces the defining module's attribute and every alias
another of those modules imported (``contour.green_kernel``,
``vstates.combined_boundary_kernel``, ...), and it restores all of them on
exit.  Each wrapper counts calls and accumulates self time: the span's
duration minus the spans it caused.  Argument statistics (``hooks``) are
taken after the span closes and are charged to no span.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from vortexalpha import contour, greens, numerics, specfun, spectrum, vstates

from workloads import K0_ASY_MIN, K0_SERIES_MAX

MODULES = (specfun, greens, numerics, contour, vstates, spectrum)


def _short(module):
    return module.__name__.rsplit(".", 1)[-1]


def _k0_arguments(tracer, args, kwargs):
    x = np.asarray(args[0] if args else kwargs["x"])
    n = x.size
    tracer.counts["specfun.k0_array.points"] += n
    tracer.counts["specfun.k0_array.series"] += int(np.count_nonzero(x <= K0_SERIES_MAX))
    tracer.counts["specfun.k0_array.mid"] += int(
        np.count_nonzero((x > K0_SERIES_MAX) & (x < K0_ASY_MIN))
    )
    if "contour.diagnostics" in tracer.open_spans():
        tracer.counts["contour.diagnostics.pairs"] += n


def _green_arguments(tracer, args, kwargs):
    rho = args[1] if len(args) > 1 else kwargs["rho"]
    tracer.counts["greens.green_kernel.points"] += np.size(rho)


HOOKS = {"specfun.k0_array": _k0_arguments, "greens.green_kernel": _green_arguments}


class Tracer:
    """Call counts and self times of the wrapped functions, kept in memory."""

    def __init__(self, modules=MODULES, hooks=HOOKS):
        self.modules = modules
        self.hooks = hooks
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # [name, seconds covered by child spans]
        self._wrappers = {}
        for module in modules:
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    self._wrappers[obj] = self._wrap(f"{_short(module)}.{attr}", obj)

    def open_spans(self):
        return [frame[0] for frame in self._stack]

    def _wrap(self, name, fn):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.calls[name] += 1
                self.self_s[name] += end - start - frame[1]
                if hook is not None:
                    hook(self, args, kwargs)
                if self._stack:
                    self._stack[-1][1] += perf_counter() - start

        return traced

    @contextmanager
    def installed(self):
        """Replace every attribute bound to a wrapped function; restore on exit."""
        replaced = []
        try:
            for module in self.modules:
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in self._wrappers:
                        replaced.append((module, attr, obj))
                        setattr(module, attr, self._wrappers[obj])
            yield self
        finally:
            for module, attr, obj in replaced:
                setattr(module, attr, obj)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, names, ops, counters):
    """Per-op layer metrics named ``<module>.<function>.<stat>``.

    ``counters`` holds totals the workload read from its outputs
    (``sim_time``, ``newton_steps``).  Ratios with a zero base are 0.
    """
    c = tracer.counts
    special = {
        "specfun.k0_array.points": c["specfun.k0_array.points"] / ops,
        "specfun.k0_array.ns_per_point": 1e9
        * _ratio(tracer.self_s["specfun.k0_array"], c["specfun.k0_array.points"]),
        "specfun.k0_array.series_share": _ratio(
            c["specfun.k0_array.series"], c["specfun.k0_array.points"]
        ),
        "specfun.k0_array.mid_share": _ratio(
            c["specfun.k0_array.mid"], c["specfun.k0_array.points"]
        ),
        "contour.rhs.ms_per_call": 1e3
        * _ratio(tracer.self_s["contour.rhs"], tracer.calls["contour.rhs"]),
        "contour.rhs.calls_per_unit_time": _ratio(
            tracer.calls["contour.rhs"], counters.get("sim_time", 0.0)
        ),
        "contour.diagnostics.pairs": c["contour.diagnostics.pairs"] / ops,
        "greens.green_kernel.points": c["greens.green_kernel.points"] / ops,
        "vstates.evaluate_F.per_newton_step": _ratio(
            tracer.calls["vstates.evaluate_F"], counters.get("newton_steps", 0)
        ),
        "vstates.newton_steps": counters.get("newton_steps", 0) / ops,
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = float(special[name])
            continue
        span, stat = name.rsplit(".", 1)
        if stat == "calls":
            out[name] = tracer.calls[span] / ops
        elif stat == "self_s":
            out[name] = tracer.self_s[span] / ops
        else:
            raise KeyError(f"no rule for layer metric {name!r}")
    return out
