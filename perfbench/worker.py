"""One workload in one fresh process; prints a single JSON record.

Started by ``run.py``.  Thread pools are pinned to one thread before numpy
is imported, so a run stays within two cores and its peak memory is its own.
Op seconds are reported raw and scaled to nominal host speed (``probe.py``).

Modes: ``measure`` warms up, runs timed ops for ``--seconds`` and probes the
branch reach; ``setup`` stops after the warm-up op and reports only the
set-up time; ``trace`` runs untraced ops for the first half of the window
and traced ops for the second.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from probe import SpeedProbe  # noqa: E402

# inputs are drawn up front and reused in turn; the program caches nothing
# keyed by them, so reuse does not make later ops cheaper
POOL = 64


def machine_info():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


class Runner:
    """Times ops, checks their gates and keeps the worst error per gate."""

    def __init__(self, workload):
        self.wl = workload
        self.gates = {
            g: {"worst": 0.0, "tol": tol, "failures": 0} for g, tol in workload.GATES.items()
        }
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, inp, out):
        """Record the op's gates; False if one fails or the check raises."""
        try:
            errs = self.wl.check(inp, out)
        except Exception as exc:  # a check that cannot run fails the op
            return self.fail(exc)
        self.attempted += 1
        ok = True
        for g, err in errs.items():
            rec = self.gates[g]
            err = float(err)
            rec["worst"] = max(rec["worst"], err) if math.isfinite(err) else math.inf
            if not err <= rec["tol"]:
                rec["failures"] += 1
                ok = False
        self.failed += not ok
        return ok

    def fail(self, exc):
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")
        return False

    def op(self, inp, tracer=None):
        """(seconds, output) of one op; the output is None if the op raised."""
        with tracer.installed() if tracer else nullcontext():
            start = time.perf_counter()
            try:
                out = self.wl.run(inp)
            except Exception as exc:  # the benchmark keeps running and counts it
                self.fail(exc)
                out = None
            return time.perf_counter() - start, out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("measure", "setup", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at launch")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--layers", default="", help="comma-separated layer metric names")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    rng = np.random.default_rng(args.seed)
    warm_input = wl.warmup_input(rng)
    inputs = [wl.make_input(rng) for _ in range(POOL)]
    runner = Runner(wl)
    _, warm_out = runner.op(warm_input)
    setup_raw_s = time.monotonic() - args.t0
    probe = SpeedProbe(wl.PROBE)
    try:
        probes = [probe()]
        setup = {
            "setup_s": setup_raw_s * probe.scale(probes[0], probes[0]),
            "setup_raw_s": setup_raw_s,
        }
        if args.mode == "setup":
            print(json.dumps(setup))
            return
        if warm_out is not None:
            runner.check(warm_input, warm_out)

        tracer = None
        if args.mode == "trace":
            import spans

            tracer = spans.Tracer()
        phases = [(args.seconds / 2, None), (args.seconds, tracer)] if tracer else [
            (args.seconds, None)
        ]
        times = {"untraced": [], "traced": []}
        counters = {}
        start = time.perf_counter()
        k = 0
        for until, phase_tracer in phases:
            key = "traced" if phase_tracer else "untraced"
            while not times[key] or time.perf_counter() - start < until:
                inp = inputs[k % POOL]
                k += 1
                seconds, out = runner.op(inp, phase_tracer)
                probes.append(probe())
                ok = out is not None and runner.check(inp, out)
                times[key].append([seconds * probe.scale(*probes[-2:]), ok, seconds])
                if phase_tracer and out is not None:
                    for name, v in wl.counters(out).items():
                        counters[name] = counters.get(name, 0) + v
        timed_wall = time.perf_counter() - start
    finally:
        probe.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "machine": machine_info(),
        **setup,
        "op_s": times["untraced"],
        "timed_wall_s": timed_wall,
        "peak_rss_mb": peak_rss_mb,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "gates": runner.gates,
        "errors": runner.errors,
    }
    if tracer:
        names = [n for n in args.layers.split(",") if n]
        record["traced_op_s"] = times["traced"]
        record["layers"] = spans.layer_metrics(tracer, names, len(times["traced"]), counters)
    else:
        record["reach"], record["reach_stop"] = workloads.branch_reach()
    print(json.dumps(record))


if __name__ == "__main__":
    main()
