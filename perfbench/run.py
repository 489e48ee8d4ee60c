"""Benchmark of vortexalpha: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload runs in fresh worker processes (``worker.py``) with the
program taken from ``src/``.  ``--trace 0`` measures the end-to-end metrics
of ``BENCHMARK.json`` with tracing off; ``--trace 1`` measures its per-layer
metrics.  Information lines start with ``#`` or name a metric; the last line
of standard output is the JSON result.  See ``NOTES.md`` for the workloads,
the metrics and the defects the benchmark exposes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# the run must end within 180 s; workers get what is left of this budget
BUDGET_S = 170.0
# set-up is sampled by the measuring worker and this many set-up-only workers
SETUP_REPEATS = 2


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_spec():
    package = ROOT / "src" / "vortexalpha" / "__init__.py"
    spec_file = ROOT / "BENCHMARK.json"
    if not package.is_file() or not spec_file.is_file():
        raise BenchError(f"run from a checkout holding {package.relative_to(ROOT)} and BENCHMARK.json")
    return json.loads(spec_file.read_text())


def run_worker(args, mode, deadline, layers=()):
    """Start one worker, wait for it, return its JSON record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--layers", ",".join(layers), "--t0", repr(time.monotonic()),
    ] + (["--tiny"] if args.tiny else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{mode} worker for {args.workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {args.workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def summarize_times(samples):
    """Median op seconds, counting failed ops as infinitely slow."""
    values = sorted(s if ok else math.inf for s, ok, _ in samples)
    median = statistics.median(values)
    line = f"median {median:.4g} s over {len(values)} ops"
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(len(values) * p / 100)
        if len(values) - rank >= 10:
            line += f"; p{p:g} {values[rank - 1]:.4g} s with {len(values) - rank} beyond"
            break
    else:
        line += "; no percentile has 10 samples beyond it"
    return median, line


def print_gates(rec):
    for g, v in rec["gates"].items():
        print(f"# gate {g}: worst {v['worst']:.3g} (tolerance {v['tol']:.3g}), "
              f"{v['failures']} failing ops")
    for err in rec["errors"]:
        print(f"# error: {err}")


def measure(args, spec, deadline):
    """End-to-end metrics of one workload, tracing off."""
    rec = run_worker(args, "measure", deadline)
    setups = [rec] + [run_worker(args, "setup", deadline) for _ in range(SETUP_REPEATS)]
    samples = rec["op_s"]
    op_s, line = summarize_times(samples)
    raw = statistics.median(r for _, _, r in samples)
    passed = sum(ok for _, ok, _ in samples)
    if not math.isfinite(op_s):
        op_s = rec["timed_wall_s"]  # most ops failed: report the whole window
    print(f"# machine: {json.dumps(rec['machine'])}")
    print(f"# {args.workload} seed {args.seed}: op_s {line}; raw median {raw:.4g} s")
    print("# setup_s samples: " + ", ".join(
        f"{r['setup_s']:.4g} (raw {r['setup_raw_s']:.4g})" for r in setups))
    print_gates(rec)
    print(f"# reach stopped by: {rec['reach_stop']}")
    fail_frac = rec["failed"] / rec["attempted"]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "op_s": op_s,
        "ops_per_s": passed / sum(s for s, _, _ in samples),
        "peak_rss_mb": rec["peak_rss_mb"],
        "pass_frac": 1.0 - fail_frac,
        "reach": rec["reach"],
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"{args.workload} fail_frac = {fail_frac:.6g} fraction "
          f"({rec['failed']} of {rec['attempted']} ops)")
    return rec, values, units


def trace(args, spec, deadline):
    """Per-layer metrics of one workload from a traced worker."""
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    rec = run_worker(args, "trace", deadline, layers=list(units))
    untraced, _ = summarize_times(rec["op_s"])
    traced, line = summarize_times(rec["traced_op_s"])
    print(f"# {args.workload} seed {args.seed}: traced op_s {line}")
    print(f"# tracing overhead: traced op_s {traced:.4g} s against untraced "
          f"{untraced:.4g} s ({100 * (traced / untraced - 1):+.1f} %)")
    print_gates(rec)
    return rec, rec["layers"], units


def run_one(args, spec, deadline):
    rec, values, units = (trace if args.trace else measure)(args, spec, deadline)
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    metrics = {}
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    return {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names + ["all"]:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names} or all")
        deadline = time.monotonic() + BUDGET_S * (len(names) if args.workload == "all" else 1)
        if args.workload != "all":
            result = run_one(args, spec, deadline)
        else:
            results = {}
            for name in names:
                results[name] = run_one(argparse.Namespace(**{**vars(args), "workload": name}), spec, deadline)
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{name}.{m}": v for name, r in results.items() for m, v in r["metrics"].items()
                },
            }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
