"""Smoke tests of the benchmark itself, at a tiny input size.

Run from the repository root (kept out of the default test collection, since
they start worker processes for about half a minute):

    python3 -m pytest -q perfbench/smoke_tests.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "1", "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(*args):
    proc = _bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced():
    return _result("--workload", "all", "--seed", "1", "--trace", "0")


def _assert_metrics(result, section):
    expected = {
        f"{w}.{m['name']}": m["unit"] for w in NAMES for m in SPEC[section]
    }
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        value = result["metrics"][name]
        assert value["unit"] == unit
        assert isinstance(value["value"], float) and np.isfinite(value["value"])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= len(NAMES)


def test_every_end_to_end_metric_is_emitted(untraced):
    _assert_metrics(untraced, "end_to_end")


def test_every_layer_metric_is_emitted():
    result = _result("--workload", "all", "--seed", "1", "--trace", "1")
    _assert_metrics(result, "per_layer")
    metrics = result["metrics"]
    assert metrics["margins.specfun.k0_array.calls"]["value"] == 0
    assert metrics["evolve.contour.rhs.calls"]["value"] > 0
    assert metrics["conservation.greens.green_kernel.points"]["value"] > 0


def _fingerprint(inp):
    return json.dumps(
        inp, sort_keys=True,
        default=lambda o: np.asarray(getattr(o, "samples", o)).tolist(),
    )


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_inputs(name):
    wl = workloads.WORKLOADS[name](tiny=True)
    first = [_fingerprint(wl.make_input(np.random.default_rng(s))) for s in (1, 1, 2)]
    assert first[0] == first[1]
    assert first[0] != first[2]


def test_seed_keeps_metric_names(untraced):
    other = _result("--workload", "all", "--seed", "2", "--trace", "0")
    assert set(other["metrics"]) == set(untraced["metrics"])


def _bindings():
    return {
        (m.__name__, attr): obj
        for m in spans.MODULES
        for attr, obj in vars(m).items()
    }


def test_tracer_wraps_aliases_and_restores_them():
    from vortexalpha import contour, greens, numerics, spectrum, vstates

    before = _bindings()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert vstates.combined_boundary_kernel is greens.combined_boundary_kernel
            assert greens.combined_boundary_kernel is not before[
                ("vortexalpha.greens", "combined_boundary_kernel")
            ]
            for module, attr in (
                (contour, "green_kernel"),
                (contour, "spectral_derivative"),
                (spectrum, "central_fd_stencil"),
            ):
                assert getattr(module, attr) is not before[(module.__name__, attr)]
            numerics.spectral_derivative(np.zeros(8))
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert tracer.calls["numerics.spectral_derivative"] == 1


def test_self_time_excludes_child_spans():
    wl = workloads.Evolve(tiny=True)
    patch = wl.make_input(np.random.default_rng(0))
    tracer = spans.Tracer()
    with tracer.installed():
        wl.run(patch)
    total = sum(tracer.self_s.values())
    assert tracer.calls["contour.rhs"] == 4 * tracer.calls["contour.step_rk4"] > 0
    assert 0 < tracer.self_s["specfun.k0_array"] < total
    assert tracer.self_s["contour.evolve"] < total - tracer.self_s["specfun.k0_array"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "evolve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
