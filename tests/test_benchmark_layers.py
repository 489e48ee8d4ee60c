"""The layer expectations of the benchmark's traced run, checked in-process.

``perfbench/smoke_tests.py`` asserts these on worker processes and is not
collected here; this mirror runs the tiny ``evolve``, ``margins`` and
``conservation`` ops under the benchmark's own tracer, so a change that
moves a layer call (a ``green_kernel`` call dropped from the energy, a
K_0 evaluation added to the margins) fails in the default suite.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def traced_op(name):
    wl = workloads.WORKLOADS[name](tiny=True)
    inp = wl.make_input(np.random.default_rng(1))
    tracer = spans.Tracer()
    with tracer.installed():
        wl.run(inp)
    return tracer


@pytest.fixture(scope="module")
def traces():
    return {name: traced_op(name) for name in ("evolve", "margins", "conservation")}


def test_margins_evaluate_no_k0(traces):
    assert traces["margins"].calls["specfun.k0_array"] == 0
    assert traces["margins"].calls["spectrum.transversality_report"] > 0


def test_evolve_takes_four_rhs_calls_per_step(traces):
    calls = traces["evolve"].calls
    assert calls["contour.rhs"] == 4 * calls["contour.step_rk4"] > 0


def test_conservation_counts_green_kernel_points(traces):
    assert traces["conservation"].counts["greens.green_kernel.points"] > 0
