"""Guard: importing the package loads no test-only or heavyweight module.

``scipy`` and ``mpmath`` are test dependencies only, and importing
``numpy.polynomial`` raises the peak resident set of a process by about
0.8 MB (27.5 to 28.3 MB after ``import numpy``, Linux x86-64), which the
benchmark's peak-RSS metric would see.  The import runs in a fresh
interpreter, since the other tests load scipy and mpmath.

Every console script that ``pyproject.toml`` declares must name a module
and a callable that import, or the installed script fails at start.
"""

import importlib
import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
EXCLUDED = ("scipy", "mpmath", "numpy.polynomial")


def test_importing_every_module_loads_no_excluded_module():
    modules = sorted(
        "vortexalpha" if path.stem == "__init__" else f"vortexalpha.{path.stem}"
        for path in (SRC / "vortexalpha").glob("*.py")
    )
    script = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(sorted(m for m in sys.modules for x in {EXCLUDED!r}"
        " if m == x or m.startswith(x + '.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert "vortexalpha.vstates" in modules  # the scan saw the package


def test_declared_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(operator.attrgetter(attr)(importlib.import_module(module))), name
