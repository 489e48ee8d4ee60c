"""Guard: every top-level definition in src/ is reached by code outside the tests.

The roots are the identifiers that ``perfbench/`` uses (names, attributes
and strings that are dotted identifiers, since the tracer and its smoke
tests name aliases by string), the module-level code of ``src/`` other
than imports, and the paper-level entry points below.  A definition is
reached when its name occurs in a root or in the body of a reached
definition; names are matched across modules, so the scan errs towards
reaching.  The tests themselves are not read.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# paper-level entry points that no code in the repository calls yet; each
# is listed only while nothing else reaches it
ENTRY_POINTS = (
    "check_crandall_rabinowitz",
    "difference_derivative_bound",
    "omega_bifurcation",
    "omega_sw",
    "qp_residual",
    "v0_curve",
    "vstate_to_radial",
)
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def referenced(node):
    """Identifiers a node uses: names, attributes and dotted-identifier strings."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if DOTTED.fullmatch(sub.value):
                out.update(sub.value.split("."))
    return out


def unreached(entry_points=ENTRY_POINTS):
    """Sorted names of the top-level definitions in src/ that no root reaches."""
    defs, roots = {}, set(entry_points)
    for path in sorted((ROOT / "src" / "vortexalpha").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append(stmt)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= referenced(stmt)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        roots |= referenced(ast.parse(path.read_text()))
    reached, todo = set(), sorted(roots & defs.keys())
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in defs[name]:
                todo += sorted(referenced(node) & defs.keys())
    return sorted(defs.keys() - reached)


def test_every_definition_is_reached_outside_the_tests():
    assert unreached() == []


def test_entry_points_have_no_other_caller():
    # also shows that the scan reports what no root reaches
    assert set(ENTRY_POINTS) <= set(unreached(entry_points=()))
