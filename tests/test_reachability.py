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
import importlib
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


def benchmark_attributes():
    """(module, attribute) pairs of ``vortexalpha`` that ``perfbench/`` names.

    Attribute accesses on an imported ``vortexalpha`` module, and pairs
    (module, "attr") or ("vortexalpha.module", "attr") such as the tracer's
    smoke tests list.
    """
    pairs = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "vortexalpha"
            for alias in node.names
        }

        def module_of(node):
            if isinstance(node, ast.Name):
                return modules.get(node.id)
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                package, _, name = node.value.partition(".")
                return name if package == "vortexalpha" and name else None
            return None

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                module, attr = modules.get(node.value.id), node.attr
            elif isinstance(node, ast.Tuple) and len(node.elts) == 2:
                module, attr = module_of(node.elts[0]), getattr(node.elts[1], "value", None)
            else:
                continue
            if module and isinstance(attr, str):
                pairs.add((module, attr))
    return pairs


def test_benchmark_attributes_exist():
    # tier-1 does not run the benchmark's smoke tests, so a deleted alias
    # such as vstates.combined_boundary_kernel would otherwise pass here
    pairs = benchmark_attributes()
    assert {("vstates", "combined_boundary_kernel"), ("contour", "green_kernel"),
            ("spectrum", "central_fd_stencil"), ("greens", "combined_boundary_kernel"),
            ("contour", "evolve")} <= pairs
    missing = sorted(
        (module, attr)
        for module, attr in pairs
        if not hasattr(importlib.import_module(f"vortexalpha.{module}"), attr)
    )
    assert missing == []
