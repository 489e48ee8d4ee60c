"""Guard: every definition and option in src/ has a user outside the tests.

Definitions are the top-level functions and classes and the methods and
properties of the classes (dunder methods belong to their class).  The
roots are the identifiers that ``perfbench/`` uses (names, attributes
and strings that are dotted identifiers, since the tracer and its smoke
tests name aliases by string), the module-level code of ``src/`` other
than imports, and the paper-level entry points below.  A definition is
reached when its name occurs in a root or in the body of a reached
definition, a member's name only as an attribute or a part of a dotted
string; names are matched across modules, so the scan errs towards
reaching.

Options are the parameters with a default of the top-level public
functions.  An option is passed when some call in ``src/`` or
``perfbench/`` of a function by that name passes it, by keyword, by
position or through ``*``/``**``; the ones no call passes are the
deliberate user controls below.  The tests themselves are not read.
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
    "equilibrium_frequency",
    "linear_qp_solution",
    "omega_infinity",
    "omega_sw",
    "qp_residual",
    "v0_curve",
    "vstate_to_radial",
)
# (function, option) pairs that only a user sets: the controls of a run,
# kept while no code in the repository passes them
USER_OPTIONS = (
    ("check_crandall_rabinowitz", "Omega"),
    ("check_nondegeneracy", "n_samples"),
    ("continue_branch", "max_steps"),
    ("continue_branch", "tol"),
    ("difference_derivative_bound", "npts"),
    ("evolve", "dt"),
    ("evolve", "snapshot_every"),
    ("transversality_report", "j0"),
)
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def referenced(node):
    """Identifiers a node uses: names, attributes and dotted-identifier strings.

    An attribute or a part of a dotted string is also listed as ".name",
    the only form in which a member can be used.
    """
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.update((sub.attr, "." + sub.attr))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if DOTTED.fullmatch(sub.value):
                out.update(dot + part for part in sub.value.split(".") for dot in ("", "."))
    return out


def sources(*folders):
    """Parsed modules of the given repository folders."""
    return [
        ast.parse(path.read_text())
        for folder in folders
        for path in sorted((ROOT / folder).glob("*.py"))
    ]


def is_member(node):
    """A method or property of a class body other than a dunder method."""
    return isinstance(node, ast.FunctionDef) and not (
        node.name.startswith("__") and node.name.endswith("__")
    )


def unreached(entry_points=ENTRY_POINTS):
    """Sorted names of the definitions in src/ that no root reaches."""
    # definition name (".name" for a member) -> identifiers it uses
    uses, roots = {}, set(entry_points)
    for tree in sources("src/vortexalpha"):
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                uses.setdefault(stmt.name, set()).update(referenced(stmt))
            elif isinstance(stmt, ast.ClassDef):
                own = uses.setdefault(stmt.name, set())
                for node in stmt.bases + stmt.decorator_list + stmt.body:
                    if is_member(node):
                        uses.setdefault("." + node.name, set()).update(referenced(node))
                    else:
                        own |= referenced(node)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= referenced(stmt)
    for tree in sources("perfbench"):
        roots |= referenced(tree)
    reached, todo = set(), sorted(roots & uses.keys())
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += sorted(uses[name] & uses.keys())
    return sorted(name.lstrip(".") for name in uses.keys() - reached)


def called_name(node):
    """The name a call node calls (``f(...)`` or ``obj.f(...)``), else None."""
    func = node.func if isinstance(node, ast.Call) else None
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def unpassed_options():
    """Sorted (function, option) pairs of src/ that no call in src/ or perfbench/ passes."""
    options = {}  # function name -> (positional parameters, options)
    for tree in sources("src/vortexalpha"):
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                a = stmt.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                defaulted = positional[len(positional) - len(a.defaults):] + [
                    p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
                ]
                options[stmt.name] = (positional, defaulted)
    passed = set()
    for tree in sources("src/vortexalpha", "perfbench"):
        for call in ast.walk(tree):
            name = called_name(call)
            if name not in options:
                continue
            positional, defaulted = options[name]
            if any(k.arg is None for k in call.keywords):  # **mapping
                passed.update((name, p) for p in defaulted)
            if any(isinstance(arg, ast.Starred) for arg in call.args):
                passed.update((name, p) for p in positional)
            passed.update((name, p) for p in positional[: len(call.args)])
            passed.update((name, k.arg) for k in call.keywords)
    return sorted({(f, p) for f, (_, ps) in options.items() for p in ps} - passed)


def test_every_definition_is_reached_outside_the_tests():
    assert unreached() == []


def test_entry_points_have_no_other_caller():
    # also shows that the scan reports what no root reaches
    assert set(ENTRY_POINTS) <= set(unreached(entry_points=()))


def test_every_unpassed_option_is_a_user_option():
    assert set(unpassed_options()) <= set(USER_OPTIONS)


def test_user_options_have_no_caller():
    # also shows that the scan reports what no call passes
    assert set(USER_OPTIONS) <= set(unpassed_options())


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
