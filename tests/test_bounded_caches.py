"""Guard: every cache in src/ is bounded to a few entries.

A cached function keeps its results alive for the life of the process,
so a ``functools.cache``, or an ``lru_cache`` without a small integer
``maxsize``, would let memory grow with every new key.  A module-level
dict, set or list could serve as a cache that the first scan cannot
see, so none may be bound at module level: caches are bounded
``lru_cache`` functions.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vortexalpha"
MAXSIZE = 4


def cached_functions(tree):
    """{function name: bounded} of the functions in ``tree`` with a functools cache.

    Bounded means ``lru_cache`` called with an integer literal ``maxsize``
    of at most MAXSIZE; a bare ``@lru_cache`` means a maxsize of 128.
    """
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else ast.Call(deco, [], [])
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in ("cache", "lru_cache"):
                continue
            given = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
            value = getattr(given[0], "value", None) if len(given) == 1 else None
            out[node.name] = name == "lru_cache" and type(value) is int and value <= MAXSIZE
    return out


def test_every_cache_in_src_is_bounded():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        found.update(cached_functions(ast.parse(path.read_text())))
    # the scan sees the caches the package has
    expected = {"pair_plan", "_workspace", "_flat_symbol", "_derivative_basis", "_node_table"}
    assert expected <= found.keys()
    assert sorted(name for name, bounded in found.items() if not bounded) == []


def test_scan_flags_unbounded_caches():
    def bounded(decorator):
        return cached_functions(ast.parse(f"{decorator}\ndef f(x):\n    return x\n"))["f"]

    assert bounded("@functools.lru_cache(maxsize=4)")
    assert bounded("@lru_cache(2)")
    for decorator in (
        "@functools.cache", "@functools.lru_cache", "@functools.lru_cache()",
        "@lru_cache(maxsize=None)", "@lru_cache(maxsize=5)", "@lru_cache(maxsize=4.0)",
        "@lru_cache(maxsize=True)", "@lru_cache(maxsize=N)", "@cache",
    ):
        assert not bounded(decorator), decorator


CONTAINERS = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp, ast.ListComp)
CONTAINER_CALLS = {"dict", "set", "list", "defaultdict", "OrderedDict"}


def module_containers(tree):
    """Line numbers of the mutable containers bound at module level in ``tree``.

    A container is a dict, set or list display or comprehension, or a call
    of dict, set, list, defaultdict or OrderedDict, assigned outside any
    function or class body.
    """
    lines, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = node.value
            func = value.func if isinstance(value, ast.Call) else None
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if isinstance(value, CONTAINERS) or name in CONTAINER_CALLS:
                lines.append(node.lineno)
        todo.extend(ast.iter_child_nodes(node))
    return sorted(lines)


def test_no_module_level_container_in_src():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        lines = module_containers(ast.parse(path.read_text()))
        if lines:
            found[path.name] = lines
    assert found == {}


def test_scan_flags_module_level_containers():
    def flagged(source):
        return module_containers(ast.parse(source)) != []

    for source in (
        "_cache = {}", "_seen = set()", "_log = []", "_cache: dict = dict()",
        "_by_key = collections.defaultdict(list)", "_lru = OrderedDict()",
        "_squares = {k: k * k for k in range(4)}", "_odd = {1, 3}",
        "if True:\n    _cache = {}", "_a = _b = list()",
    ):
        assert flagged(source), source
    for source in (
        "_TABLE = np.array([[1.0, 2.0], [3.0, 4.0]])", "_NAMES = ('pure', 'difference')",
        "_FIT = _POWERS[:, 0].tolist()", "def f():\n    cache = {}\n    return cache",
        "class C:\n    def __init__(self):\n        self.d = {}",
    ):
        assert not flagged(source), source
