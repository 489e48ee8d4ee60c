"""Guard: every cache in src/ is bounded to a few entries.

A cached function keeps its results alive for the life of the process,
so a ``functools.cache``, or an ``lru_cache`` without a small integer
``maxsize``, would let memory grow with every new key.
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
    assert {"pair_plan", "_flat_symbol", "_derivative_basis", "_node_table"} <= found.keys()
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
