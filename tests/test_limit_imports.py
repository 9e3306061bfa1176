"""The size limits are read at call time, through their module.

``ideals.BOX_CELL_LIMIT`` guards every divisor-count table and
``ideals.DEFAULT_LATTICE_LIMIT`` the lcm lattice.  A module that imports
either by name holds a copy frozen at import, so its kernels and the cache
keys built from :func:`compedge.ideals.limits` would miss a lowered limit.
Each is assigned in ``ideals`` and imported by name in no module, and a
function of an ideal is cached only through
:func:`compedge.ideals.cached_per_ideal`, which keys it by the limits in
force.  All of this is checked on the sources without running them.
"""

import ast
from pathlib import Path

import compedge

SOURCES = Path(compedge.__file__).resolve().parent
LIMITS = {"BOX_CELL_LIMIT": "ideals.py", "DEFAULT_LATTICE_LIMIT": "ideals.py"}


def modules():
    paths = sorted(SOURCES.glob("*.py"))
    assert paths
    return [(path.name, ast.parse(path.read_text())) for path in paths]


def test_no_module_imports_a_limit_by_name():
    imported = [
        (name, alias.name)
        for name, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in LIMITS or alias.name == "*"
    ]
    assert imported == []


def test_each_limit_is_assigned_in_one_module():
    assigned = {
        (target.id, name)
        for name, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id in LIMITS
    }
    assert assigned == set(LIMITS.items())


def decorator_names(fn: ast.FunctionDef) -> set[str]:
    """The names of fn's decorators: ``lru_cache`` for ``@lru_cache(...)``
    and for ``@functools.lru_cache`` alike."""
    calls = (d.func if isinstance(d, ast.Call) else d for d in fn.decorator_list)
    return {d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", "") for d in calls}


def takes_an_ideal(fn: ast.FunctionDef) -> bool:
    args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
    return any(a.annotation is not None and "MonomialIdeal" in ast.unparse(a.annotation) for a in args)


def test_ideal_keyed_caches_go_through_cached_per_ideal():
    functions = [
        (name, node)
        for name, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    bypassing = [
        (name, fn.name)
        for name, fn in functions
        if decorator_names(fn) & {"lru_cache", "cache"} and takes_an_ideal(fn)
    ]
    assert bypassing == []
    kernels = {(name, fn.name) for name, fn in functions if "cached_per_ideal" in decorator_names(fn)}
    assert kernels == {("verify.py", "_prime_colon_witnesses"), ("resolution.py", "_complex_classes")}
