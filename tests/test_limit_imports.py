"""The size limits are read at call time, through their modules.

``ideals.BOX_CELL_LIMIT`` guards every divisor-count table and
``resolution.DEFAULT_LATTICE_LIMIT`` the lcm lattice.  A module that imports
either by name holds a copy frozen at import, so its kernels and the sweep's
memo keys would miss a lowered limit.  Each is assigned in one module and
imported by name in none, checked here on the sources without running them.
"""

import ast
from pathlib import Path

import compedge

SOURCES = Path(compedge.__file__).resolve().parent
LIMITS = {"BOX_CELL_LIMIT": "ideals.py", "DEFAULT_LATTICE_LIMIT": "resolution.py"}


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
