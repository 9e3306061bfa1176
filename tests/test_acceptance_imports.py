"""The acceptance criteria read reports of ``run_graph_checks``.

Every criterion but criterion 12, which fuzzes the oracles on random ideals,
asserts over reports of the verification path of ``compedge sweep``, the
mixed-degree and Veronese ideals included.  So the suite imports nothing
from ``compedge.resolution`` or ``compedge.formulas``, whose functions a
criterion would otherwise call in a loop beside that path.  Checked here on
the source, at module and at function level, without running it.
"""

import ast
from pathlib import Path

ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"
FORBIDDEN = {"compedge.resolution", "compedge.formulas"}


def imported_names(tree):
    """Every module an import statement names, and every module.name that a
    ``from`` import binds, anywhere in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_acceptance_suite_imports_neither_resolution_nor_formulas():
    names = set(imported_names(ast.parse(ACCEPTANCE.read_text())))
    assert "compedge.verify" in names
    assert not names & FORBIDDEN


def test_the_walk_sees_function_level_imports():
    source = "def criterion():\n    from compedge import formulas\n    import compedge.resolution\n"
    assert set(imported_names(ast.parse(source))) >= FORBIDDEN
