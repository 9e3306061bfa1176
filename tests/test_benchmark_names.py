"""The names the benchmark harness in ``perfbench/`` reads from compedge.

The harness wraps the functions its tracer lists in ``TRACED`` and calls
compedge through ``compedge.<...>`` attribute chains.  A name that no longer
resolves fails every benchmark round, so each one is checked here, without
importing or running the harness.
"""

import ast
import re
from pathlib import Path

import compedge

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def traced_names():
    """(layer, function) pairs of the tracer's ``TRACED`` literal."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            traced = ast.literal_eval(node.value)
            return [(layer, fn) for layer, fns in traced.items() for fn in fns]
    raise AssertionError("perfbench/tracer.py assigns no TRACED")


def attribute_chains():
    """Every ``compedge.<name>...`` chain in the harness sources."""
    chain = re.compile(r"\bcompedge(?:\.[A-Za-z_]\w*)+")
    return sorted({m for path in PERFBENCH.glob("*.py") for m in chain.findall(path.read_text())})


def resolves(dotted):
    obj = compedge
    for name in dotted.split(".")[1:]:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_every_name_the_benchmark_reads_resolves():
    traced = traced_names()
    chains = attribute_chains()
    assert traced and chains
    missing = [f"compedge.{layer}.{fn}" for layer, fn in traced]
    missing = [name for name in missing + chains if not resolves(name)]
    assert missing == []
