"""Spans around calls into compedge's public functions, and their per-layer sums.

Each traced function is replaced, under every name that binds it in any
compedge module, by a wrapper that records a span (name, start, end,
parent) and adds to the function's call count and self time: its span's
duration minus the part its child spans cover.  Counters next to a span are
computed by hooks from the call's arguments and result, outside the span,
so that their cost lands in the caller's self time and in
``trace.overhead_s``, not in the traced function's.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# layer -> functions wrapped one by one; ``formulas`` is summed as one layer
TRACED = {
    "verify": ("ass_oracle", "v_oracle", "depth_zero_oracle", "run_graph_checks"),
    "ideals": (
        "multiply",
        "intersect",
        "colon",
        "colon_ideal",
        "localize",
        "symbolic_power",
        "graded_component",
        "membership_box",
        "classify_big_degree",
    ),
    "resolution": (
        "betti_table",
        "reg_pd_depth",
        "has_linear_resolution",
        "is_componentwise_linear",
        "has_linear_quotients",
    ),
    "graphs": ("is_isomorphic",),
}
# the checks the workloads run, whose report timings become check.<name>.s
CHECK_NAMES = (
    "ass",
    "persistence",
    "v",
    "reg",
    "depth-monotone",
    "linear",
    "betti-field-independence",
    "strong-persistence",
    "symbolic",
    "localization",
)


def box_cells(bound) -> int:
    """Cells of the divisor box of a monomial: the product of (e + 1)."""
    out = 1
    for e in bound.exponents:
        out *= e + 1
    return out


class Tracer:
    """Collects spans in memory while installed; ``metrics`` sums them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._scanned: set = set()
        self._betti_args: set = set()

    # -- counters, run after the traced call returns

    def _scan(self, name, args, kwargs, result) -> None:
        I = args[0]
        self.counts[f"{name}.box_cells"] += box_cells(I.lcm_of_generators())
        if I in self._scanned:
            self.counts["verify.witness_scans_repeated"] += 1
        self._scanned.add(I)

    def _products(self, name, args, kwargs, result) -> None:
        self.counts[f"{name}.products"] += len(args[0].generators) * len(args[1].generators)

    def _box(self, name, args, kwargs, result) -> None:
        self.counts[f"{name}.cells"] += box_cells(args[1])

    def _betti(self, name, args, kwargs, result) -> None:
        key = (args, tuple(sorted(kwargs.items())))
        if key in self._betti_args:
            self.counts[f"{name}.repeat_calls"] += 1
        self._betti_args.add(key)
        self.counts[f"{name}.box_cells"] += box_cells(args[0].lcm_of_generators())
        self.counts[f"{name}.entries"] += len(result.entries)

    def _hooks(self):
        return {
            "verify.ass_oracle": self._scan,
            "verify.v_oracle": self._scan,
            "ideals.multiply": self._products,
            "ideals.intersect": self._products,
            "ideals.membership_box": self._box,
            "resolution.betti_table": self._betti,
        }

    # -- installing the wrappers

    def install(self, package) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if name == package.__name__ or name.startswith(package.__name__ + ".")
        ]
        targets = [(layer, fn) for layer, fns in TRACED.items() for fn in fns]
        formulas = getattr(package, "formulas", None)
        if formulas is not None:
            targets += [
                ("formulas", name)
                for name, obj in vars(formulas).items()
                if inspect.isfunction(obj)
                and obj.__module__ == formulas.__name__
                and not name.startswith("_")
            ]
        hooks = self._hooks()
        for layer, fn in targets:
            span = f"{layer}.{fn}"
            orig = getattr(getattr(package, layer, None), fn, None)
            if orig is None:
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, orig, hooks.get(span))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def _wrap(self, span: str, orig, hook):
        nid = len(self.names)
        self.names.append(span)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            self.span_start.append(t0)
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.span_end[idx] = t1
                self.calls[span] += 1
                self.self_s[span] += t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    # -- output

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer sums; a function absent from compedge reads 0."""
        out: dict[str, tuple[float, str]] = {}
        for layer, fns in TRACED.items():
            for fn in fns:
                span = f"{layer}.{fn}"
                out[f"{span}.calls"] = (self.calls[span], "count")
                out[f"{span}.self_s"] = (self.self_s[span], "s")
        out["formulas.calls"] = (
            sum(c for s, c in self.calls.items() if s.startswith("formulas.")), "count"
        )
        out["formulas.self_s"] = (
            sum(t for s, t in self.self_s.items() if s.startswith("formulas.")), "s"
        )
        for name in COUNTERS:
            out[name] = (self.counts[name], "count")
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


COUNTERS = (
    "verify.ass_oracle.box_cells",
    "verify.v_oracle.box_cells",
    "verify.witness_scans_repeated",
    "ideals.multiply.products",
    "ideals.intersect.products",
    "ideals.membership_box.cells",
    "resolution.betti_table.box_cells",
    "resolution.betti_table.entries",
    "resolution.betti_table.repeat_calls",
)


def layer_metric_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    units = {name: unit for name, (_, unit) in Tracer().metrics().items()}
    units.update({f"check.{c}.s": "s" for c in CHECK_NAMES})
    units["trace.overhead_s"] = "s"
    return units
