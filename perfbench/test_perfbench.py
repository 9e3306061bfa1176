"""Self-tests of the benchmark: in-process smoke rounds on tiny inputs, and each
checker rejecting a corrupted output.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import compedge  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import CHECK_NAMES, Tracer, layer_metric_units  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_round(workload):
    ops = workloads.run_round(workloads.make_inputs(workload, 3, "tiny"))
    assert ops and all(op.error is None for op in ops)
    assert all(p == [] for p in checks.check_round(workload, 3, ops))


def test_smoke_trace_reports_every_layer_metric():
    tracer = Tracer()
    tracer.install(compedge)
    try:
        ops = workloads.run_round(workloads.make_inputs("census_ass", 3, "tiny"))
    finally:
        tracer.uninstall()
    assert all(p == [] for p in checks.check_round("census_ass", 3, ops))
    assert tracer.absent == []
    metrics = {k: v for k, (v, _) in tracer.metrics().items()}
    reported = set(metrics) | {f"check.{c}.s" for c in CHECK_NAMES} | {"trace.overhead_s"}
    assert reported == set(layer_metric_units())
    # v_oracle scans every power that ass_oracle scanned already
    assert metrics["verify.witness_scans_repeated"] == metrics["verify.v_oracle.calls"] > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_metric_units()
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}


def test_same_seed_same_inputs():
    a = workloads.make_inputs("deep_powers", 7, "tiny")
    b = workloads.make_inputs("deep_powers", 7, "tiny")
    assert a.deep == b.deep and a.mixed == b.mixed
    c1 = workloads.make_inputs("census_ass", 7, "tiny").graphs
    c2 = workloads.make_inputs("census_ass", 8, "tiny").graphs
    assert c1 != c2 and set(c1) == set(c2)


# ---------------------------------------------------------------------------
# each checker rejects a corrupted output


def graph(n, edges):
    return compedge.Graph.from_edges(n, edges)


STAR = graph(4, [(0, 1), (0, 2), (0, 3)])  # K_{1,3}: a leaf triple enters Ass at k = 2
C5 = compedge.cycle_graph(5)


def census_op(g, workload):
    checks_, k_max = workloads.CENSUS[workload]
    cfg = compedge.SweepConfig(k_max=k_max, checks=checks_, lq_limit=workloads.LQ_LIMIT)
    return workloads.Outcome("graph", "g", g, result=compedge.run_graph_checks(g, cfg))


def test_ass_checker_rejects_a_dropped_prime():
    op = census_op(STAR, "census_ass")
    assert checks.check_report(op, "census_ass", sample=True) == []
    bad = copy.deepcopy(op)
    bad.result.per_k[2]["ass_oracle"].pop()
    assert checks.check_report(bad, "census_ass", sample=True)


def test_v_checker_rejects_a_wrong_witness():
    I = compedge.power(compedge.complementary_edge_ideal(C5), 2)
    wit = compedge.v_oracle(I)
    gens = checks.gens_of(I)
    expected = compedge.v_closed_form(C5, 2)
    assert checks.check_v(gens, wit.v, expected, wit.witness.exponents, wit.prime) == []
    other = next(F for F in compedge.ass_oracle(I) if F != wit.prime)
    assert checks.check_v(gens, wit.v, expected, wit.witness.exponents, other)
    assert checks.check_v(gens, wit.v + 1, expected)


def test_betti_checker_rejects_a_changed_entry():
    for g in (C5, compedge.complete_graph(5)):
        for k in (1, 2):
            I = compedge.power(compedge.complementary_edge_ideal(g), k)
            for p in (2, 3):
                entries = compedge.betti_table(I, p).entries
                assert checks.check_betti(checks.gens_of(I), entries) == []
    bad = dict(entries)
    key = next(iter(bad))
    bad[key] += 1
    assert checks.check_betti(checks.gens_of(I), bad)


def test_colon_checker_rejects_a_wrong_generator():
    I = compedge.complementary_edge_ideal(STAR)
    colon = checks.gens_of(compedge.colon_ideal(compedge.power(I, 3), I))
    base = checks.gens_of(I)
    I3 = checks.powers(base, 3)[2]
    assert checks.check_colon(base, I3, colon) == []
    bad = colon.copy()
    bad[0, np.argmax(bad[0])] += 1
    assert checks.check_colon(base, I3, bad)


def test_symbolic_checker_rejects_a_wrong_generator():
    I = compedge.complementary_edge_ideal(C5)
    sym = checks.gens_of(compedge.symbolic_power(I, 2))
    base = checks.gens_of(I)
    assert checks.check_symbolic(base, sym) == []
    assert checks.check_symbolic(base, sym[1:])


def test_linear_quotients_checker_rejects_a_bad_order():
    g = compedge.with_isolated(compedge.complete_graph(3), 1)
    I = compedge.power(workloads.mixed_ideal(g, [3]), 2)
    ok, order = compedge.has_linear_quotients(I, workloads.LQ_LIMIT)
    assert ok and checks.check_linear_quotients(checks.gens_of(I), order) == []
    assert checks.check_linear_quotients(checks.gens_of(I), order[:-1])
    # the edge ideal of P_4: x1x2, x2x3, x3x4 has linear quotients, while
    # x1x2, x3x4 gives the colon (x1x2), which is not generated by variables
    path = compedge.edge_ideal(compedge.path_graph(4))
    a, b, c = (compedge.x_of_set(e, 4) for e in ({0, 1}, {1, 2}, {2, 3}))
    assert checks.check_linear_quotients(checks.gens_of(path), (a, b, c)) == []
    assert checks.check_linear_quotients(checks.gens_of(path), (a, c, b))


def test_homology_and_algebra_reports_pass_and_fail():
    for workload in ("census_homology", "ideal_algebra"):
        op = census_op(STAR, workload)
        assert checks.check_report(op, workload, sample=True) == []
    bad = census_op(STAR, "ideal_algebra")
    bad.result.details["symbolic"]["second_power_symbolic_equals_ordinary"] ^= True
    assert checks.check_report(bad, "ideal_algebra", sample=True)
    bad = census_op(STAR, "census_homology")
    bad.result.per_k[2]["reg_oracle"] += 1
    # the Betti tables are checked on every census graph, not only the sample
    assert checks.check_report(bad, "census_homology", sample=False)


def test_deep_checker_rejects_a_wrong_depth_answer():
    ops = workloads.run_round(workloads.make_inputs("deep_powers", 1, "tiny"))
    assert all(p == [] for p in checks.check_round("deep_powers", 1, ops))
    op = next(o for o in ops if o.kind == "depth0")
    op.result = (not op.result[0], None)
    assert checks.check_round("deep_powers", 1, ops)[ops.index(op)]
