"""Acceptance suite: every closed form checked against the oracles at desk
scale, with exact (tolerance-zero) equality of the discrete invariants.

One test per criterion; each prints a single `criterion N: PASS/FAIL` line.
Every criterion but criterion 12, which fuzzes the oracles on random
ideals, asserts over reports of ``run_graph_checks``, the verification path
of ``compedge sweep``.  Two session-scoped sweeps of the n <= 5 census, one
for the colon-witness checks and one for the homology checks, feed most of
them.  The mixed-degree and squarefree Veronese ideals are not I_c(G) of
any graph, so ``run_graph_checks`` takes them as ideals, and two more
session fixtures hold their reports for criteria 6, 7 and 9.  Random
subsamples are seeded and reproducible.
"""

import itertools
import random

import pytest

from compedge.graphs import enumerate_labeled_graphs, matching_graph, to_graph6
from compedge.ideals import ideal, minimal_primes_squarefree
from compedge.monomials import Monomial
from compedge.verify import (
    SweepConfig,
    ass_oracle,
    run_graph_checks,
    stable_ass_localization,
    sweep,
)

def _verdict(num: int, ok: bool, message: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {message}")
    if not ok:
        pytest.fail(f"criterion {num}: {message}", pytrace=False)


@pytest.fixture(scope="session")
def witness_reports():
    """Ass, persistence, entry bounds and v at k <= 4 on the n <= 5 census."""
    cfg = SweepConfig(k_max=4, checks=("ass", "persistence", "entry-bound", "v"))
    return sweep(5, cfg, n_min=3)


@pytest.fixture(scope="session")
def homology_reports():
    """reg, depth, linear powers and Betti tables at k <= 3 on the n <= 5 census."""
    checks = ("reg", "depth-monotone", "linear", "betti-field-independence")
    return sweep(5, SweepConfig(k_max=3, checks=checks), n_min=3)


@pytest.fixture(scope="session")
def veronese_family():
    out = []
    for n in (3, 4, 5):
        for d in (n - 1, n):
            gens = [
                Monomial(tuple(1 if i in c else 0 for i in range(n)))
                for c in itertools.combinations(range(n), d)
            ]
            out.append(ideal(gens, n))
    return out


@pytest.fixture(scope="session")
def mixed_reports(mixed_family):
    """reg, depth, stable depth and linear powers at k <= 3 on the mixed ideals."""
    cfg = SweepConfig(k_max=3, checks=("reg", "depth-monotone", "depth-stable", "linear"))
    return [run_graph_checks(I, cfg) for _, I in mixed_family]


@pytest.fixture(scope="session")
def veronese_reports(veronese_family):
    """Depth and linear powers at k <= 3 on the squarefree Veronese ideals."""
    cfg = SweepConfig(k_max=3, checks=("depth-monotone", "linear"))
    return [run_graph_checks(I, cfg) for I in veronese_family]


def _ass(rpt, k: int) -> set[tuple[int, ...]]:
    return {tuple(F) for F in rpt.per_k[k]["ass_oracle"]}


def _entry_bound_counterexamples(reports) -> list[tuple[str, list[int], int]]:
    """Stable primes P_F, |F| >= 2, absent from Ass(I^k) at k = max(1, |F|-2)."""
    return [
        (to_graph6(r.graph), list(row["prime"]), row["bound"])
        for r in reports
        for row in r.details["entry-bound"]
        if tuple(row["prime"]) not in _ass(r, row["bound"])
    ]


def test_criterion_1_theorem_a_stable_set(witness_reports):
    n5 = [r for r in witness_reports if r.graph.n == 5]
    mismatches = [to_graph6(r.graph) for r in n5 if not r.per_k[3]["ass_formula_match"]]
    rng = random.Random(20250810)
    unstable = [
        to_graph6(r.graph) for r in rng.sample(n5, 100) if _ass(r, 3) != _ass(r, 4)
    ]
    ok = not mismatches and not unstable
    _verdict(
        1,
        ok,
        f"Ass(I^3) vs stable formula on {len(n5)} graphs "
        f"({len(mismatches)} mismatches); k=3 vs k=4 stability on 100 samples "
        f"({len(unstable)} unstable)",
    )


def test_criterion_2_theorem_a_persistence(witness_reports):
    violations = [
        (to_graph6(r.graph), k)
        for r in witness_reports
        for k in (1, 2, 3)
        if not _ass(r, k) <= _ass(r, k + 1)
    ]
    _verdict(
        2,
        not violations,
        f"Ass chain inclusions k=1..3 on full n<=5 census "
        f"({len(violations)} violations)",
    )


def test_criterion_3_localization_proposition():
    # through the sweep path: the localization check compares the formula
    # table with the direct localization at every nonempty F; a graph that
    # is not True counts as a mismatch, so a skip cannot pass silently
    reports = sweep(5, SweepConfig(k_max=1, checks=("localization",)), n_min=3)
    mismatches = sum(1 for r in reports if r.summary["localization"] is not True)
    total = sum((1 << r.graph.n) - 1 for r in reports)
    _verdict(3, mismatches == 0, f"{total} localizations compared, {mismatches} mismatches")


def test_criterion_4_entry_bound_corollary(witness_reports):
    counterexamples = _entry_bound_counterexamples(witness_reports)
    sample = ", ".join(
        f"{g6} P_{F} absent at k={k}" for g6, F, k in counterexamples[:4]
    )
    _verdict(
        4,
        not counterexamples,
        f"membership at k=max(1,|F|-2): {len(counterexamples)} counterexamples"
        + (f" (e.g. {sample})" if counterexamples else ""),
    )


def test_entry_bound_counterexamples_are_pinned(witness_reports):
    # criterion 4 fails by design; this pins what it finds, so a change in
    # the count or in the graphs carrying it cannot go unnoticed
    counterexamples = _entry_bound_counterexamples(witness_reports)
    assert len(counterexamples) == 549
    failing = {to_graph6(r.graph) for r in witness_reports if r.summary["entry-bound"] is False}
    assert len(failing) == 409
    assert {g6 for g6, _, _ in counterexamples} == failing


def test_criterion_5_regularity_closed_form(homology_reports):
    mismatches = [
        (to_graph6(r.graph), k, row["reg_oracle"], row["reg_formula"])
        for r in homology_reports
        for k, row in r.per_k.items()
        if row["reg_oracle"] != row["reg_formula"]
    ]
    matching = run_graph_checks(matching_graph(3), SweepConfig(k_max=3, checks=("reg",)))
    branch = [
        (k, matching.per_k[k]["reg_oracle"], want)
        for k, want in ((1, 5), (2, 10), (3, 14))
        if matching.per_k[k]["reg_oracle"] != want
    ]
    ok = not mismatches and not branch
    _verdict(
        5,
        ok,
        f"reg closed form k<=3 on n<=5 census ({len(mismatches)} mismatches); "
        f"3K_2 branch switch {['FAIL', 'ok'][not branch]}",
    )


def test_criterion_6_mixed_ideals(mixed_reports):
    # the reg row of a skipped ideal is absent, and so a KeyError; a skipped
    # depth-stable check counts as bad
    reg_bad = [
        (str(r.ideal), k)
        for r in mixed_reports
        for k in (1, 2, 3)
        if r.per_k[k]["reg_oracle"] != r.per_k[k]["reg_formula"]
    ]
    depth_bad = [str(r.ideal) for r in mixed_reports if r.summary["depth-stable"] is not True]
    ok = not reg_bad and not depth_bad
    _verdict(
        6,
        ok,
        f"{len(mixed_reports)} mixed ideals: reg (n-1)k k<=3 "
        f"({len(reg_bad)} bad), stabilized depth b(G)-mu ({len(depth_bad)} bad)",
    )


def test_criterion_7_depth_monotonicity(homology_reports, mixed_reports, veronese_reports):
    reports = homology_reports + mixed_reports + veronese_reports
    bad = sum(1 for r in reports if r.summary["depth-monotone"] is not True)
    _verdict(
        7,
        bad == 0,
        f"depth S/I^k non-increasing for k=1..3 on {len(reports)} ideals ({bad} violations)",
    )


def _betti_differences(rpt) -> int:
    """(graph, k) pairs whose tables differ; a skipped graph counts once."""
    name = "betti-field-independence"
    return len(rpt.details.get(name, {})) or int(rpt.summary[name] is not True)


def test_criterion_8_betti_field_independence(homology_reports):
    bad = sum(_betti_differences(r) for r in homology_reports)
    rng = random.Random(882)
    six = [g for g in enumerate_labeled_graphs(6) if g.edges]
    cfg = SweepConfig(k_max=2, checks=("betti-field-independence",))
    bad += sum(_betti_differences(run_graph_checks(g, cfg)) for g in rng.sample(six, 200))
    _verdict(
        8,
        not bad,
        f"Betti tables over F_2 and F_3 identical for k<=2, full n<=5 census "
        f"plus 200 graphs at n=6 ({bad} differences)",
    )


def test_criterion_9_linear_powers_equivalences(
    homology_reports, mixed_reports, veronese_reports
):
    reports = homology_reports + mixed_reports + veronese_reports
    disagreements = []
    for r in reports:
        linear = r.details["linear"]  # absent, and so a KeyError, if skipped
        disagreements += [
            (to_graph6(r.graph), str(r.ideal), k)
            for k, row in linear["per_k"].items()
            if not (row["linear_quotients"] == row["componentwise_linear"] == linear["predicted"])
        ]
    _verdict(
        9,
        not disagreements,
        f"linear-quotients / componentwise-linear / c(G)=1 agree pairwise for "
        f"k<=3 on {len(reports)} ideals ({len(disagreements)} disagreements)",
    )


def test_criterion_10_symbolic_power_classification():
    # through the sweep path: the symbolic check compares I^(2) = I^2, decided
    # on the divisor-count table, with the class predicate; a skipped graph
    # counts as an exception, so the criterion cannot pass vacuously
    reports = sweep(6, SweepConfig(k_max=2, checks=("symbolic",)), n_min=3)
    exceptions = [to_graph6(r.graph) for r in reports if r.summary["symbolic"] is not True]
    _verdict(
        10,
        not exceptions,
        f"I^2 == I^(2) iff non-isolated part in {{K_2,K_3,P_3,2K_2,P_4,C_4}}, "
        f"{len(reports)} graphs at n<=6 ({len(exceptions)} exceptions)",
    )


def test_criterion_11_v_function(witness_reports):
    mismatches = []
    bound_violations = []
    for r in witness_reports:
        for k in (1, 2):
            got, want = r.per_k[k]["v_oracle"], r.per_k[k]["v_formula"]
            if got != want:
                mismatches.append((to_graph6(r.graph), k, got, want))
            if got < (r.graph.n - 2) * k - 1:
                bound_violations.append((to_graph6(r.graph), k))
    # the exceptional matching branch must actually be exercised
    matching = run_graph_checks(matching_graph(2), SweepConfig(k_max=1, checks=("v",)))
    matching_hit = matching.per_k[1]["v_oracle"] == 2
    ok = not mismatches and not bound_violations and matching_hit
    _verdict(
        11,
        ok,
        f"v oracle vs closed form k<=2 on n<=5 census ({len(mismatches)} "
        f"mismatches, {len(bound_violations)} lower-bound violations, "
        f"2K_2 branch {'ok' if matching_hit else 'FAIL'})",
    )


def test_criterion_12_oracle_self_consistency_fuzz():
    rng = random.Random(0xC0FFEE)
    checked = 0
    discrepancies = []
    while checked < 10_000:
        n = rng.randint(2, 4)
        count = rng.randint(1, 5)
        squarefree = rng.random() < 0.4
        cap = 1 if squarefree else 3
        gens = [
            Monomial(tuple(rng.randint(0, cap) for _ in range(n)))
            for _ in range(count)
        ]
        I = ideal(gens, n)
        if not I.is_proper:
            continue
        checked += 1
        direct = ass_oracle(I)
        if direct != set(stable_ass_localization(I, 1)):
            discrepancies.append((str(I), "localization-route"))
        if I.is_squarefree and direct != minimal_primes_squarefree(I):
            discrepancies.append((str(I), "minimal-primes"))
    _verdict(
        12,
        not discrepancies,
        f"{checked} random ideals fuzzed ({len(discrepancies)} discrepancies)",
    )


def test_criterion_13_stable_depth():
    # through the sweep path: depth S/I^k at k = dstab bound n-1 equals b(G);
    # a skipped graph counts as a failure, so the criterion cannot pass vacuously
    reports = sweep(5, SweepConfig(k_max=4, checks=("depth-stable",)), n_min=3)
    bad = [to_graph6(r.graph) for r in reports if r.summary["depth-stable"] is not True]
    ok = not bad and len(reports) == 1093
    _verdict(
        13,
        ok,
        f"stable depth b(G) reached by k=n-1 through the sweep on {len(reports)} "
        f"graphs at n<=5 ({len(bad)} failed or skipped)",
    )
