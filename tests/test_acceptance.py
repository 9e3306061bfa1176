"""Acceptance suite: every closed form checked against the oracles at desk
scale, with exact (tolerance-zero) equality of the discrete invariants.

One test per criterion; each prints a single `criterion N: PASS/FAIL` line.
Shared heavy computations (the associated-prime tables for the census) live
in session-scoped fixtures.  Random subsamples are seeded and reproducible.
"""

import itertools
import random

import pytest

from compedge.formulas import (
    ass_infinity,
    linear_powers_predicate,
    reg_closed_form,
    v_closed_form,
)
from compedge.graphs import enumerate_labeled_graphs, matching_graph, to_graph6
from compedge.ideals import (
    classify_big_degree,
    complementary_edge_ideal,
    ideal,
    localize,
    minimal_primes_squarefree,
    multiply,
    power,
)
from compedge.monomials import Monomial
from compedge.resolution import (
    betti_table,
    has_linear_quotients,
    is_componentwise_linear,
    reg_pd_depth,
)
from compedge.verify import SweepConfig, ass_oracle, depth_zero_oracle, sweep, v_oracle


def _verdict(num: int, ok: bool, message: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {message}")
    if not ok:
        pytest.fail(f"criterion {num}: {message}", pytrace=False)


@pytest.fixture(scope="session")
def ass_tables(edged_census):
    """Oracle Ass(I_c(G)^k) for k = 1..4 per census graph (n <= 5)."""
    store = {}
    for n in (3, 4, 5):
        for g in edged_census[n]:
            I = complementary_edge_ideal(g)
            asses = []
            Ik = I
            for k in range(1, 5):
                if k > 1:
                    Ik = multiply(Ik, I)
                asses.append(ass_oracle(Ik))
            store[g] = asses
    return store


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


def test_criterion_1_theorem_a_stable_set(edged_census, ass_tables):
    mismatches = []
    for g in edged_census[5]:
        if ass_tables[g][2] != ass_infinity(g).stable_set:
            mismatches.append(to_graph6(g))
    rng = random.Random(20250810)
    unstable = []
    for g in rng.sample(edged_census[5], 100):
        if ass_tables[g][2] != ass_tables[g][3]:
            unstable.append(to_graph6(g))
    ok = not mismatches and not unstable
    _verdict(
        1,
        ok,
        f"Ass(I^3) vs stable formula on {len(edged_census[5])} graphs "
        f"({len(mismatches)} mismatches); k=3 vs k=4 stability on 100 samples "
        f"({len(unstable)} unstable)",
    )


def test_criterion_2_theorem_a_persistence(edged_census, ass_tables):
    violations = []
    for n in (3, 4, 5):
        for g in edged_census[n]:
            asses = ass_tables[g]
            for k in (1, 2, 3):
                if not asses[k - 1] <= asses[k]:
                    violations.append((to_graph6(g), k))
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


def test_criterion_4_entry_bound_corollary(edged_census, ass_tables):
    counterexamples = []
    for n in (3, 4, 5):
        for g in edged_census[n]:
            pred = ass_infinity(g)
            asses = ass_tables[g]
            for F in pred.stable_set:
                if len(F) < 2:
                    continue
                k = max(1, len(F) - 2)
                if F not in asses[k - 1]:
                    counterexamples.append(
                        (to_graph6(g), tuple(sorted(i + 1 for i in F)), k)
                    )
    sample = ", ".join(
        f"{g6} P_{list(F)} absent at k={k}" for g6, F, k in counterexamples[:4]
    )
    _verdict(
        4,
        not counterexamples,
        f"membership at k=max(1,|F|-2): {len(counterexamples)} counterexamples"
        + (f" (e.g. {sample})" if counterexamples else ""),
    )


def test_criterion_5_regularity_closed_form(edged_census):
    mismatches = []
    for n in (3, 4, 5):
        for g in edged_census[n]:
            I = complementary_edge_ideal(g)
            cls = classify_big_degree(I)
            for k in (1, 2, 3):
                want = reg_closed_form(cls, k)
                got = reg_pd_depth(power(I, k)).regularity
                if got != want:
                    mismatches.append((to_graph6(g), k, got, want))
    branch = []
    I6 = complementary_edge_ideal(matching_graph(3))
    for k, want in ((1, 5), (2, 10), (3, 14)):
        got = reg_pd_depth(power(I6, k)).regularity
        if got != want:
            branch.append((k, got, want))
    ok = not mismatches and not branch
    _verdict(
        5,
        ok,
        f"reg closed form k<=3 on n<=5 census ({len(mismatches)} mismatches); "
        f"3K_2 branch switch {['FAIL', 'ok'][not branch]}",
    )


def test_criterion_6_mixed_ideals(mixed_family):
    from compedge.graphs import component_summary

    reg_bad = []
    depth_bad = []
    for g, I in mixed_family:
        n = g.n
        for k in (1, 2, 3):
            if reg_pd_depth(power(I, k)).regularity != (n - 1) * k:
                reg_bad.append((to_graph6(g), k))
        want_depth = component_summary(g).b - len(g.isolated_vertices)
        got_depth = reg_pd_depth(power(I, n - 2)).depth
        if got_depth != want_depth:
            depth_bad.append((to_graph6(g), got_depth, want_depth))
    ok = not reg_bad and not depth_bad
    _verdict(
        6,
        ok,
        f"{len(mixed_family)} mixed ideals: reg (n-1)k k<=3 "
        f"({len(reg_bad)} bad), stabilized depth b(G)-mu ({len(depth_bad)} bad)",
    )


def test_criterion_7_depth_monotonicity(edged_census, mixed_family, veronese_family):
    ideals = [
        complementary_edge_ideal(g) for n in (3, 4, 5) for g in edged_census[n]
    ]
    ideals += [I for _, I in mixed_family]
    ideals += veronese_family
    bad = 0
    for I in ideals:
        depths = [reg_pd_depth(power(I, k)).depth for k in (1, 2, 3)]
        if not all(depths[i] >= depths[i + 1] for i in range(2)):
            bad += 1
    _verdict(
        7,
        bad == 0,
        f"depth S/I^k non-increasing for k=1..3 on {len(ideals)} ideals ({bad} violations)",
    )


def test_criterion_8_betti_field_independence(edged_census):
    bad = []
    for n in (3, 4, 5):
        for g in edged_census[n]:
            I = complementary_edge_ideal(g)
            for k in (1, 2):
                Ik = power(I, k)
                if betti_table(Ik, 2).entries != betti_table(Ik, 3).entries:
                    bad.append((to_graph6(g), k))
    rng = random.Random(882)
    six = [g for g in enumerate_labeled_graphs(6) if g.edges]
    for g in rng.sample(six, 200):
        I = complementary_edge_ideal(g)
        for k in (1, 2):
            Ik = power(I, k)
            if betti_table(Ik, 2).entries != betti_table(Ik, 3).entries:
                bad.append((to_graph6(g), k))
    _verdict(
        8,
        not bad,
        f"Betti tables over F_2 and F_3 identical for k<=2, full n<=5 census "
        f"plus 200 graphs at n=6 ({len(bad)} differences)",
    )


def test_criterion_9_linear_powers_equivalences(
    edged_census, mixed_family, veronese_family
):
    ideals = [
        complementary_edge_ideal(g) for n in (3, 4, 5) for g in edged_census[n]
    ]
    ideals += [I for _, I in mixed_family]
    ideals += veronese_family
    disagreements = []
    for I in ideals:
        predicted = linear_powers_predicate(classify_big_degree(I))
        for k in (1, 2, 3):
            Ik = power(I, k)
            lq, _ = has_linear_quotients(Ik, limit=2000)
            cl = is_componentwise_linear(Ik)
            if not (lq == cl == predicted):
                disagreements.append((str(I), k, lq, cl, predicted))
    _verdict(
        9,
        not disagreements,
        f"linear-quotients / componentwise-linear / c(G)=1 agree pairwise for "
        f"k<=3 on {len(ideals)} ideals ({len(disagreements)} disagreements)",
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


def test_criterion_11_v_function(edged_census):
    mismatches = []
    bound_violations = []
    for n in (3, 4, 5):
        for g in edged_census[n]:
            I = complementary_edge_ideal(g)
            for k in (1, 2):
                got = v_oracle(power(I, k)).v
                want = v_closed_form(g, k)
                if got != want:
                    mismatches.append((to_graph6(g), k, got, want))
                if got < (n - 2) * k - 1:
                    bound_violations.append((to_graph6(g), k))
    # the exceptional matching branch must actually be exercised
    matching_hit = v_oracle(complementary_edge_ideal(matching_graph(2))).v == 2
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
        via_localization = set()
        for size in range(1, n + 1):
            for combo in itertools.combinations(range(n), size):
                J = localize(I, combo)
                if J.is_proper and depth_zero_oracle(J)[0]:
                    via_localization.add(frozenset(combo))
        if direct != via_localization:
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
