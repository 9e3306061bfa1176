import itertools
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import compedge.formulas
import compedge.ideals
import compedge.verify
from compedge.formulas import ass_infinity
from compedge.graphs import (
    Graph,
    canonical_form,
    complete_graph,
    cycle_graph,
    enumerate_labeled_graphs,
    induced_subgraph,
    matching_graph,
    neighbour_masks,
    path_graph,
    vertex_set,
    with_isolated,
)
from compedge.ideals import (
    BigDegreeCase,
    CaseClassification,
    LimitExceededError,
    colon,
    colon_ideal,
    complementary_edge_ideal,
    divisor_counts,
    ideal,
    localize,
    membership_box,
    minimal_primes_squarefree,
    minimal_supports,
    multiply,
    parse_ideal,
    power,
    symbolic_power,
    unit_ideal,
)
from compedge.monomials import Monomial, parse_monomial, variable, x_of_set
from compedge.resolution import (
    betti_table,
    has_linear_quotients,
    is_componentwise_linear,
    reg_pd_depth,
)
from compedge.verify import (
    ALL_CHECKS,
    SweepConfig,
    _colon_exceeds_power,
    _GraphState,
    _localization_supports,
    _persistence,
    _prime_colon_witnesses,
    _same_betti_tables,
    _strong_persistence,
    _symbolic_equals_ordinary,
    ass_oracle,
    depth_zero_oracle,
    markdown_summary,
    persistence_check,
    run_graph_checks,
    stable_ass_localization,
    strong_persistence_check,
    sweep,
    sweep_passed,
    v_oracle,
    write_reports_jsonl,
)


def new_process():
    """Empty the per-process class memo, so that the next call runs as in a
    fresh interpreter."""
    compedge.verify._class_memo.cache_clear()


def I_(text, ambient):
    return parse_ideal(text, ambient)


def fs(*vals):
    return frozenset(v - 1 for v in vals)


def paw():
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def colon_prime_scan_reference(I):
    """Reference witness scan, the generator broadcast that preceded the
    divisor-count table: (u, F-bitmask) for every divisor u of the generator
    lcm with (I : u) = P_F, read off the quotients g / gcd(g, u)."""
    gens = I.exponents
    axes = [np.arange(e + 1) for e in I.lcm_of_generators().exponents]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, I.ambient)
    bits = 1 << np.arange(I.ambient)
    quot = np.maximum(gens[None, :, :] - grid[:, None, :], 0)
    deg = quot.sum(axis=2)
    member = (deg == 0).any(axis=1)
    sup = ((quot > 0) * bits[None, None, :]).sum(axis=2)
    fmask = np.bitwise_or.reduce(np.where(deg == 1, sup, 0), axis=1)
    meets = (sup & fmask[:, None]) != 0
    ok = ~member & (fmask != 0) & meets.all(axis=1)
    return {(tuple(grid[r].tolist()), int(fmask[r])) for r in np.flatnonzero(ok)}


def depth_zero_reference(I):
    """Reference socle search: intersect the complement of I with I : x_i
    over every variable, and take the least cell by (degree, exponents)."""
    bound = I.lcm_of_generators()
    socle = ~membership_box(I, bound)
    for i in range(I.ambient):
        socle &= membership_box(colon(I, variable(i, I.ambient)), bound)
    hits = [(int(row.sum()), tuple(row.tolist())) for row in np.argwhere(socle)]
    return (True, Monomial(min(hits)[1])) if hits else (False, None)


class TestAssOracle:
    def test_matching(self):
        got = ass_oracle(I_("(x1*x2, x3*x4)", 4))
        assert got == {fs(1, 3), fs(1, 4), fs(2, 3), fs(2, 4)}

    def test_prime_ideal(self):
        got = ass_oracle(complementary_edge_ideal(complete_graph(3)))
        assert got == {fs(1, 2, 3)}

    def test_paw_embedded_prime_appears_at_two(self):
        I = complementary_edge_ideal(paw())
        assert fs(1, 2, 3, 4) not in ass_oracle(I)
        assert fs(1, 2, 3, 4) in ass_oracle(power(I, 2))

    def test_rejects_trivial(self):
        with pytest.raises(ValueError):
            ass_oracle(unit_ideal(2))

    def test_divisor_limit(self, monkeypatch):
        monkeypatch.setattr(compedge.ideals, "BOX_CELL_LIMIT", 10)
        I = I_("(x1^3*x2^3, x3^3*x4^3)", 4)
        with pytest.raises(LimitExceededError):
            ass_oracle(I)

    def test_squarefree_equals_minimal_primes(self):
        rng = random.Random(21)
        import itertools

        for _ in range(60):
            n = rng.randint(2, 4)
            pool = [
                x_of_set(set(c), n)
                for r in range(1, n + 1)
                for c in itertools.combinations(range(n), r)
            ]
            I = ideal(rng.sample(pool, rng.randint(1, min(4, len(pool)))), n)
            if not I.is_proper:
                continue
            assert ass_oracle(I) == minimal_primes_squarefree(I)


class TestDepthZeroOracle:
    def test_socle_witness(self):
        I = I_("(x1^2, x1*x2, x2^2)", 2)
        hit, witness = depth_zero_oracle(I)
        # both variables are socle witnesses; the canonical order picks x2
        assert hit and witness == parse_monomial("x2", 2)
        assert witness not in I
        from compedge.monomials import variable

        assert all(variable(i, 2) * witness in I for i in range(2))

    def test_hypersurface_has_positive_depth(self):
        hit, witness = depth_zero_oracle(I_("(x1*x2)", 2))
        assert not hit and witness is None

    def test_veronese_socle_from_proof(self):
        # generators (x1..xp)/x_i; at power p-1 the witness is (x1..xp)^(p-2)
        for p in (3, 4):
            gens = [x_of_set(set(range(p)) - {i}, p) for i in range(p)]
            I = power(ideal(gens, p), p - 1)
            hit, witness = depth_zero_oracle(I)
            assert hit
            expected = Monomial((p - 2,) * p)
            assert witness == expected
            assert witness not in I
            for i in range(p):
                from compedge.monomials import variable

                assert variable(i, p) * witness in I


class TestStableAssLocalization:
    def test_cycle(self):
        got = stable_ass_localization(complementary_edge_ideal(cycle_graph(4)), 3)
        assert set(got) == {fs(1, 3), fs(2, 4)}

    def test_paw_minimal_entry(self):
        got = stable_ass_localization(complementary_edge_ideal(paw()), 3)
        assert got[fs(1, 2, 3, 4)] == 2
        assert got[fs(1, 2, 3)] == 1

    def test_path(self):
        got = stable_ass_localization(complementary_edge_ideal(path_graph(3)), 3)
        assert set(got) == {fs(1, 3)}

    def test_agrees_with_stable_formula(self, edged_census):
        rng = random.Random(17)
        graphs = edged_census[4] + rng.sample(edged_census[5], 25)
        for g in graphs:
            I = complementary_edge_ideal(g)
            got = stable_ass_localization(I, g.n - 2)
            assert set(got) == ass_infinity(g).stable_set


class TestVOracle:
    def test_prime_ideal_has_v_zero(self):
        w = v_oracle(complementary_edge_ideal(complete_graph(3)))
        assert w.v == 0 and w.witness.is_one

    def test_matching(self):
        I = complementary_edge_ideal(matching_graph(2))
        w = v_oracle(I)
        assert w.v == 2
        assert colon(I, w.witness) == ideal(
            [x_of_set({i}, 4) for i in w.prime], 4
        )

    def test_paw(self):
        assert v_oracle(complementary_edge_ideal(paw())).v == 1

    def test_local_variant(self):
        # the least witness of one prime, P_{2,4}; P_{1,2} is not associated
        found = _prime_colon_witnesses(complementary_edge_ideal(matching_graph(2)))
        w = found.least(0b1010)
        assert w.v == 2 and w.prime == fs(2, 4)
        assert found.least(0b0011) is None

    def test_lower_bound_on_sample(self, edged_census):
        rng = random.Random(23)
        for g in rng.sample(edged_census[5], 25):
            I = complementary_edge_ideal(g)
            for k in (1, 2):
                assert v_oracle(power(I, k)).v >= (g.n - 2) * k - 1


def test_checks_up_to_k_max_refuse_k_max_below_one():
    # each read k_max = 0 as an empty range and passed vacuously
    I = complementary_edge_ideal(cycle_graph(4))
    for check in (persistence_check, strong_persistence_check, stable_ass_localization):
        for k_max in (0, -1):
            with pytest.raises(ValueError, match="k_max must be at least 1"):
                check(I, k_max)


class TestPersistence:
    def test_census_samples(self, edged_census):
        rng = random.Random(29)
        for g in edged_census[3] + rng.sample(edged_census[4], 20):
            I = complementary_edge_ideal(g)
            assert persistence_check(I, 3).holds

    def test_matching_ideal(self):
        assert persistence_check(I_("(x1*x2, x3*x4)", 4), 3).holds

    def test_checker_flags_synthetic_violation(self):
        # harness self-test: inject a fake Ass sequence where a prime is lost
        fake = [{fs(1), fs(2)}, {fs(2)}, {fs(2)}]
        res = _persistence(fake)
        assert not res.holds
        assert res.first_violation == (1, fs(1))


class TestStrongPersistence:
    def test_examples(self):
        assert strong_persistence_check(
            complementary_edge_ideal(complete_graph(3)), 3
        ).holds
        assert strong_persistence_check(
            complementary_edge_ideal(cycle_graph(4)), 3
        ).holds
        assert strong_persistence_check(I_("(x1, x2)", 2), 3).holds

    @pytest.mark.parametrize("a", [3, 4, 5, 6, 7])
    def test_gap_family(self, a):
        # (x1^a, x1^(a-1) x2, x1 x2^(a-1), x2^a): (x1 x2)^(a-2) lies in
        # I^2 : I but not in I once a >= 4
        res = strong_persistence_check(gap_family(a), 3)
        assert (res.holds, res.first_failure) == ((True, None) if a == 3 else (False, 1))

    def test_one_table_per_power(self, monkeypatch):
        # k_max = 3 reads I, I^2, I^3 and I^4: each middle power's table
        # serves both of its colons
        shapes = []
        counts = compedge.verify.divisor_counts

        def counting(I, bound):
            shapes.append(bound)
            return counts(I, bound)

        monkeypatch.setattr(compedge.verify, "divisor_counts", counting)
        I = complementary_edge_ideal(cycle_graph(5))
        assert strong_persistence_check(I, 3).holds
        assert shapes == [power(I, k).lcm_of_generators() for k in (1, 2, 3, 4)]

    def test_k7_cubes_through_the_sweep(self):
        cfg = SweepConfig(k_max=3, checks=("strong-persistence",))
        rpt = run_graph_checks(complete_graph(7), cfg)
        assert rpt.details["strong-persistence"] == {
            "observed_holds": True,
            "first_failure_k": None,
        }
        assert rpt.skipped["strong-persistence"].startswith("informational")


def gap_family(a):
    return I_(f"(x1^{a}, x1^{a - 1}*x2, x1*x2^{a - 1}, x2^{a})", 2)


# strong persistence fails at k = 1, and each u in I^2 : I outside I has
# u + g past the kernel's box B for some generator g, so only the clip at B
# finds the failure
CLIPPED_GAPS = (
    "(x2^2*x3^4, x1*x2^5*x3, x1^2*x3^6, x1^2*x2^6, x1^4*x2^4*x3^2)",
    "(x1^5*x2, x1^6*x3^5, x1^3*x2^5*x3^4, x1^2*x2^6*x3^6)",
)


class TestTableColons:
    """The table decisions against the closures they replace in the sweep:
    ``colon_ideal(I^(k+1), I) == I^k`` and ``symbolic_power(I, k) == I^k``."""

    def test_strong_persistence_agrees_with_colon_ideal(self, edged_census, random_ideals):
        ideals = random_ideals(random.Random(47), 1000)
        ideals += [complementary_edge_ideal(g) for n in (3, 4) for g in edged_census[n]]
        ideals += [gap_family(a) for a in range(3, 8)]
        ideals += [I_(text, 3) for text in CLIPPED_GAPS]
        failures = 0
        for I in ideals:
            powers = [I, multiply(I, I)]
            powers.append(multiply(powers[1], I))
            for k in (1, 2):
                Ik, Ik1 = powers[k - 1], powers[k]
                ref = colon_ideal(Ik1, I) != Ik
                tables = [divisor_counts(P, P.lcm_of_generators()) for P in (Ik, Ik1)]
                assert _colon_exceeds_power(I, *tables) == ref, (str(I), k)
                failures += ref
        assert failures >= 6  # the gap family and CLIPPED_GAPS fail at k = 1

    def test_symbolic_agrees_with_symbolic_power(self, edged_census, random_ideals):
        ideals = [complementary_edge_ideal(g) for n in (3, 4, 5) for g in edged_census[n]]
        ideals += random_ideals(random.Random(53), 300, e_max=1)
        outcomes = Counter()
        for I in ideals:
            for k in (2, 3):
                Ik = power(I, k)
                ref = symbolic_power(I, k) == Ik
                assert _symbolic_equals_ordinary(I, Ik, k) == ref, (str(I), k)
                outcomes[ref] += 1
        assert outcomes[True] and outcomes[False]

    def test_oversized_box_is_a_limit_skip(self, monkeypatch):
        monkeypatch.setattr(compedge.ideals, "BOX_CELL_LIMIT", 10)
        new_process()
        cfg = SweepConfig(k_max=2, checks=("strong-persistence", "symbolic"))
        rpt = run_graph_checks(complete_graph(4), cfg)
        assert rpt.summary == {"symbolic": None, "strong-persistence": None}
        assert all(r.startswith("limit: divisor box") for r in rpt.skipped.values())


def localization_without_a_f(g, masks):
    """The localization proposition with its x_F/x_i terms dropped."""
    F = np.asarray(masks).reshape(-1, 1)
    edges = np.array([1 << i | 1 << j for i, j in g.edges])
    touched = np.bitwise_or.reduce(edges)
    supports = np.concatenate([F ^ edges, F], axis=1)
    present = np.concatenate([(F & edges) == edges, (F & touched) == 0], axis=1)
    return minimal_supports(supports, present, g.n)


class TestLocalizationTables:
    def test_oracle_rows_are_localize_supports(self, localization_graphs):
        # localize(I_c(G), F) reads only the induced subgraph on F, which
        # vertices of F have an edge leaving F, and whether an edge lies
        # outside F, so rows with equal inputs share one reference
        reference = {}
        for g in localization_graphs:
            I = complementary_edge_ideal(g)
            adj = neighbour_masks(g)
            table = _localization_supports(I, np.arange(1, 1 << g.n))
            got, want = [], []
            for mask, row in enumerate(table, start=1):
                fs = [i for i in range(g.n) if mask >> i & 1]
                key = (
                    induced_subgraph(g, fs)[0],
                    tuple(adj[v] & ~mask != 0 for v in fs),
                    any(not (mask >> i & 1 or mask >> j & 1) for i, j in g.edges),
                )
                if key not in reference:
                    reference[key] = [u.support for u in localize(I, fs).generators]
                got.append(set(np.flatnonzero(row).tolist()))
                want.append({sum(1 << fs[pos] for pos in support) for support in reference[key]})
            assert got == want, str(g)

    def test_wrong_formula_reports_subsets_by_size_then_lex(self, monkeypatch):
        # the class record keeps the comparison, so start from an empty one
        # and leave none that holds the wrong formula's
        monkeypatch.setattr(compedge.formulas, "localization_table", localization_without_a_f)
        new_process()
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        rpt = run_graph_checks(star, SweepConfig(checks=("localization",)))
        assert rpt.summary["localization"] is False
        # A_F is nonempty exactly when F holds a vertex with no neighbour in F
        assert rpt.details["localization"]["mismatched_subsets"] == [
            (1,), (2,), (3,), (4,), (2, 3), (2, 4), (3, 4), (2, 3, 4)
        ]
        new_process()

    def test_n7_localization_and_symbolic(self):
        cfg = SweepConfig(checks=("localization", "symbolic"))
        for g in (complete_graph(7), cycle_graph(7), path_graph(7)):
            rpt = run_graph_checks(g, cfg)
            assert rpt.summary == {"localization": True, "symbolic": True}, str(g)


class TestSweep:
    def test_each_power_is_scanned_once(self, monkeypatch):
        scanned = Counter()
        scan = compedge.verify._prime_colon_witnesses

        def counting(I):
            scanned[I] += 1
            return scan(I)

        monkeypatch.setattr(compedge.verify, "_prime_colon_witnesses", counting)
        cfg = SweepConfig(k_max=3, checks=("ass", "persistence", "v"))
        new_process()
        for g in (cycle_graph(4), paw(), matching_graph(2)):
            scanned.clear()
            rpt = run_graph_checks(g, cfg)
            assert set(rpt.summary.values()) == {True}
            I = complementary_edge_ideal(canonical_form(g)[0])
            assert scanned == Counter(power(I, k) for k in (1, 2, 3))
            # every relabeled copy reads the class's scans back
            for perm in itertools.permutations(range(g.n)):
                copy = Graph.from_edges(g.n, [(perm[i], perm[j]) for i, j in g.edges])
                assert set(run_graph_checks(copy, cfg).summary.values()) == {True}
            assert scanned == Counter(power(I, k) for k in (1, 2, 3))

    @pytest.mark.parametrize(
        "checks, shared",
        [
            pytest.param(checks, shared, id=checks)
            for checks, shared in (
                ("ass,persistence,v", "prime_colon_witnesses"),
                ("reg,depth-monotone,linear,betti-field-independence", "reg_pd_depth"),
            )
        ],
    )
    def test_a_warm_labeled_graph_reads_each_record_entry_once(self, checks, shared, monkeypatch):
        # ass, persistence and v all read the scan of each power, and reg and
        # depth-monotone its (reg, pd, depth); a labeled graph reads each
        # from its class record once per power
        class CountingRecord(dict):
            def __getitem__(self, key):
                reads[key] += 1
                return super().__getitem__(key)

        reads, records = Counter(), {}
        monkeypatch.setattr(
            compedge.verify, "_class_memo", lambda cls: records.setdefault(cls, CountingRecord())
        )
        cfg = SweepConfig(k_max=3, checks=tuple(checks.split(",")))
        run_graph_checks(cycle_graph(4), cfg)
        reads.clear()
        rpt = run_graph_checks(Graph.from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)]), cfg)
        assert set(rpt.summary.values()) == {True}
        assert max(reads.values()) == 1
        assert sum(n for key, n in reads.items() if key[0] == shared) == 3

    def test_a_labeled_graph_looks_its_class_up_once(self):
        new_process()
        g = cycle_graph(4)
        copy = Graph.from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
        assert canonical_form(copy)[0] == canonical_form(g)[0]
        run_graph_checks(g, SweepConfig(k_max=2, checks=("ass",)))
        run_graph_checks(copy, SweepConfig(k_max=2, checks=("reg", "symbolic")))
        info = compedge.verify._class_memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert info.maxsize >= 1044  # every class on 7 vertices
        new_process()

    @pytest.mark.parametrize(
        "check, module, limit, reason",
        [
            ("ass", compedge.ideals, "BOX_CELL_LIMIT", "divisor box has 16 cells, limit 1"),
            ("reg", compedge.ideals, "DEFAULT_LATTICE_LIMIT", "lcm lattice has 9 points, limit 1"),
        ],
    )
    def test_a_lowered_limit_skips_a_class_seen_before(self, check, module, limit, reason, monkeypatch):
        new_process()
        cfg = SweepConfig(k_max=2, checks=(check,))
        copy = Graph.from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
        assert run_graph_checks(cycle_graph(4), cfg).summary == {check: True}
        monkeypatch.setattr(module, limit, 1)
        rpt = run_graph_checks(copy, cfg)
        assert (rpt.summary, rpt.skipped) == ({check: None}, {check: f"limit: {reason}"})
        monkeypatch.undo()
        assert run_graph_checks(copy, cfg).summary == {check: True}
        new_process()

    def test_one_lowered_limit_skips_every_box_check_of_a_class_seen_before(self, monkeypatch):
        # every check but localization reads a divisor-count table, and one
        # box limit guards them all and the localization tables too
        new_process()
        cfg = SweepConfig(k_max=3)
        first = run_graph_checks(cycle_graph(4), cfg)
        assert set(first.summary) == set(ALL_CHECKS)
        assert not any(r.startswith("limit:") for r in first.skipped.values())
        monkeypatch.setattr(compedge.ideals, "BOX_CELL_LIMIT", 1)
        rpt = run_graph_checks(Graph.from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)]), cfg)
        assert rpt.summary == dict.fromkeys(ALL_CHECKS)
        assert sorted(rpt.skipped) == sorted(ALL_CHECKS)
        assert rpt.skipped.pop("localization") == "limit: localization table has 240 cells, limit 1"
        assert all(re.fullmatch(r"limit: divisor box has \d+ cells, limit 1", r) for r in rpt.skipped.values())
        new_process()

    def test_localization_tables_are_held_to_the_box_limit(self, monkeypatch):
        # (2^n - 1) 2^n cells per table: 992 for C5, 4032 for C6
        monkeypatch.setattr(compedge.ideals, "BOX_CELL_LIMIT", 1000)
        new_process()
        cfg = SweepConfig(checks=("localization",))
        assert run_graph_checks(cycle_graph(5), cfg).summary == {"localization": True}
        rpt = run_graph_checks(cycle_graph(6), cfg)
        assert (rpt.summary, rpt.skipped) == (
            {"localization": None},
            {"localization": "limit: localization table has 4032 cells, limit 1000"},
        )
        new_process()

    def test_class_records_hold_no_tables(self, edged_classes):
        # the localization check keeps its mismatched subsets, not the
        # oracle's (2^n - 1) x 2^n table
        new_process()
        sweep(5, SweepConfig(k_max=1, checks=("localization",)), n_min=5)
        records = [
            compedge.verify._class_memo(CaseClassification(BigDegreeCase.COMPLEMENTARY_EDGE, 5, graph=canon))
            for canon in edged_classes[5]
        ]
        assert compedge.verify._class_memo.cache_info().currsize == len(records) == 33
        assert all(records)
        assert not any(isinstance(v, np.ndarray) for record in records for v in record.values())
        new_process()

    def test_default_lq_limit_covers_the_n4_cubes(self):
        g = complete_graph(4)
        assert len(power(complementary_edge_ideal(g), 3).generators) > 24
        rpt = run_graph_checks(g, SweepConfig(checks=("linear",)))
        assert rpt.skipped == {}
        assert rpt.summary["linear"] is True

    def test_default_config_finishes_linear_on_k8_cubes(self):
        # I_c(K8)^3 has 1428 generators: the order search runs deeper than
        # the recursion limit
        g = complete_graph(8)
        m = len(power(complementary_edge_ideal(g), 3).generators)
        assert sys.getrecursionlimit() < m <= SweepConfig().lq_limit
        rpt = run_graph_checks(g, SweepConfig(checks=("linear",)))
        assert rpt.skipped == {}
        assert rpt.summary["linear"] is True

    def test_n4_theorem_checks_all_pass(self):
        cfg = SweepConfig(
            k_max=3,
            checks=(
                "ass",
                "persistence",
                "localization",
                "reg",
                "depth-monotone",
                "v",
                "symbolic",
            ),
        )
        reports = sweep(4, cfg)
        assert len(reports) == 63
        assert sweep_passed(reports)

    def test_entry_bound_fails_exactly_on_stars_at_n4(self):
        # the independent leaf triple of K_{1,3} enters Ass at k = 2, later
        # than the claimed bound max{1, |F|-2} = 1
        cfg = SweepConfig(k_max=3, checks=("entry-bound",))
        reports = sweep(4, cfg)
        failing = {
            r.graph for r in reports if r.summary["entry-bound"] is False
        }
        stars = {
            g
            for g in (r.graph for r in reports)
            if sorted(g.degree(v) for v in range(4)) == [1, 1, 1, 3]
        }
        assert failing == stars and len(stars) == 4

    def test_budget_degrades_to_skips(self):
        cfg = SweepConfig(k_max=3, checks=("ass", "reg", "v"), budget_ms=0.0)
        rpt = run_graph_checks(cycle_graph(4), cfg)
        assert all(v is None for v in rpt.summary.values())
        assert all("budget" in reason for reason in rpt.skipped.values())

    def test_limit_degrades_to_skip(self):
        cfg = SweepConfig(k_max=2, checks=("linear",), lq_limit=1)
        rpt = run_graph_checks(cycle_graph(4), cfg)
        assert rpt.summary["linear"] is None
        assert "limit" in rpt.skipped["linear"]

    def test_jsonl_and_markdown_outputs(self, tmp_path):
        cfg = SweepConfig(k_max=2, checks=("ass", "symbolic"))
        reports = sweep(3, cfg)
        out = tmp_path / "reports.jsonl"
        write_reports_jsonl(reports, out)
        lines = out.read_text().splitlines()
        assert len(lines) == 7
        parsed = [json.loads(line) for line in lines]
        assert all(row["schema_version"] == 1 for row in parsed)
        text = markdown_summary(reports)
        assert "| ass | 7 | 0 | 0 |" in text

    def test_match_flags_reproducible_from_raw_values(self):
        cfg = SweepConfig(k_max=3, checks=("ass",))
        for rpt in sweep(3, cfg):
            data = rpt.to_json_dict()
            stable = data["details"]["ass"]["stable_formula"]
            first = data["details"]["ass"]["first_power_formula"]
            n = data["graph"]["n"]
            for k_str, row in data["per_k"].items():
                k = int(k_str)
                if row["ass_formula_match"] is None:
                    continue
                expected = first if k == 1 else stable
                assert row["ass_formula_match"] == (row["ass_oracle"] == expected)

    def test_rejects_unknown_check(self):
        with pytest.raises(ValueError):
            sweep(3, SweepConfig(checks=("nope",)))

    def test_checks_are_normalized_at_construction(self):
        with pytest.raises(ValueError, match="unknown checks"):
            SweepConfig(checks=("bogus",))
        assert SweepConfig(checks=("v", "ass")).checks == ("ass", "v")
        assert SweepConfig(checks=["v", "all"]).checks == SweepConfig().checks

    def test_primes_given_as_a_list_are_kept_as_a_tuple(self):
        # a list made the config unhashable and the memo key of the
        # field-independence check raise TypeError
        cfg = SweepConfig(k_max=1, checks=("betti-field-independence",), primes=[2, 3])
        assert cfg.primes == (2, 3) and hash(cfg) == hash(SweepConfig(k_max=1, checks=cfg.checks))
        rpt = run_graph_checks(cycle_graph(4), cfg)
        assert rpt.summary == {"betti-field-independence": True}

    def test_rejects_a_repeated_characteristic(self):
        # the field-independence check would compare F_2 with itself
        for primes in ((2, 2), (3, 2, 3)):
            with pytest.raises(ValueError, match="repeat a characteristic"):
                SweepConfig(checks=("betti-field-independence",), primes=primes)

    def test_rejects_two_vertex_graph(self):
        # I_c(K_2) is the unit ideal, with no prime colon witness at all
        with pytest.raises(ValueError, match="at least 3 vertices"):
            run_graph_checks(Graph.from_edges(2, [(0, 1)]), SweepConfig(checks=("ass",)))

    def test_rejects_edgeless_graph(self):
        for checks in (("ass",), ("depth-stable",)):
            with pytest.raises(ValueError, match="at least one edge"):
                run_graph_checks(Graph(3, frozenset()), SweepConfig(checks=checks))

    def test_rejects_k_max_below_one(self):
        for k_max in (0, -1):
            with pytest.raises(ValueError, match="k_max"):
                SweepConfig(k_max=k_max)

    def test_rejects_characteristics_that_are_not_small_primes(self):
        # checked up front, whether or not a selected check reads them
        with pytest.raises(ValueError, match="at least one characteristic"):
            SweepConfig(primes=())
        for primes in ((4,), (2, 4), (1,), (0,), (101,)):
            with pytest.raises(ValueError, match="characteristic must be a small prime"):
                SweepConfig(checks=("ass",), primes=primes)

    def test_rejects_empty_size_range(self):
        # n_min above n_max would check no graph at all and pass vacuously
        with pytest.raises(ValueError, match="n_min 5 exceeds n_max 4"):
            sweep(4, SweepConfig(checks=("ass",)), n_min=5)

    @pytest.mark.parametrize(
        "field, call",
        [
            ("k_max", lambda: SweepConfig(k_max=2.5)),
            ("k_max", lambda: SweepConfig(k_max=True)),
            ("lq_limit", lambda: SweepConfig(lq_limit=2.5)),
            ("budget_ms", lambda: SweepConfig(budget_ms=True)),
            ("budget_ms", lambda: SweepConfig(budget_ms="5")),
            ("primes", lambda: SweepConfig(primes=(2.0, 3.0))),
            ("primes", lambda: SweepConfig(primes=(True,))),
            ("primes", lambda: SweepConfig(primes="23")),
            ("checks", lambda: SweepConfig(checks="ass")),
            ("k_max", lambda: persistence_check(complementary_edge_ideal(cycle_graph(4)), 2.5)),
            ("k_max", lambda: strong_persistence_check(complementary_edge_ideal(cycle_graph(4)), 2.5)),
            ("n_max", lambda: sweep(4.0, SweepConfig(checks=("ass",)))),
            ("n_min", lambda: sweep(4, SweepConfig(checks=("ass",)), n_min=3.0)),
        ],
        ids=[
            "k_max=2.5", "k_max=True", "lq_limit=2.5", "budget_ms=True", "budget_ms='5'",
            "primes=(2.0,3.0)", "primes=(True,)",
            "primes='23'", "checks='ass'", "persistence_check", "strong_persistence_check",
            "n_max=4.0", "n_min=3.0",
        ],
    )
    def test_rejects_sizes_that_are_not_integers(self, field, call):
        # each was accepted (budget_ms=True as a 1 ms budget), and a float
        # prime or a string budget raised TypeError; a string was read one
        # character at a time
        with pytest.raises(ValueError, match=f"^{field} must"):
            call()


def mixed_ideal(g, marked):
    """I_c(G) + (x_[n]/x_i : i in marked), for isolated vertices of G."""
    n = g.n
    gens = list(complementary_edge_ideal(g).generators)
    gens += [x_of_set(set(range(n)) - {i}, n) for i in marked]
    return ideal(gens, n)


class TestIdealPath:
    """``run_graph_checks`` on the ideals of the trichotomy that are not
    I_c(G): classified once, checked on their canonical form, one record per
    isomorphism class."""

    def test_matroidal_ideals_leaving_out_different_variables_get_separate_records(self):
        # depth S/I^2 is 2 for (x1x2x3, x1x2x4) and 1 for V(4,3)
        cfg = SweepConfig(k_max=2, checks=("reg", "depth-monotone"))
        new_process()
        for text, depths in (
            ("(x1*x2*x3, x1*x2*x4)", [2, 2]),
            ("(x1*x2*x3, x1*x2*x4, x1*x3*x4, x2*x3*x4)", [2, 1]),
            ("(x2*x3*x4, x1*x3*x4)", [2, 2]),
        ):
            rpt = run_graph_checks(I_(text, 4), cfg)
            assert rpt.summary == {"reg": True, "depth-monotone": True}
            assert [rpt.per_k[k]["depth_oracle"] for k in (1, 2)] == depths
        assert compedge.verify._class_memo.cache_info().currsize == 2
        new_process()

    def test_a_complementary_edge_ideal_is_checked_as_its_graph(self):
        cfg = SweepConfig(k_max=2)
        g = paw()
        rpt = run_graph_checks(complementary_edge_ideal(g), cfg)
        assert rpt.graph == g and rpt.ideal is None
        assert rpt.to_json_dict() | {"timings_ms": {}} == run_graph_checks(g, cfg).to_json_dict() | {"timings_ms": {}}

    def test_inapplicable_checks_and_ideals_are_refused_before_any_work(self):
        new_process()
        mixed = mixed_ideal(with_isolated(path_graph(3), 1), [3])
        veronese = I_("(x1*x2*x3, x1*x2*x4, x1*x3*x4, x2*x3*x4)", 4)
        refused = [
            (mixed, "ass"),
            (mixed, "localization"),
            (veronese, "depth-stable"),
            (veronese, "v"),
            (I_("(x1, x2*x3)", 4), "reg"),  # a generator of degree below n - 2
        ]
        for I, check in refused:
            with pytest.raises(ValueError):
                run_graph_checks(I, SweepConfig(checks=("reg", check)))
        assert compedge.verify._class_memo.cache_info().currsize == 0
        with pytest.raises(ValueError):
            run_graph_checks(I_("(x1^2*x2*x3)", 4), SweepConfig(checks=("reg",)))

    def test_a_wrong_mixed_regularity_form_fails_the_reg_check(self, monkeypatch):
        reg = compedge.formulas.reg_closed_form
        monkeypatch.setattr(
            compedge.formulas,
            "reg_closed_form",
            lambda cls, k: reg(cls, k) + (cls.case is BigDegreeCase.MIXED),
        )
        new_process()
        cfg = SweepConfig(k_max=2, checks=("reg",))
        I = mixed_ideal(with_isolated(path_graph(3), 1), [3])
        rpt = run_graph_checks(I, cfg)
        assert rpt.summary == {"reg": False}
        assert run_graph_checks(with_isolated(path_graph(3), 1), cfg).summary == {"reg": True}
        # an ideal's report serializes, and the summary names the ideal
        assert json.loads(json.dumps(rpt.to_json_dict()))["ideal"] == I.to_json_dict()
        assert f"- `{I}` reg:" in markdown_summary([rpt])
        new_process()

    def test_mixed_ideals_marking_some_isolated_vertices(self, edged_census):
        # a mixed ideal may give x_[n]/x_i to any nonempty set of isolated
        # vertices: those that leave some out form 1 class at n = 4 (12
        # labeled ideals) and 4 at n = 5 (140)
        cfg = SweepConfig(k_max=3, checks=("reg", "depth-monotone", "depth-stable", "linear"))
        new_process()
        labeled = 0
        for n in (4, 5):
            for g in edged_census[n]:
                isolated = sorted(g.isolated_vertices)
                for size in range(1, len(isolated)):
                    for marked in itertools.combinations(isolated, size):
                        rpt = run_graph_checks(mixed_ideal(g, marked), cfg)
                        assert set(rpt.summary.values()) == {True}, (str(g), marked)
                        labeled += 1
        assert labeled == 152
        assert compedge.verify._class_memo.cache_info().currsize == 5
        new_process()


class TestWitnessKernel:
    def test_agrees_with_reference_kernels(self, edged_census, edged_classes, random_ideals):
        ideals = random_ideals(random.Random(41), 1000)
        graphs = [(g, 3) for n in (3, 4) for g in edged_census[n]]
        graphs += [(g, 3) for g in edged_classes[5]]
        graphs += [(cycle_graph(6), 3), (path_graph(6), 3), (cycle_graph(7), 3), (path_graph(7), 2)]
        ideals += [
            power(complementary_edge_ideal(g), k) for g, k_max in graphs for k in range(1, k_max + 1)
        ]
        for I in ideals:
            found = _prime_colon_witnesses(I)
            got = {(tuple(u), int(m)) for u, m in zip(found.exps.tolist(), found.masks)}
            ref = colon_prime_scan_reference(I)
            assert got == ref, str(I)
            assert depth_zero_oracle(I) == depth_zero_reference(I), str(I)

            def prime(mask):
                return frozenset(i for i in range(I.ambient) if mask >> i & 1)

            assert ass_oracle(I) == {prime(mask) for _, mask in ref}
            u, mask = min(ref, key=lambda w: (sum(w[0]), w[0]))
            v = v_oracle(I)
            assert (v.witness.exponents, v.prime) == (u, prime(mask))

    def test_witness_colon_is_the_prime(self, random_ideals):
        for I in random_ideals(random.Random(43), 100):
            found = _prime_colon_witnesses(I)
            for mask in found.prime_masks():
                w = found.least(mask)
                assert w.prime == vertex_set(mask)
                P_F = ideal([variable(i, I.ambient) for i in w.prime], I.ambient)
                assert colon(I, w.witness) == P_F

    def test_lowered_limit_applies_to_a_memoized_ideal(self, monkeypatch):
        I2 = power(complementary_edge_ideal(cycle_graph(5)), 2)
        ass = ass_oracle(I2)
        monkeypatch.setattr(compedge.ideals, "BOX_CELL_LIMIT", 10)
        for oracle in (ass_oracle, v_oracle, depth_zero_oracle):
            with pytest.raises(LimitExceededError, match="divisor box has 243 cells, limit 10"):
                oracle(I2)
        monkeypatch.undo()
        assert ass_oracle(I2) == ass

    def test_an_equal_ideal_is_scanned_once(self):
        compedge.verify._prime_colon_witnesses.cache_clear()
        I = complementary_edge_ideal(cycle_graph(5))
        ass_oracle(I)
        fresh = complementary_edge_ideal(cycle_graph(5))
        assert fresh is not I and fresh == I
        v_oracle(fresh)
        depth_zero_oracle(fresh)
        info = compedge.verify._prime_colon_witnesses.cache_info()
        assert (info.hits, info.misses) == (2, 1)

    def test_degree_slab_holds_degrees_past_255(self):
        # the only witness, x1^299, lies past what a uint8 degree slab holds
        I = ideal([Monomial((300,))], 1)
        assert ass_oracle(I) == {frozenset({0})}
        assert depth_zero_oracle(I) == (True, Monomial((299,)))

    def test_scan_memory_stays_small(self):
        # 280k cells: the uint16 table, its membership mask and a uint8
        # degree slab take 1.1 MB of the peak
        I = power(complementary_edge_ideal(cycle_graph(7)), 5)
        tracemalloc.start()
        try:
            _prime_colon_witnesses.__wrapped__(I)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_500_000

    def test_shared_witness_arrays_are_read_only(self):
        found = _prime_colon_witnesses(complementary_edge_ideal(cycle_graph(5)))
        assert found.masks.size
        with pytest.raises(ValueError, match="read-only"):
            found.exps[0, 0] = 7
        with pytest.raises(ValueError, match="read-only"):
            found.masks[0] = 0


def test_checks_and_oracles_do_not_import_numpy_ma():
    # np.unique without return_inverse imports numpy.ma on first use, which
    # a timed round would pay for
    code = """
import sys
from compedge.graphs import complete_graph, cycle_graph, path_graph
from compedge.ideals import complementary_edge_ideal, power
from compedge.resolution import is_componentwise_linear
from compedge.verify import SweepConfig, ass_oracle, depth_zero_oracle, run_graph_checks, v_oracle
cfg = SweepConfig(k_max=4, checks=("all",))
for g in (cycle_graph(5), path_graph(5), complete_graph(4)):
    run_graph_checks(g, cfg)
    I2 = power(complementary_edge_ideal(g), 2)
    ass_oracle(I2), v_oracle(I2), depth_zero_oracle(I2), is_componentwise_linear(I2)
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""
    env = dict(os.environ, PYTHONPATH=str(Path(compedge.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestOracleCrossValidation:
    def test_socle_route_matches_homology_depth(self, edged_classes):
        # the witness scan against Auslander-Buchsbaum depth from the Betti
        # table, on every class with an edge on at most 6 vertices: depth
        # S/I = 0 exactly when the maximal ideal is associated, and depth
        # S/I <= n - |F| for every associated P_F
        for n, classes in edged_classes.items():
            for g in classes:
                for k in (1, 2, 3):
                    Ik = power(complementary_edge_ideal(g), k)
                    depth = reg_pd_depth(Ik).depth
                    ass = ass_oracle(Ik)
                    socle_hit, _ = depth_zero_oracle(Ik)
                    assert socle_hit == (frozenset(range(n)) in ass) == (depth == 0), (g, k)
                    assert depth <= n - max(map(len, ass)), (g, k)

    def test_betti_numbers_sum_to_the_membership_differences(self, edged_classes):
        # identity 3: at every multidegree a of the lcm box, the alternating
        # sum of beta_{i,a}(I) over i (beta_0 counting generators) is the
        # n-fold first difference of the membership table of I, zero-padded
        # below, over F_2 and F_3 alike
        violations = []
        for classes in edged_classes.values():
            for g in classes:
                I = complementary_edge_ideal(g)
                for k in (1, 2, 3):
                    Ik = power(I, k)
                    diff = (divisor_counts(Ik, Ik.lcm_of_generators()) > 0).astype(np.int64)
                    for axis in range(Ik.ambient):
                        diff = np.diff(diff, axis=axis, prepend=0)
                    for p in (2, 3):
                        table = betti_table(Ik, p)
                        signed = np.zeros_like(diff)
                        np.add.at(signed, tuple(table.multidegrees.T), (-1) ** table.i * table.rank)
                        violations += [
                            (str(g), k, p, tuple(a)) for a in np.argwhere(signed != diff).tolist()
                        ]
        assert violations == []

    def test_ass_equals_localization_route_on_random_ideals(self):
        rng = random.Random(31)
        checked = 0
        while checked < 120:
            n = rng.randint(2, 4)
            gens = [
                Monomial(tuple(rng.randint(0, 3) for _ in range(n)))
                for _ in range(rng.randint(1, 4))
            ]
            I = ideal(gens, n)
            if not I.is_proper:
                continue
            checked += 1
            assert ass_oracle(I) == set(stable_ass_localization(I, 1))


def outcome(fn, *args):
    """What an oracle gives: its value, or the limit it hit."""
    try:
        return fn(*args)
    except LimitExceededError:
        return "limit"


def relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[i], perm[j]) for i, j in g.edges])


def printed(vertex_sets):
    """Vertex sets as a report prints them: 1-based tuples, by size, then
    lexicographically."""
    return sorted((tuple(sorted(i + 1 for i in F)) for F in vertex_sets), key=lambda F: (len(F), F))


class TestClassMemo:
    """Each class-level result against the same oracle run directly on I_c
    of the canonical form, and each Ass set a labeled graph prints against
    the oracle run directly on the graph's own ideal, under the default
    limits and then under tight ones that make some oracles raise."""

    def direct(self, g, k, cfg):
        I = complementary_edge_ideal(g)
        Ik = power(I, k)
        p = cfg.primes[0]

        def localization():
            subsets = np.arange(1, 1 << g.n)
            if subsets.size << g.n > compedge.ideals.BOX_CELL_LIMIT:
                raise LimitExceededError("localization tables")
            mismatched = _localization_supports(I, subsets) != compedge.formulas.localization_table(g, subsets)
            return tuple(subsets[mismatched.any(axis=1)].tolist())

        def witnesses():
            found = _prime_colon_witnesses(Ik)
            return found.primes(), found.least().v

        def strong_persistence():
            powers = (power(I, j) for j in range(1, cfg.k_max + 2))
            res = _strong_persistence(I, powers)
            return res.holds, res.first_failure

        return {
            "witnesses": outcome(witnesses),
            "reg_pd_depth": outcome(reg_pd_depth, Ik, p),
            "linear": outcome(
                lambda: (has_linear_quotients(Ik, cfg.lq_limit)[0], is_componentwise_linear(Ik, p))
            ),
            "betti-field-independence": outcome(_same_betti_tables, Ik, cfg.primes),
            "symbolic": outcome(_symbolic_equals_ordinary, I, power(I, 2), 2),
            "strong-persistence": outcome(strong_persistence),
            "localization": outcome(localization),
        }

    def memoized(self, st, k):
        def witnesses():
            ass, v = st.witnesses(k)
            return set(map(vertex_set, ass)), v

        return {
            "witnesses": outcome(witnesses),
            "reg_pd_depth": outcome(st.invariants, k),
            "linear": outcome(st.linear, k),
            "betti-field-independence": outcome(st.same_betti_tables, k),
            "symbolic": outcome(st.symbolic),
            "strong-persistence": outcome(st.strong_persistence),
            "localization": outcome(st.localization_mismatches),
        }

    def test_memo_equals_direct_oracles(self, edged_census, monkeypatch):
        rng = random.Random(20261018)
        cases = [(g, 3) for n in (3, 4) for g in edged_census[n]]
        cases += [(relabeled(g, rng), 2) for g in rng.sample(edged_census[5], 16)]
        n6 = [g for g in enumerate_labeled_graphs(6) if g.edges]
        cases += [(relabeled(g, rng), 2) for g in rng.sample(n6, 6)]
        cases += [(relabeled(g, rng), 2) for g in (complete_graph(7), cycle_graph(7), path_graph(7))]
        mismatches, limits = [], Counter()
        for tight in (False, True):
            # the box limit is a module constant, so each pass lowers it or
            # not and starts from an empty class memo
            if tight:
                monkeypatch.setattr(compedge.ideals, "BOX_CELL_LIMIT", 30)
            new_process()
            for g, k_max in cases:
                cfg = SweepConfig(k_max=k_max, primes=(3, 2), lq_limit=4) if tight else SweepConfig(k_max=k_max)
                st = _GraphState(g, cfg)
                labeled = complementary_edge_ideal(g)
                for k in range(1, k_max + 1):
                    want = self.direct(st.canon, k, cfg)
                    got = self.memoized(st, k)
                    want["labeled_ass"] = outcome(lambda: printed(ass_oracle(power(labeled, k))))
                    got["labeled_ass"] = outcome(lambda: st.names(st.witnesses(k)[0]))
                    limits.update(op for op, value in want.items() if value == "limit")
                    mismatches += [(str(g), tight, op, k) for op in want if got[op] != want[op]]
        assert mismatches == []
        # the tight limits make each limited oracle raise somewhere
        assert {"witnesses", "labeled_ass", "linear", "symbolic", "strong-persistence", "localization"} <= set(limits)

    def test_each_closed_form_runs_once_per_class(self, monkeypatch):
        calls = Counter()
        forms = (
            "localization_table",
            "symbolic_equals_ordinary_class",
            "ass_infinity_masks",
            "v_closed_form",
            "reg_closed_form",
            "depth_and_dstab_closed_form",
            "linear_powers_predicate",
        )

        def counting(name, form):
            def wrapper(first, *args):
                # a graph, or a CaseClassification
                k = args if name in ("v_closed_form", "reg_closed_form") else ()
                calls[(name, first, *k)] += 1
                return form(first, *args)

            return wrapper

        for name in forms:
            monkeypatch.setattr(compedge.formulas, name, counting(name, getattr(compedge.formulas, name)))
        cfg = SweepConfig(
            k_max=3, checks=("ass", "entry-bound", "localization", "reg", "v", "symbolic")
        )
        new_process()
        want = Counter()
        for g in (cycle_graph(4), paw(), matching_graph(2)):
            canon = canonical_form(g)[0]
            cls = CaseClassification(BigDegreeCase.COMPLEMENTARY_EDGE, g.n, graph=canon)
            want.update([(name, canon) for name in forms[:3]])
            want.update(("v_closed_form", canon, k) for k in (1, 2, 3))
            want.update(("reg_closed_form", cls, k) for k in (1, 2, 3))
            for perm in itertools.permutations(range(g.n)):
                copy = Graph.from_edges(g.n, [(perm[i], perm[j]) for i, j in g.edges])
                assert set(run_graph_checks(copy, cfg).summary.values()) == {True}
        # every relabeling of a mixed ideal reads its class's record: P3 with
        # its isolated vertex marked, and K2 with one of two marked
        cfg = SweepConfig(k_max=3, checks=("reg", "depth-stable", "linear"))
        for g, marked in ((path_graph(3), 1), (matching_graph(1), 1)):
            g = with_isolated(g, 4 - g.n)
            canon = canonical_form(g)[0]
            lowest = sorted(canon.isolated_vertices)[:marked]
            cls = CaseClassification(BigDegreeCase.MIXED, 4, graph=canon, degree_n1_vars=frozenset(lowest))
            want.update(("reg_closed_form", cls, k) for k in (1, 2, 3))
            want.update([("depth_and_dstab_closed_form", cls), ("linear_powers_predicate", cls)])
            I = mixed_ideal(g, sorted(g.isolated_vertices)[:marked])
            for perm in itertools.permutations(range(4)):
                copy = ideal([Monomial(tuple(row)) for row in I.exponents[:, perm].tolist()], 4)
                assert set(run_graph_checks(copy, cfg).summary.values()) == {True}
        assert calls == want
        assert compedge.verify._class_memo.cache_info().currsize == 5
        new_process()

    def test_printed_vertex_sets_are_the_labeled_graphs(self, monkeypatch):
        # a triangle with a pendant at two of its vertices, labeled so that
        # no printed vertex set reads the same in the canonical labels
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 4), (2, 3)])
        canon = canonical_form(g)[0]
        assert canon != g
        I = complementary_edge_ideal(g)
        asses = [ass_oracle(power(I, k)) for k in (1, 2, 3)]
        cfg = SweepConfig(k_max=3, checks=("ass", "entry-bound"))
        new_process()
        rpt = run_graph_checks(g, cfg)
        assert run_graph_checks(canon, cfg).details != rpt.details
        assert [rpt.per_k[k]["ass_oracle"] for k in (1, 2, 3)] == list(map(printed, asses))
        assert rpt.details["ass"] == {
            "first_power_formula": printed(compedge.formulas.ass_first_power(g)),
            "stable_formula": printed(ass_infinity(g).stable_set),
        }
        assert rpt.details["entry-bound"] == [
            {
                "prime": F,
                "bound": max(1, len(F) - 2),
                "observed_entry": next(k for k in (1, 2, 3) if fs(*F) in asses[k - 1]),
            }
            for F in printed(ass_infinity(g).stable_set)
            if len(F) >= 2
        ]

        # force a persistence loss, every prime on two vertices past the
        # first power, and a localization mismatch, then name both directly
        witnesses = _GraphState.witnesses

        def losing(st, k):
            ass, v = witnesses(st, k)
            return (ass if k == 1 else frozenset(F for F in ass if F.bit_count() != 2)), v

        monkeypatch.setattr(_GraphState, "witnesses", losing)
        monkeypatch.setattr(compedge.formulas, "localization_table", localization_without_a_f)
        rpt = run_graph_checks(g, SweepConfig(k_max=2, checks=("persistence", "localization")))
        assert rpt.summary == {"persistence": False, "localization": False}
        assert rpt.details["persistence"] == {
            "violation_k": 1,
            "lost_prime": printed(F for F in asses[0] if len(F) == 2)[0],
        }
        subsets = np.arange(1, 1 << g.n)
        bad = (localization_without_a_f(g, subsets) != _localization_supports(I, subsets)).any(axis=1)
        assert rpt.details["localization"] == {
            "mismatched_subsets": printed(vertex_set(int(F)) for F in subsets[bad])
        }
        new_process()

    def test_printed_vertex_sets_are_shared_tuples(self, monkeypatch):
        # two relabelings of one class print their vertex sets as the
        # entries of the report order's name table, not as copies of them
        names = compedge.verify._report_order(5)[1]
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 4), (2, 3)])
        perm = (4, 3, 0, 1, 2)
        copy = Graph.from_edges(5, [(perm[i], perm[j]) for i, j in g.edges])
        checks = ("ass", "persistence", "entry-bound", "localization")
        # force a persistence loss and a localization mismatch, so that
        # every vertex set a report can print is printed
        witnesses = _GraphState.witnesses

        def losing(st, k):
            ass, v = witnesses(st, k)
            return (ass if k == 1 else frozenset(F for F in ass if F.bit_count() != 2)), v

        monkeypatch.setattr(_GraphState, "witnesses", losing)
        monkeypatch.setattr(compedge.formulas, "localization_table", localization_without_a_f)
        new_process()
        for h in (g, copy):
            rpt = run_graph_checks(h, SweepConfig(k_max=3, checks=checks))
            printed_sets = [F for k in (1, 2, 3) for F in rpt.per_k[k]["ass_oracle"]]
            printed_sets += rpt.details["ass"]["first_power_formula"]
            printed_sets += rpt.details["ass"]["stable_formula"]
            printed_sets.append(rpt.details["persistence"]["lost_prime"])
            printed_sets += rpt.details["localization"]["mismatched_subsets"]
            printed_sets += [row["prime"] for row in rpt.details["entry-bound"]]
            assert len(printed_sets) > 30
            assert all(F is names[sum(1 << (i - 1) for i in F)] for F in printed_sets)
        new_process()

    def test_relabeling_tables_are_bounded_by_the_census(self):
        # one table per permutation, for at most the 6! of the labeled census
        assert compedge.verify._relabeling.cache_info().maxsize <= 720

    def test_field_dependence_is_reported_with_the_labeled_tables(self, monkeypatch):
        # no census ideal has field-dependent Betti tables, so force the
        # class result; the details must still be the labeled graph's
        monkeypatch.setattr(compedge.verify, "_same_betti_tables", lambda I, primes: False)
        new_process()
        g = Graph.from_edges(4, [(0, 2), (2, 3), (3, 1)])  # P4, not canonical
        assert canonical_form(g)[0] != g
        rpt = run_graph_checks(g, SweepConfig(k_max=2, checks=("betti-field-independence",)))
        assert rpt.summary == {"betti-field-independence": False}
        I = complementary_edge_ideal(g)
        assert rpt.details["betti-field-independence"] == {
            str(k): {str(p): betti_table(power(I, k), p).to_json_dict() for p in (2, 3)}
            for k in (1, 2)
        }
        new_process()
