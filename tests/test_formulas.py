import itertools
import random

import numpy as np
import pytest

import compedge.formulas
from compedge.formulas import (
    ass_first_power,
    ass_first_power_masks,
    ass_infinity,
    ass_infinity_masks,
    depth_and_dstab_closed_form,
    linear_powers_predicate,
    localization_table,
    reg_closed_form,
    symbolic_equals_ordinary_class,
    v_closed_form,
    vstab,
)
from compedge.graphs import (
    Graph,
    canonical_form,
    complete_graph,
    component_summary,
    cycle_graph,
    enumerate_labeled_graphs,
    induced_subgraph,
    matching_graph,
    path_graph,
    with_isolated,
)
from compedge.ideals import (
    classify_big_degree,
    complementary_edge_ideal,
    ideal,
    localize,
    minimal_supports,
    parse_ideal,
)
from compedge.monomials import x_of_set


def paw():
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def fs(*vals):
    return frozenset(v - 1 for v in vals)  # tests written 1-based for legibility


def cls_of(g):
    return classify_big_degree(complementary_edge_ideal(g))


def mask_of(F):
    return sum(1 << i for i in F)


@pytest.fixture(scope="module")
def labeled_graphs(edged_census):
    """Every labeled graph with an edge on 3..5 vertices, and a seeded
    sample of 300 of those on 6."""
    n6 = [g for g in enumerate_labeled_graphs(6) if g.edges]
    return [g for n in (3, 4, 5) for g in edged_census[n]] + random.Random(13).sample(n6, 300)


def ass_infinity_reference(g):
    """The stable set as the subset loop that preceded the bitmask kernel:
    the isolated singletons, and every F of at least two non-isolated
    vertices whose induced subgraph has b~ = 0."""
    iso = g.isolated_vertices
    stable = {frozenset({i}) for i in iso}
    non_iso = sorted(set(range(g.n)) - iso)
    for size in range(2, len(non_iso) + 1):
        for combo in itertools.combinations(non_iso, size):
            sub, _ = induced_subgraph(g, combo)
            if component_summary(sub).b_tilde == 0:
                stable.add(frozenset(combo))
    return stable


def ass_first_power_reference(g):
    """Ass(I_c(G)) as the loop that preceded the bitmask kernel: the
    isolated singletons, then the non-edges and triangles of the rest."""
    iso = g.isolated_vertices
    out = {frozenset({i}) for i in iso}
    non_iso = sorted(set(range(g.n)) - iso)
    for i, j in itertools.combinations(non_iso, 2):
        if not g.has_edge(i, j):
            out.add(frozenset({i, j}))
    for i, j, k in itertools.combinations(non_iso, 3):
        if g.has_edge(i, j) and g.has_edge(i, k) and g.has_edge(j, k):
            out.add(frozenset({i, j, k}))
    return out


class TestMaskKernels:
    def test_agree_with_reference_loops(self, labeled_graphs):
        for g in labeled_graphs:
            stable, first = ass_infinity_reference(g), ass_first_power_reference(g)
            assert ass_infinity_masks(g) == {mask_of(F) for F in stable}, str(g)
            assert ass_first_power_masks(g) == {mask_of(F) for F in first}, str(g)
            pred = ass_infinity(g)
            assert pred.stable_set == stable
            assert pred.entry_bounds == {F: 1 if len(F) == 1 else max(1, len(F) - 2) for F in stable}
            assert ass_first_power(g) == first

    def test_guards(self):
        for kernel in (ass_infinity_masks, ass_first_power_masks):
            with pytest.raises(ValueError, match="at least 3 vertices"):
                kernel(matching_graph(1))
            with pytest.raises(ValueError, match="at least one edge"):
                kernel(Graph(4, frozenset()))


class TestEquivariance:
    def test_closed_forms_commute_with_relabeling(self, labeled_graphs):
        # every closed form at g is its value at the canonical form, read
        # back through the relabeling: canonical vertex perm[i] is vertex i
        for g in labeled_graphs:
            canon, perm = canonical_form(g)
            n = g.n

            def back(F):
                return frozenset(i for i in range(n) if perm[i] in F)

            assert ass_first_power(g) == set(map(back, ass_first_power(canon)))
            pred, cpred = ass_infinity(g), ass_infinity(canon)
            assert pred.stable_set == set(map(back, cpred.stable_set))
            assert pred.entry_bounds == {back(F): b for F, b in cpred.entry_bounds.items()}
            assert pred.astab_bound == cpred.astab_bound
            # labeled bitmask -> canonical bitmask, for rows and columns
            fwd = np.array([mask_of(perm[i] for i in range(n) if m >> i & 1) for m in range(1 << n)])
            subsets = np.arange(1, 1 << n)
            table = localization_table(g, subsets)
            assert np.array_equal(table, localization_table(canon, subsets)[np.ix_(fwd[1:] - 1, fwd)])
            cls, ccls = cls_of(g), cls_of(canon)
            for k in (1, 2, 3):
                assert v_closed_form(g, k) == v_closed_form(canon, k)
                assert reg_closed_form(cls, k) == reg_closed_form(ccls, k)
            assert depth_and_dstab_closed_form(cls) == depth_and_dstab_closed_form(ccls)
            assert linear_powers_predicate(cls) == linear_powers_predicate(ccls)
            assert symbolic_equals_ordinary_class(g) == symbolic_equals_ordinary_class(canon)


class TestAssInfinity:
    def test_cycle4(self):
        pred = ass_infinity(cycle_graph(4))
        assert pred.stable_set == {fs(1, 3), fs(2, 4)}
        assert pred.astab_bound == 2

    def test_path3(self):
        assert ass_infinity(path_graph(3)).stable_set == {fs(1, 3)}

    def test_paw_entry_bound(self):
        pred = ass_infinity(paw())
        assert fs(1, 2, 3, 4) in pred.stable_set
        assert pred.entry_bounds[fs(1, 2, 3, 4)] == 2

    def test_isolated_vertices_peel_off(self):
        # K_2 on {1,2} plus isolated 3, 4: I_c = (x3 x4), whose powers have
        # only the singleton primes; larger subsets touching the isolated
        # vertices never become associated
        g = with_isolated(matching_graph(1), 2)
        pred = ass_infinity(g)
        assert pred.stable_set == {fs(3), fs(4)}

    def test_entry_bounds_within_astab_bound(self):
        pred = ass_infinity(complete_graph(5))
        assert all(b <= pred.astab_bound for b in pred.entry_bounds.values())

    def test_singletons_are_isolated(self, edged_census):
        rng = random.Random(4)
        for g in rng.sample(edged_census[5], 60):
            pred = ass_infinity(g)
            for F in pred.stable_set:
                if len(F) == 1:
                    (i,) = F
                    assert g.is_isolated(i)

    def test_guards(self):
        with pytest.raises(ValueError):
            ass_infinity(matching_graph(1))  # n = 2
        with pytest.raises(ValueError):
            ass_infinity(Graph(4, frozenset()))  # edgeless


class TestAssFirstPower:
    def test_cycle4(self):
        assert ass_first_power(cycle_graph(4)) == {fs(1, 3), fs(2, 4)}

    def test_triangle(self):
        assert ass_first_power(complete_graph(3)) == {fs(1, 2, 3)}

    def test_edge_plus_isolated(self):
        g = with_isolated(matching_graph(1), 1)
        assert ass_first_power(g) == {fs(3)}

    def test_paw(self):
        assert ass_first_power(paw()) == {fs(1, 4), fs(2, 4), fs(1, 2, 3)}


def localization_formula_reference(g, F):
    """Reference for the localization formula, built per subset: I_c of the
    induced subgraph plus x_F/x_i over A_F, or (x_F) when F meets no edge,
    in the |F|-variable ring indexed by sorted(F)."""
    fs = sorted(set(F))
    m = len(fs)
    touched = {v for e in g.edges for v in e}
    if not touched & set(fs):
        return ideal([x_of_set(range(m), m)], m)
    sub, _ = induced_subgraph(g, fs)
    gens = list(complementary_edge_ideal(sub).generators)
    for pos, i in enumerate(fs):
        if sub.is_isolated(pos) and i in touched:
            gens.append(x_of_set(set(range(m)) - {pos}, m))
    return ideal(gens, m)


def original_supports(I, F):
    """Generator supports of an ideal indexed by sorted(F), as bitmasks in
    the original labels."""
    fs = sorted(F)
    return {sum(1 << fs[pos] for pos in g.support) for g in I.generators}


def table_row(g, F):
    """Row F of the localization table, as its set of generator-support
    bitmasks in the original labels."""
    (row,) = localization_table(g, [mask_of(F)])
    return set(np.flatnonzero(row).tolist())


class TestLocalizationFormula:
    def test_paw(self):
        # (x1, x4): the generators x1 and x4 in the original labels
        assert table_row(paw(), [0, 3]) == {0b0001, 0b1000}
        got = localize(complementary_edge_ideal(paw()), [0, 3])
        assert got == parse_ideal("(x1, x2)", 2)
        assert original_supports(got, [0, 3]) == table_row(paw(), [0, 3])

    def test_path3_endpoints(self):
        assert table_row(path_graph(3), [0, 2]) == {0b001, 0b100}

    def test_otherwise_branch(self):
        g = with_isolated(matching_graph(1), 2)  # edge {1,2} + vertices 3,4
        assert table_row(g, [2, 3]) == {0b1100}

    def test_matches_direct_localization_on_sample(self, edged_census):
        rng = random.Random(8)
        graphs = edged_census[4] + rng.sample(edged_census[5], 40)
        for g in graphs:
            I = complementary_edge_ideal(g)
            table = localization_table(g, range(1, 1 << g.n))
            for mask, row in enumerate(table, start=1):
                F = [i for i in range(g.n) if mask >> i & 1]
                J = localize(I, F)
                assert J.is_squarefree
                assert set(np.flatnonzero(row).tolist()) == original_supports(J, F)

    def test_table_rows_match_reference(self, localization_graphs):
        # the reference reads only the induced subgraph and which of its
        # vertices touch an edge of G, so rows with equal inputs share it
        reference = {}
        for g in localization_graphs:
            touched = {v for e in g.edges for v in e}
            table = localization_table(g, range(1, 1 << g.n))
            assert table.shape == ((1 << g.n) - 1, 1 << g.n)
            for mask, row in enumerate(table, start=1):
                F = [i for i in range(g.n) if mask >> i & 1]
                key = (induced_subgraph(g, F)[0], tuple(i in touched for i in F))
                if key not in reference:
                    reference[key] = localization_formula_reference(g, F)
                want = original_supports(reference[key], F)
                assert set(np.flatnonzero(row).tolist()) == want, (str(g), F)

    def test_proposition_lists_minimal_generators(self, monkeypatch, localization_graphs):
        # I_c(G|_F) and x_F/x_i over A_F form an antichain, so minimalizing
        # the proposition's generators drops none of them
        def keeps_every_generator(supports, present, n):
            table = minimal_supports(supports, present, n)
            held = [set(s[p].tolist()) for s, p in zip(supports, present)]
            assert [set(np.flatnonzero(row).tolist()) for row in table] == held
            return table

        monkeypatch.setattr(compedge.formulas, "minimal_supports", keeps_every_generator)
        for g in localization_graphs:
            localization_table(g, range(1, 1 << g.n))

    def test_guards(self):
        for bad in ([0], [16], [-1]):
            with pytest.raises(ValueError):
                localization_table(paw(), bad)


class TestRegClosedForm:
    def test_triangle(self):
        assert reg_closed_form(cls_of(complete_graph(3)), 2) == 2

    def test_branch_switch_3k2(self):
        cls = cls_of(matching_graph(3))
        assert [reg_closed_form(cls, k) for k in (1, 2, 3)] == [5, 10, 14]

    def test_mixed(self):
        cls = classify_big_degree(parse_ideal("(x1*x2, x1*x3*x4)", 4))
        assert reg_closed_form(cls, 2) == 6

    def test_veronese(self):
        cls = classify_big_degree(
            parse_ideal("(x1*x2*x3, x1*x2*x4, x1*x3*x4, x2*x3*x4)", 4)
        )
        assert reg_closed_form(cls, 2) == 6


class TestDepthClosedForm:
    def test_matching(self):
        assert depth_and_dstab_closed_form(cls_of(matching_graph(2))) == (2, 3)

    def test_cycle(self):
        assert depth_and_dstab_closed_form(cls_of(cycle_graph(4))) == (1, 3)

    def test_mixed(self):
        cls = classify_big_degree(parse_ideal("(x1*x2, x1*x3*x4)", 4))
        assert depth_and_dstab_closed_form(cls) == (2, 2)

    def test_veronese_not_covered(self):
        cls = classify_big_degree(
            parse_ideal("(x1*x2*x3, x1*x2*x4, x1*x3*x4, x2*x3*x4)", 4)
        )
        with pytest.raises(ValueError):
            depth_and_dstab_closed_form(cls)


class TestVClosedForm:
    def test_matching_branch(self):
        assert v_closed_form(matching_graph(2), 1) == 2
        assert v_closed_form(matching_graph(2), 2) == 4

    def test_triangle(self):
        assert v_closed_form(complete_graph(3), 1) == 0

    def test_paw(self):
        assert v_closed_form(paw(), 2) == 3

    def test_matching_with_isolated_is_generic_branch(self):
        g = with_isolated(matching_graph(2), 1)
        assert v_closed_form(g, 1) == (g.n - 2) - 1


class TestSymbolicClass:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (cycle_graph(4), True),
            (with_isolated(path_graph(4), 2), True),
            (paw(), False),
            (complete_graph(3), True),
            (with_isolated(matching_graph(2), 1), True),
            (matching_graph(3), False),
            (complete_graph(4), False),
            (path_graph(5), False),
        ],
    )
    def test_membership(self, graph, expected):
        assert symbolic_equals_ordinary_class(graph) is expected


class TestLinearPowersPredicate:
    def test_examples(self):
        assert linear_powers_predicate(cls_of(complete_graph(3)))
        assert not linear_powers_predicate(cls_of(matching_graph(2)))
        assert linear_powers_predicate(
            classify_big_degree(
                parse_ideal("(x1*x2*x3, x1*x2*x4, x1*x3*x4, x2*x3*x4)", 4)
            )
        )


class TestVstab:
    def test_always_one(self):
        for g in (cycle_graph(4), matching_graph(2), paw()):
            assert vstab(g) == 1
