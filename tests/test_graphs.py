import itertools
import random

import pytest

from compedge.graphs import (
    DEFAULT_ISO_LIMIT,
    Graph,
    canonical_form,
    complement,
    complete_graph,
    component_summary,
    cycle_graph,
    enumerate_labeled_graphs,
    format_edge_list,
    from_graph6,
    induced_subgraph,
    is_isomorphic,
    matching_graph,
    parse_edge_list,
    path_graph,
    to_graph6,
    triangles,
    with_isolated,
)


def is_isomorphic_reference(g: Graph, h: Graph) -> bool:
    """Exhaustive isomorphism test with degree pruning, the search that the
    canonical form replaced in the library."""
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    gdeg = [g.degree(v) for v in range(g.n)]
    hdeg = [h.degree(v) for v in range(h.n)]
    if sorted(gdeg) != sorted(hdeg):
        return False

    # map g-vertices one at a time, most constrained (highest degree) first
    order = sorted(range(g.n), key=lambda v: -gdeg[v])

    def extend(pos: int, mapping: dict[int, int], used: set[int]) -> bool:
        if pos == g.n:
            return True
        v = order[pos]
        for w in range(h.n):
            if w in used or hdeg[w] != gdeg[v]:
                continue
            if all(g.has_edge(u, v) == h.has_edge(mapping[u], w) for u in mapping):
                mapping[v] = w
                used.add(w)
                if extend(pos + 1, mapping, used):
                    return True
                del mapping[v]
                used.remove(w)
        return False

    return extend(0, {}, set())


def relabel(g: Graph, perm) -> Graph:
    """Vertex i of g becomes vertex perm[i]."""
    return Graph.from_edges(g.n, [(perm[i], perm[j]) for i, j in g.edges])


def random_graph(rng: random.Random, n: int) -> Graph:
    pairs = itertools.combinations(range(n), 2)
    return Graph.from_edges(n, [p for p in pairs if rng.random() < 0.5])


def paw():
    # triangle on 1,2,3 plus the edge {3,4}
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


class TestFamilies:
    def test_path(self):
        assert path_graph(3).edge_list() == [(1, 2), (2, 3)]

    def test_cycle(self):
        assert cycle_graph(4).edge_list() == [(1, 2), (1, 4), (2, 3), (3, 4)]

    def test_matching(self):
        assert matching_graph(2).edge_list() == [(1, 2), (3, 4)]

    def test_complete(self):
        assert len(complete_graph(5).edges) == 10

    def test_with_isolated(self):
        g = complete_graph(3)
        assert with_isolated(g, 2).n == 5
        assert with_isolated(g, 2).edges == g.edges

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            cycle_graph(2)
        with pytest.raises(ValueError):
            matching_graph(0)

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])


class TestComponentSummary:
    def test_odd_cycle(self):
        s = component_summary(cycle_graph(5))
        assert (s.b, s.b_tilde, s.c) == (0, 0, 1)

    def test_triangle_plus_isolated(self):
        s = component_summary(with_isolated(complete_graph(3), 1))
        assert (s.b, s.b_tilde, s.c) == (1, 0, 1)
        assert s.isolated == {3}

    def test_two_matchings(self):
        s = component_summary(matching_graph(2))
        assert (s.b, s.b_tilde, s.c) == (2, 2, 2)

    def test_b_decomposition_on_census(self):
        for g in enumerate_labeled_graphs(5):
            s = component_summary(g)
            assert s.b == s.b_tilde + len(s.isolated)
            assert s.c >= s.b_tilde
            assert sorted(v for comp in s.components for v in comp) == list(range(g.n))


class TestInducedSubgraph:
    def test_nonadjacent_pair_in_cycle(self):
        sub, vmap = induced_subgraph(cycle_graph(4), [0, 2])
        assert sub.edges == frozenset() and vmap == (0, 2)

    def test_three_cycle_vertices_give_path(self):
        sub, _ = induced_subgraph(cycle_graph(4), [0, 1, 2])
        assert is_isomorphic(sub, path_graph(3))

    def test_paw_triangle(self):
        sub, _ = induced_subgraph(paw(), [0, 1, 2])
        assert sub == complete_graph(3)

    def test_full_subset_is_identity(self):
        g = paw()
        sub, vmap = induced_subgraph(g, range(g.n))
        assert sub == g and vmap == (0, 1, 2, 3)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            induced_subgraph(paw(), [])


class TestComplementAndTriangles:
    def test_cycle4(self):
        assert complement(cycle_graph(4)).edge_list() == [(1, 3), (2, 4)]
        assert triangles(cycle_graph(4)) == set()

    def test_triangle(self):
        assert complement(complete_graph(3)).edges == frozenset()
        assert triangles(complete_graph(3)) == {frozenset({0, 1, 2})}

    def test_paw(self):
        assert triangles(paw()) == {frozenset({0, 1, 2})}
        assert complement(paw()).edge_list() == [(1, 4), (2, 4)]

    def test_complement_is_involution(self):
        for g in enumerate_labeled_graphs(4):
            assert complement(complement(g)) == g


class TestIsomorphism:
    def test_relabeled_path(self):
        h = Graph.from_edges(3, [(1, 0), (0, 2)])  # path 2-1-3
        assert is_isomorphic(path_graph(3), h)

    def test_cycle_vs_path(self):
        assert not is_isomorphic(cycle_graph(4), path_graph(4))

    def test_vertex_count_mismatch(self):
        assert not is_isomorphic(with_isolated(matching_graph(2), 1), cycle_graph(4))

    def test_limit(self):
        with pytest.raises(ValueError):
            is_isomorphic(complete_graph(9), complete_graph(9))

    def test_equivalence_spot_checks(self):
        rng = random.Random(42)
        graphs = list(enumerate_labeled_graphs(4))
        sample = rng.sample(graphs, 12)
        for g in sample:
            assert is_isomorphic(g, g)
        for g, h in itertools.combinations(sample, 2):
            assert is_isomorphic(g, h) == is_isomorphic(h, g) == is_isomorphic_reference(g, h)


class TestCanonicalForm:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)])
    def test_class_counts(self, n, count):
        # OEIS A000088, the empty graph included
        forms = {canonical_form(g)[0] for g in enumerate_labeled_graphs(n)}
        assert len(forms) == count

    def test_partition_matches_reference_search(self):
        for n in range(1, 6):
            by_form, by_reference = {}, []
            for g in enumerate_labeled_graphs(n):
                by_form.setdefault(canonical_form(g)[0], set()).add(g)
                for rep, members in by_reference:
                    if is_isomorphic_reference(rep, g):
                        members.add(g)
                        break
                else:
                    by_reference.append((g, {g}))
            assert {frozenset(m) for m in by_form.values()} == {
                frozenset(m) for _, m in by_reference
            }

    def test_invariant_under_relabeling(self):
        rng = random.Random(20261018)
        for n in range(1, DEFAULT_ISO_LIMIT + 1):
            for _ in range(6):
                g = random_graph(rng, n)
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_form(relabel(g, perm))[0] == canonical_form(g)[0]

    def test_returned_permutation_gives_the_form(self):
        rng = random.Random(7)
        graphs = [random_graph(rng, n) for n in range(1, DEFAULT_ISO_LIMIT + 1) for _ in range(4)]
        graphs += [cycle_graph(4), paw(), complete_graph(5), Graph(3, frozenset())]
        for g in graphs:
            form, perm = canonical_form(g)
            assert sorted(perm) == list(range(g.n))
            assert relabel(g, perm) == form

    def test_form_has_the_least_census_mask(self):
        # the census enumerates bitmasks ascending, so a class's first member
        # is its canonical form
        seen = set()
        for g in enumerate_labeled_graphs(4):
            form = canonical_form(g)[0]
            assert (form == g) == (form not in seen)
            seen.add(form)

    def test_relabelings_share_one_form(self):
        g = relabel(paw(), [2, 0, 3, 1])
        h = relabel(paw(), [1, 3, 0, 2])
        assert g != h
        form, perm = canonical_form(g)
        assert canonical_form(h)[0] is form
        assert canonical_form(g)[1] is perm

    def test_beyond_the_limit_is_the_identity(self):
        g = relabel(path_graph(DEFAULT_ISO_LIMIT + 1), [3, 0, 8, 1, 7, 2, 6, 4, 5])
        assert canonical_form(g) == (g, tuple(range(g.n)))


class TestCensus:
    @pytest.mark.parametrize("n,count", [(2, 2), (3, 8), (5, 1024)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_labeled_graphs(n)) == count

    def test_distinct_and_deterministic(self):
        first = list(enumerate_labeled_graphs(4))
        second = list(enumerate_labeled_graphs(4))
        assert first == second
        assert len(set(first)) == len(first)

    def test_limit(self):
        with pytest.raises(ValueError):
            list(enumerate_labeled_graphs(7))


class TestGraph6:
    # frozen reference encodings (standard graph6, cross-checked externally)
    @pytest.mark.parametrize(
        "graph,code",
        [
            (complete_graph(4), "C~"),
            (cycle_graph(4), "Cl"),
            (cycle_graph(5), "Dhc"),
            (path_graph(4), "Ch"),
            (matching_graph(2), "C`"),
            (Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), "Cs"),
        ],
    )
    def test_known_codes(self, graph, code):
        assert to_graph6(graph) == code
        assert from_graph6(code) == graph

    def test_round_trip_census(self):
        for n in range(1, 6):
            for g in enumerate_labeled_graphs(n):
                assert from_graph6(to_graph6(g)) == g

    def test_header_accepted(self):
        assert from_graph6(">>graph6<<Cl") == cycle_graph(4)

    def test_rejects_bad_bytes(self):
        with pytest.raises(ValueError):
            from_graph6("C\x1f")
        with pytest.raises(ValueError):
            from_graph6("~??")  # extended format

    def test_rejects_bad_length_and_padding(self):
        with pytest.raises(ValueError):
            from_graph6("C")  # missing body
        with pytest.raises(ValueError):
            from_graph6("Cll")  # extra body
        # n=2: one adjacency bit, five padding bits must be zero
        with pytest.raises(ValueError):
            from_graph6(chr(2 + 63) + chr(0b011111 + 63))


class TestEdgeListFormat:
    def test_round_trip(self):
        g = paw()
        assert parse_edge_list(format_edge_list(g)) == g

    def test_parse(self):
        g = parse_edge_list("4 4\n1 2\n2 3\n3 4\n4 1\n")
        assert g == cycle_graph(4)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "4\n1 2",
            "4 1\n1 1",  # loop
            "4 2\n1 2\n2 1",  # duplicate
            "4 1\n1 5",  # out of range
            "4 2\n1 2",  # count mismatch
            "4 1\na b",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_edge_list(text)
