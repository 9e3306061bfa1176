import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "compedge",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
settings.load_profile("compedge")


@pytest.fixture(scope="session")
def edged_census():
    """All labeled graphs with at least one edge, per vertex count 3..5."""
    from compedge.graphs import enumerate_labeled_graphs

    return {
        n: [g for g in enumerate_labeled_graphs(n) if g.edges] for n in (3, 4, 5)
    }


@pytest.fixture(scope="session")
def edged_classes():
    """The canonical form of every isomorphism class with an edge, per
    vertex count 3..6, in census order of first appearance."""
    from compedge.graphs import canonical_form, enumerate_labeled_graphs

    return {
        n: list(dict.fromkeys(canonical_form(g)[0] for g in enumerate_labeled_graphs(n) if g.edges))
        for n in (3, 4, 5, 6)
    }


@pytest.fixture(scope="session")
def random_ideals():
    """A function giving ``count`` seeded random proper ideals in at most
    n_max variables with exponents at most e_max."""
    from compedge.ideals import ideal
    from compedge.monomials import Monomial

    def make(rng, count, n_max=5, e_max=3):
        out = []
        while len(out) < count:
            n = rng.randint(1, n_max)
            gens = [
                Monomial(tuple(rng.randint(0, e_max) for _ in range(n)))
                for _ in range(rng.randint(1, 6))
            ]
            I = ideal(gens, n)
            if I.is_proper:
                out.append(I)
        return out

    return make


@pytest.fixture(scope="session")
def mixed_family(edged_census):
    """The mixed-degree ideals: I_c(G) plus x_[n]/x_i over the isolated
    vertices i, for every census graph having some edge and some isolated
    vertex."""
    from compedge.ideals import complementary_edge_ideal, ideal
    from compedge.monomials import x_of_set

    out = []
    for n in (3, 4, 5):
        for g in edged_census[n]:
            iso = g.isolated_vertices
            if not iso:
                continue
            gens = list(complementary_edge_ideal(g).generators)
            gens += [x_of_set(set(range(n)) - {i}, n) for i in sorted(iso)]
            out.append((g, ideal(gens, n)))
    return out


@pytest.fixture(scope="session")
def localization_graphs(edged_census):
    """Graphs for the localization-table differential tests: the n <= 5
    census, every 16th labeled graph with an edge at n = 6, K7, C7, P7 and
    small graphs padded with isolated vertices."""
    from compedge.graphs import (
        complete_graph,
        cycle_graph,
        enumerate_labeled_graphs,
        matching_graph,
        path_graph,
        with_isolated,
    )

    graphs = [g for n in (3, 4, 5) for g in edged_census[n]]
    graphs += [g for g in enumerate_labeled_graphs(6) if g.edges][::16]
    graphs += [complete_graph(7), cycle_graph(7), path_graph(7)]
    graphs += [
        with_isolated(h, count)
        for h in (matching_graph(1), path_graph(3), complete_graph(3), cycle_graph(4))
        for count in (1, 2, 3)
    ]
    return graphs
