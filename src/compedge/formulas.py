"""Closed-form predictions for powers of complementary edge ideals.

Every function here is a direct transcription of a proved statement, with
the hypotheses (n >= 3, at least one edge) enforced at this boundary; the
ideal-level machinery tolerates the degenerate cases instead.  Brute-force
counterparts live in :mod:`compedge.verify`.

The statements about vertex subsets are computed on bitmasks, bit i for
vertex i: :func:`ass_infinity_masks` and :func:`ass_first_power_masks` walk
the subsets with integer bit operations and build no graph per subset, and
:func:`ass_infinity` and :func:`ass_first_power` give their results as
vertex sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .graphs import (
    Graph,
    canonical_form,
    complete_graph,
    component_summary,
    cycle_graph,
    induced_subgraph,
    matching_graph,
    neighbour_masks,
    path_graph,
    vertex_set,
)
from .ideals import BigDegreeCase, CaseClassification, minimal_supports


def _require_formula_hypotheses(g: Graph) -> None:
    if g.n < 3:
        raise ValueError("closed forms require at least 3 vertices")
    if not g.edges:
        raise ValueError("closed forms require at least one edge")


@dataclass(frozen=True)
class AssPrediction:
    """Stable associated primes of the powers, with entry-index bounds.

    ``entry_bounds`` carries max{1, |F|-2} per prime (1 for singletons).
    This is reported as a bound, not as the exact entry index: independent
    sets F of size >= 3 whose vertices all have outside neighbors enter one
    power later, at |F|-1.  ``astab_bound`` is n-2.
    """

    stable_set: frozenset[frozenset[int]]
    entry_bounds: dict[frozenset[int], int]
    astab_bound: int


def _entry_bound(size: int) -> int:
    """max{1, |F|-2} for a prime P_F with |F| = size."""
    return max(1, size - 2)


def _has_bipartite_edge_component(F: int, reach: list[int]) -> bool:
    """Whether G|_F has a bipartite component with an edge, where reach[S]
    is the set of neighbours in G of the vertex set S.

    From the least vertex v of each component in turn, E and O, the
    vertices reached from v by walks inside F of even and of odd length,
    grow to E = {v} + N(O), O = N(E).  The component is E | O, and it is
    bipartite exactly when E and O are disjoint.
    """
    rest = F
    while rest:
        even, odd = rest & -rest, 0
        while True:
            grown_odd = reach[even] & F
            grown_even = reach[grown_odd] & F | even
            if grown_odd == odd and grown_even == even:
                break
            even, odd = grown_even, grown_odd
        if odd and not even & odd:
            return True
        rest &= ~(even | odd)
    return False


def ass_infinity_masks(g: Graph) -> frozenset[int]:
    """The stable set of :func:`ass_infinity` as vertex bitmasks (bit i is
    vertex i), by one parity search per subset."""
    _require_formula_hypotheses(g)
    adj = neighbour_masks(g)
    reach = [0] * (1 << g.n)
    for S in range(1, 1 << g.n):
        low = S & -S
        reach[S] = reach[S ^ low] | adj[low.bit_length() - 1]
    touched = reach[-1]
    stable = {1 << i for i in range(g.n) if not touched >> i & 1}
    F = touched
    while F:
        if F & (F - 1) and not _has_bipartite_edge_component(F, reach):
            stable.add(F)
        F = (F - 1) & touched
    return frozenset(stable)


def ass_infinity(g: Graph) -> AssPrediction:
    """Stable set of associated primes of the powers of I_c(G).

    Isolated vertices split off as x_i^k factors, each contributing its
    singleton prime; the remaining primes are the subsets F of the
    non-isolated vertices, |F| > 1, whose induced subgraph has no bipartite
    connected component with more than one vertex.
    """
    stable = frozenset(map(vertex_set, ass_infinity_masks(g)))
    bounds = {F: _entry_bound(len(F)) for F in stable}
    return AssPrediction(stable, bounds, g.n - 2)


def ass_first_power_masks(g: Graph) -> frozenset[int]:
    """The primes of :func:`ass_first_power` as vertex bitmasks."""
    _require_formula_hypotheses(g)
    adj = neighbour_masks(g)
    out = {1 << i for i in range(g.n) if not adj[i]}
    for i, j in itertools.combinations([i for i in range(g.n) if adj[i]], 2):
        if not adj[i] >> j & 1:
            out.add(1 << i | 1 << j)
            continue
        # the third vertices k > j of the triangles on the edge {i, j}
        third = adj[i] & adj[j] & -(2 << j)
        while third:
            low = third & -third
            out.add(1 << i | 1 << j | low)
            third ^= low
    return frozenset(out)


def ass_first_power(g: Graph) -> set[frozenset[int]]:
    """Associated primes of I_c(G) itself.

    After peeling the isolated vertices (each gives its singleton), the
    primes of the rest are the non-edges and the triangles of the peeled
    graph, read in the original labels.
    """
    return set(map(vertex_set, ass_first_power_masks(g)))


def localization_table(g: Graph, masks) -> np.ndarray:
    """Monomial localizations of I_c(G), from the combinatorial side, one
    row per nonempty vertex subset F given as a bitmask in ``masks``.

    With A_F the vertices of F isolated inside G|_F but not in G, the
    localization at P_F is I_c(G|_F) + (x_F/x_i : i in A_F) whenever some
    edge of G meets F, and the principal ideal (x_F) otherwise.  These
    generators are squarefree, with supports F - e for the edges e inside F,
    F - {i} for i in A_F, or F.  Row r of the (len(masks), 2^n) boolean
    result marks the minimal ones, in the original vertex labels.
    """
    _require_formula_hypotheses(g)
    n = g.n
    F = np.asarray(masks, dtype=np.int64).reshape(-1, 1)
    if ((F < 1) | (F >= 1 << n)).any():
        raise ValueError(f"vertex subsets must be nonempty bitmasks below 2^{n}")
    edges = np.array([1 << i | 1 << j for i, j in g.edges], dtype=np.int64)
    bits = 1 << np.arange(n, dtype=np.int64)
    neighbours = np.array(neighbour_masks(g), dtype=np.int64)
    touched = int(np.bitwise_or.reduce(edges))
    in_a_f = ((F & bits & touched) != 0) & ((F & neighbours) == 0)
    supports = np.concatenate([F ^ edges, F ^ bits, F], axis=1)
    present = np.concatenate(
        [(F & edges) == edges, in_a_f, (F & touched) == 0], axis=1
    )
    return minimal_supports(supports, present, n)


def reg_closed_form(cls: CaseClassification, k: int) -> int:
    """Regularity of the k-th power, by classification case."""
    if k < 1:
        raise ValueError("power must be >= 1")
    n = cls.ambient
    if cls.case is BigDegreeCase.COMPLEMENTARY_EDGE:
        c = component_summary(cls.graph).c
        if k <= c - 2:
            return (n - 1) * k
        return (n - 2) * k + c - 1
    if cls.case is BigDegreeCase.MATROIDAL_VERONESE:
        return cls.veronese_degree * k
    if cls.case is BigDegreeCase.MIXED:
        return (n - 1) * k
    raise ValueError("no regularity formula for unclassified ideals")


def depth_and_dstab_closed_form(cls: CaseClassification) -> tuple[int, int]:
    """Stable depth of S/I^k and the bound on where it is reached.

    Pure complementary edge ideals stabilize at depth b(G) with index
    bound n-1; the mixed case stabilizes at b(G) minus the number of
    degree-(n-1) generators, with index bound n-2.  The matroidal case is
    background material and not covered here.
    """
    n = cls.ambient
    if n < 3:
        raise ValueError("depth formulas require ambient >= 3")
    if cls.case is BigDegreeCase.COMPLEMENTARY_EDGE:
        return component_summary(cls.graph).b, n - 1
    if cls.case is BigDegreeCase.MIXED:
        b = component_summary(cls.graph).b
        return b - len(cls.degree_n1_vars), n - 2
    raise ValueError("stable depth formula covers the graph-backed cases only")


def _is_tk2_without_isolated(g: Graph) -> bool:
    summary = component_summary(g)
    if summary.isolated:
        return False
    if any(len(comp) != 2 for comp in summary.components):
        return False
    return len(summary.components) >= 2


def v_closed_form(g: Graph, k: int) -> int:
    """v-number of I_c(G)^k: (n-2)k for a matching tK_2 with t >= 2 and no
    isolated vertices, (n-2)k - 1 in every other case."""
    _require_formula_hypotheses(g)
    if k < 1:
        raise ValueError("power must be >= 1")
    if _is_tk2_without_isolated(g):
        return (g.n - 2) * k
    return (g.n - 2) * k - 1


_SYMBOLIC_CLASS: list[Graph] = [
    canonical_form(h)[0]
    for h in (
        matching_graph(1),  # K_2
        complete_graph(3),
        path_graph(3),
        matching_graph(2),
        path_graph(4),
        cycle_graph(4),
    )
]


def symbolic_equals_ordinary_class(g: Graph) -> bool:
    """Whether all symbolic powers of I_c(G) are ordinary: the non-isolated
    part must be one of K_2, K_3, P_3, 2K_2, P_4, C_4."""
    _require_formula_hypotheses(g)
    non_iso = sorted(set(range(g.n)) - g.isolated_vertices)
    core, _ = induced_subgraph(g, non_iso)
    return canonical_form(core)[0] in _SYMBOLIC_CLASS


def linear_powers_predicate(cls: CaseClassification) -> bool:
    """Whether every power has linear quotients (equivalently is
    componentwise linear): automatic in the matroidal case, and otherwise
    exactly when the graph of the degree-(n-2) part is connected apart from
    isolated vertices (c(G) = 1)."""
    if cls.case is BigDegreeCase.MATROIDAL_VERONESE:
        return True
    if cls.case in (BigDegreeCase.COMPLEMENTARY_EDGE, BigDegreeCase.MIXED):
        return component_summary(cls.graph).c == 1
    raise ValueError("no linear-powers criterion for unclassified ideals")


def vstab(g: Graph) -> int:
    """Index from which the v-function is linear: always 1 here."""
    _require_formula_hypotheses(g)
    return 1
