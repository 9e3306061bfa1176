"""Finite simple graphs on labeled vertices, their small invariants, and I/O.

Vertices are 0-based integers 0..n-1 everywhere in code; the two text
formats (graph6, edge lists) and report output are 1-based, matching the
usual convention for vertex sets written as [n].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

DEFAULT_CENSUS_LIMIT = 6
DEFAULT_ISO_LIMIT = 8


def _normalize_edge(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Graph:
    """A finite simple graph: vertex count plus a set of unordered edges."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if not isinstance(self.edges, frozenset):
            object.__setattr__(self, "edges", frozenset(self.edges))
        for e in self.edges:
            i, j = e
            if i == j:
                raise ValueError(f"loop at vertex {i}")
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge {e} not a sorted pair inside range(0, {self.n})")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build from 0-based endpoint pairs in either order."""
        return Graph(n, frozenset(_normalize_edge(i, j) for i, j in edges))

    def has_edge(self, i: int, j: int) -> bool:
        return _normalize_edge(i, j) in self.edges

    def degree(self, i: int) -> int:
        return sum(1 for e in self.edges if i in e)

    def is_isolated(self, i: int) -> bool:
        return all(i not in e for e in self.edges)

    @property
    def isolated_vertices(self) -> frozenset[int]:
        touched = {v for e in self.edges for v in e}
        return frozenset(v for v in range(self.n) if v not in touched)

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges as sorted 1-based pairs, for display and serialization."""
        return [(i + 1, j + 1) for i, j in sorted(self.edges)]

    def __str__(self) -> str:
        es = ", ".join(f"{{{i},{j}}}" for i, j in self.edge_list())
        return f"Graph(n={self.n}, edges=[{es}])"


# ---------------------------------------------------------------------------
# standard families


def complete_graph(n: int) -> Graph:
    """K_n."""
    if n < 1:
        raise ValueError("K_n needs n >= 1")
    return Graph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def path_graph(n: int) -> Graph:
    """P_n, edges {i, i+1}."""
    if n < 1:
        raise ValueError("P_n needs n >= 1")
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    """C_n, the path closed up with the edge {n, 1}."""
    if n < 3:
        raise ValueError("C_n needs n >= 3")
    edges = {(i, i + 1) for i in range(n - 1)}
    edges.add((0, n - 1))
    return Graph(n, frozenset(edges))


def matching_graph(t: int) -> Graph:
    """tK_2: t disjoint edges on 2t vertices."""
    if t < 1:
        raise ValueError("tK_2 needs t >= 1")
    return Graph(2 * t, frozenset((2 * i, 2 * i + 1) for i in range(t)))


def with_isolated(g: Graph, count: int) -> Graph:
    """Append ``count`` isolated vertices after the existing ones."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return Graph(g.n + count, g.edges)


# ---------------------------------------------------------------------------
# components, bipartiteness, complement, triangles


@dataclass(frozen=True)
class ComponentSummary:
    """Connected components with the bipartite bookkeeping used throughout.

    b counts bipartite components including isolated vertices, b_tilde only
    those with more than one vertex, c the components with more than one
    vertex regardless of bipartiteness.
    """

    components: tuple[frozenset[int], ...]
    b: int
    b_tilde: int
    c: int
    isolated: frozenset[int]


@lru_cache(maxsize=1 << 12)
def component_summary(g: Graph) -> ComponentSummary:
    """Components by graph search; bipartite means 2-colorable.  Graphs and
    summaries are frozen, so every closed form shares one summary per graph."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * g.n
    comps: list[frozenset[int]] = []
    bipartite_flags: list[bool] = []
    for start in range(g.n):
        if seen[start]:
            continue
        color = {start: 0}
        seen[start] = True
        queue = [start]
        bipartite = True
        members = [start]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    seen[w] = True
                    members.append(w)
                    queue.append(w)
                elif color[w] == color[v]:
                    bipartite = False
        comps.append(frozenset(members))
        bipartite_flags.append(bipartite)
    isolated = frozenset(v for comp in comps if len(comp) == 1 for v in comp)
    b = sum(1 for f in bipartite_flags if f)
    b_tilde = sum(
        1 for comp, f in zip(comps, bipartite_flags) if f and len(comp) > 1
    )
    c = sum(1 for comp in comps if len(comp) > 1)
    return ComponentSummary(tuple(comps), b, b_tilde, c, isolated)


def neighbour_masks(g: Graph) -> list[int]:
    """Per vertex i, the bitmask of its neighbours: bit j is set when {i, j}
    is an edge."""
    adj = [0] * g.n
    for i, j in g.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def vertex_set(mask: int) -> frozenset[int]:
    """The vertices whose bits are set in ``mask``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``vertices``, relabeled onto 0..|F|-1.

    Returns the subgraph together with the order-preserving map back: entry
    k of the returned tuple is the original label of new vertex k.
    """
    vs = sorted(set(vertices))
    if not vs:
        raise ValueError("vertex subset must be nonempty")
    if vs[0] < 0 or vs[-1] >= g.n:
        raise ValueError(f"vertices {vs} out of range for n={g.n}")
    index = {v: k for k, v in enumerate(vs)}
    edges = frozenset(
        (index[i], index[j]) for i, j in g.edges if i in index and j in index
    )
    return Graph(len(vs), edges), tuple(vs)


def complement(g: Graph) -> Graph:
    """Complement on the same vertex set."""
    all_pairs = {(i, j) for i in range(g.n) for j in range(i + 1, g.n)}
    return Graph(g.n, frozenset(all_pairs - g.edges))


def triangles(g: Graph) -> set[frozenset[int]]:
    """All 3-subsets of vertices that are pairwise adjacent."""
    out = set()
    for i, j, k in itertools.combinations(range(g.n), 3):
        if g.has_edge(i, j) and g.has_edge(i, k) and g.has_edge(j, k):
            out.add(frozenset((i, j, k)))
    return out


# ---------------------------------------------------------------------------
# isomorphism and enumeration


@lru_cache(maxsize=None)
def _relabel_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every permutation of range(n), one per row; and per pair index, one
    contiguous row giving, per permutation, the edge bit that pair is sent to."""
    pairs = np.array(_pair_order(n), dtype=np.int64).reshape(-1, 2)
    index = np.zeros((n, n), dtype=np.int64)
    index[pairs[:, 0], pairs[:, 1]] = index[pairs[:, 1], pairs[:, 0]] = np.arange(len(pairs))
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    bits = np.int64(1) << index[perms[:, pairs[:, 0]], perms[:, pairs[:, 1]]]
    return perms, np.ascontiguousarray(bits.T)


@lru_cache(maxsize=None)
def _pair_bits(n: int) -> dict[tuple[int, int], int]:
    """The census bit of each pair (i, j), i < j: its index in the graph6 order."""
    return {pair: k for k, pair in enumerate(_pair_order(n))}


def canonical_form(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """The relabeling of g with the least edge bitmask, and the permutation
    that gives it: vertex i of g becomes vertex perm[i].

    The bitmask is the census one (bit k for the k-th pair of the graph6
    order), minimized over all n! relabelings at once: each edge adds its
    pair's row of edge bits.  Isomorphic graphs get the same canonical
    graph, one shared object per class, and every permutation is one shared
    tuple, so a call builds neither.  Above ``DEFAULT_ISO_LIMIT`` vertices g
    is returned as it is, with the identity.
    """
    if g.n > DEFAULT_ISO_LIMIT:
        return g, tuple(range(g.n))
    _, bits = _relabel_table(g.n)
    pair_bits = _pair_bits(g.n)
    masks = bits.take([pair_bits[e] for e in g.edges], axis=0).sum(axis=0)
    row = int(masks.argmin())
    return _mask_graph(g.n, int(masks[row])), _table_perm(g.n, row)


# Both caches are bounded by the isomorphism limit: at most one entry per
# class, and per permutation, on at most DEFAULT_ISO_LIMIT vertices.
@lru_cache(maxsize=None)
def _mask_graph(n: int, mask: int) -> Graph:
    """The graph on n vertices with the census edge bitmask ``mask``."""
    return Graph(n, frozenset(p for k, p in enumerate(_pair_order(n)) if mask >> k & 1))


@lru_cache(maxsize=None)
def _table_perm(n: int, row: int) -> tuple[int, ...]:
    """Row ``row`` of the permutations of :func:`_relabel_table`."""
    return tuple(_relabel_table(n)[0][row].tolist())


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Equal canonical forms, on at most ``DEFAULT_ISO_LIMIT`` vertices."""
    if g.n > DEFAULT_ISO_LIMIT or h.n > DEFAULT_ISO_LIMIT:
        raise ValueError(f"isomorphism test limited to n <= {DEFAULT_ISO_LIMIT}")
    return g.n == h.n and canonical_form(g)[0] == canonical_form(h)[0]


def _pair_order(n: int) -> list[tuple[int, int]]:
    """Upper-triangle pairs column by column: (0,1),(0,2),(1,2),(0,3),..."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^(n(n-1)/2) labeled graphs on n vertices, bitmask ascending, for
    n up to ``DEFAULT_CENSUS_LIMIT``.

    Bit k of the mask toggles the k-th pair in column-major upper-triangle
    order, the same order used by the graph6 encoding.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > DEFAULT_CENSUS_LIMIT:
        raise ValueError(f"census limited to n <= {DEFAULT_CENSUS_LIMIT}")
    pairs = _pair_order(n)
    for mask in range(1 << len(pairs)):
        edges = frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)
        yield Graph(n, edges)


# ---------------------------------------------------------------------------
# graph6 (n <= 62 only) and edge-list text formats


def to_graph6(g: Graph) -> str:
    """Encode as graph6: byte n+63, then the upper-triangle bits, 6 per byte."""
    if g.n > 62:
        raise ValueError("graph6 writer supports n <= 62 only")
    pair_bits = _pair_bits(g.n)
    mask = 0
    for e in g.edges:
        mask |= 1 << pair_bits[e]
    body = (_GRAPH6_CHARS[mask >> k & 63] for k in range(0, len(pair_bits), 6))
    return chr(g.n + 63) + "".join(body)


# per 6-bit group of the census bitmask (pair k at bit k), its graph6 byte,
# which holds the group's first pair in its highest bit
_GRAPH6_CHARS = tuple(chr(int(f"{v:06b}"[::-1], 2) + 63) for v in range(64))


def from_graph6(text: str) -> Graph:
    """Decode a graph6 string; strict about length, padding, and byte range."""
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<") :]
    if not text:
        raise ValueError("empty graph6 string")
    codes = [ord(ch) for ch in text]
    if any(c < 63 or c > 126 for c in codes):
        raise ValueError("graph6 bytes must lie in [63, 126]")
    n = codes[0] - 63
    if n == 63:
        raise ValueError("graph6 extended (n > 62) encodings are not supported")
    if n < 1:
        raise ValueError("graph6 graph needs at least one vertex")
    npairs = n * (n - 1) // 2
    expected = (npairs + 5) // 6
    body = codes[1:]
    if len(body) != expected:
        raise ValueError(
            f"graph6 body has {len(body)} bytes, expected {expected} for n={n}"
        )
    bits: list[int] = []
    for c in body:
        val = c - 63
        bits.extend(val >> (5 - t) & 1 for t in range(6))
    if any(bits[npairs:]):
        raise ValueError("graph6 padding bits must be zero")
    pairs = _pair_order(n)
    edges = frozenset(p for k, p in enumerate(pairs) if bits[k])
    return Graph(n, edges)


def parse_edge_list(text: str) -> Graph:
    """Parse the plain text format: a header line ``n <count>`` then one
    1-based ``i j`` pair per line."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"header must be 'n <count>', got {lines[0]!r}")
    try:
        n, count = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError(f"bad header {lines[0]!r}") from exc
    if n < 1:
        raise ValueError("need n >= 1")
    if len(lines) - 1 != count:
        raise ValueError(f"expected {count} edge lines, found {len(lines) - 1}")
    edges: set[tuple[int, int]] = set()
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        try:
            i, j = int(toks[0]), int(toks[1])
        except ValueError as exc:
            raise ValueError(f"bad edge line {ln!r}") from exc
        if i == j:
            raise ValueError(f"loop edge {i} {j}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge {i} {j} out of range 1..{n}")
        e = _normalize_edge(i - 1, j - 1)
        if e in edges:
            raise ValueError(f"duplicate edge {i} {j}")
        edges.add(e)
    return Graph(n, frozenset(edges))


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{i} {j}" for i, j in g.edge_list())
    return "\n".join(lines) + "\n"
