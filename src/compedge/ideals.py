"""Monomial ideals with canonical minimal generating sets.

Every ideal is stored as its unique minimal generating set, sorted by
(total degree, lex on exponent vectors), so equality of ideals is equality
of generator sequences.  The zero ideal has no generators, the unit ideal
has the single generator 1.  All operations are pure.

One helper, :func:`_generated_by`, builds every generating set: ``ideal``,
products, intersections, colons, localizations, graded components and prime
powers all hand it their candidate exponent vectors.  Products,
intersections and colons form those candidates by broadcasting over
:meth:`MonomialIdeal.exponent_matrix`.

The oracles that scan the divisor box of an ideal all read one table,
:func:`divisor_counts`, the number of minimal generators dividing each box
monomial.

Squarefree generating sets held as vertex bitmasks, many at once, are
minimalized by :func:`minimal_supports` into one boolean table; minimal
primes are minimal transversals of the same bitmasks.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import Graph
from .monomials import Monomial, one, x_of_set


class LimitExceededError(RuntimeError):
    """A configured search-space or resource limit was exceeded."""


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal in ``ambient`` variables, canonically presented.

    Construct through :func:`ideal` (or the specific builders below) so the
    generators are minimalized and sorted; the raw constructor trusts its
    input.
    """

    ambient: int
    generators: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        if self.ambient < 1:
            raise ValueError("ambient must be positive")
        for g in self.generators:
            if g.ambient != self.ambient:
                raise ValueError(
                    f"generator {g} has ambient {g.ambient}, ideal has {self.ambient}"
                )

    @property
    def is_zero(self) -> bool:
        return len(self.generators) == 0

    @property
    def is_unit(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].is_one

    @property
    def is_proper(self) -> bool:
        return not self.is_zero and not self.is_unit

    @property
    def support(self) -> frozenset[int]:
        out: set[int] = set()
        for g in self.generators:
            out.update(g.support)
        return frozenset(out)

    @property
    def is_squarefree(self) -> bool:
        return all(g.is_squarefree for g in self.generators)

    @property
    def indeg(self) -> int:
        """Least degree of a generator; the zero ideal has no initial degree."""
        if self.is_zero:
            raise ValueError("zero ideal has no initial degree")
        return self.generators[0].degree

    @property
    def maxdeg(self) -> int:
        if self.is_zero:
            raise ValueError("zero ideal has no generator degrees")
        return self.generators[-1].degree

    def mu(self, j: int) -> int:
        """Number of minimal generators of total degree j."""
        return sum(1 for g in self.generators if g.degree == j)

    def generator_degrees(self) -> tuple[int, ...]:
        return tuple(sorted({g.degree for g in self.generators}))

    def contains(self, u: Monomial) -> bool:
        """Membership: true iff some minimal generator divides u."""
        if u.ambient != self.ambient:
            raise ValueError(f"ambient mismatch: {u.ambient} vs {self.ambient}")
        return any(g.divides(u) for g in self.generators)

    def __contains__(self, u: Monomial) -> bool:
        return self.contains(u)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        """True iff other is a subideal, i.e. every generator of other lies here."""
        return all(self.contains(g) for g in other.generators)

    def lcm_of_generators(self) -> Monomial:
        if self.is_zero:
            raise ValueError("zero ideal has no generators")
        return Monomial(tuple(map(max, zip(*(g.exponents for g in self.generators)))))

    def exponent_matrix(self) -> np.ndarray:
        """Generators as an (m, ambient) int array, in canonical order."""
        if self.is_zero:
            return np.zeros((0, self.ambient), dtype=np.int64)
        return np.array([g.exponents for g in self.generators], dtype=np.int64)

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.generators) + ")"

    def to_json_dict(self) -> dict:
        return {
            "ambient": self.ambient,
            "generators": [list(g.exponents) for g in self.generators],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "MonomialIdeal":
        ambient = int(data["ambient"])
        gens = [Monomial(tuple(int(e) for e in row)) for row in data["generators"]]
        for g in gens:
            if g.ambient != ambient:
                raise ValueError("generator length does not match ambient")
        return ideal(gens, ambient)


# ---------------------------------------------------------------------------
# construction


def _generated_by(ambient: int, vectors: Iterable[tuple[int, ...]]) -> MonomialIdeal:
    """The ideal generated by exponent vectors, canonically presented.

    Every generating set is built here: dedupe, sort by (degree, lex), drop
    the vectors that another one divides.  Distinct vectors of one degree
    never divide each other, so an equigenerated set needs no dominance pass.
    """
    uniq = sorted(set(vectors), key=lambda t: (sum(t), t))
    if uniq and sum(uniq[0]) != sum(uniq[-1]):
        arr = np.array(uniq, dtype=np.int64)
        divides = (arr[:, None, :] <= arr[None, :, :]).all(axis=2)
        np.fill_diagonal(divides, False)
        uniq = [t for t, dominated in zip(uniq, divides.any(axis=0)) if not dominated]
    return MonomialIdeal(ambient, tuple(Monomial(t) for t in uniq))


def ideal(gens: Iterable[Monomial], ambient: int | None = None) -> MonomialIdeal:
    """Minimalize a generating set: drop strict multiples, dedupe, sort."""
    gens = list(gens)
    if ambient is None:
        if not gens:
            raise ValueError("ambient required for an empty generating set")
        ambient = gens[0].ambient
    for g in gens:
        if g.ambient != ambient:
            raise ValueError(f"ambient mismatch: {g.ambient} vs {ambient}")
    return _generated_by(ambient, (g.exponents for g in gens))


def zero_ideal(ambient: int) -> MonomialIdeal:
    return MonomialIdeal(ambient, ())


def unit_ideal(ambient: int) -> MonomialIdeal:
    return MonomialIdeal(ambient, (one(ambient),))


def parse_ideal(text: str, ambient: int) -> MonomialIdeal:
    """Parse ``(x1*x2, x3)`` / ``(0)`` / ``(1)`` using the monomial syntax."""
    from .monomials import parse_monomial

    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    body = body.strip()
    if body == "0" or body == "":
        return zero_ideal(ambient)
    return ideal([parse_monomial(part, ambient) for part in body.split(",")], ambient)


# ---------------------------------------------------------------------------
# closure operations


def multiply(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """Product ideal, generated by the pairwise products, minimalized."""
    if I.ambient != J.ambient:
        raise ValueError("ambient mismatch")
    A, B = I.exponent_matrix(), J.exponent_matrix()
    prods = (A[:, None, :] + B[None, :, :]).reshape(-1, I.ambient)
    return _generated_by(I.ambient, map(tuple, prods.tolist()))


def power(I: MonomialIdeal, k: int) -> MonomialIdeal:
    """k-th power by iterated products, minimalizing after every step."""
    if k < 0:
        raise ValueError("power exponent must be nonnegative")
    if k == 0:
        return unit_ideal(I.ambient)
    out = I
    for _ in range(k - 1):
        out = multiply(out, I)
    return out


def intersect(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """Intersection, generated by the pairwise lcms, minimalized."""
    if I.ambient != J.ambient:
        raise ValueError("ambient mismatch")
    A, B = I.exponent_matrix(), J.exponent_matrix()
    meets = np.maximum(A[:, None, :], B[None, :, :]).reshape(-1, I.ambient)
    return _generated_by(I.ambient, map(tuple, meets.tolist()))


def colon(I: MonomialIdeal, u: Monomial) -> MonomialIdeal:
    """Colon ideal I : u, generated by g / gcd(g, u)."""
    if u.ambient != I.ambient:
        raise ValueError("ambient mismatch")
    quots = np.maximum(I.exponent_matrix() - np.array(u.exponents), 0)
    return _generated_by(I.ambient, map(tuple, quots.tolist()))


def colon_ideal(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """Colon by an ideal: the intersection of I : v over generators v of J."""
    if I.ambient != J.ambient:
        raise ValueError("ambient mismatch")
    if J.is_zero:
        return unit_ideal(I.ambient)
    out = colon(I, J.generators[0])
    for v in J.generators[1:]:
        out = intersect(out, colon(I, v))
    return out


def localize(I: MonomialIdeal, F: Iterable[int]) -> MonomialIdeal:
    """Monomial localization: substitute 1 for every variable outside F.

    The result lives in a fresh ambient of size |F|; new variable k stands
    for ``sorted(F)[k]``, the order-preserving index map.
    """
    fs = sorted(set(F))
    if not fs:
        raise ValueError("localization needs a nonempty variable subset")
    if fs[0] < 0 or fs[-1] >= I.ambient:
        raise ValueError(f"variables {fs} out of range for ambient {I.ambient}")
    return _generated_by(
        len(fs), (tuple(g.exponents[i] for i in fs) for g in I.generators)
    )


def graded_component(I: MonomialIdeal, j: int) -> MonomialIdeal:
    """The ideal generated by all degree-j monomials of I."""
    if j < 0:
        raise ValueError("degree must be nonnegative")
    if I.is_zero or j < I.indeg:
        return zero_ideal(I.ambient)
    gens = []
    for g in I.generators:
        d = j - g.degree
        if d < 0:
            continue
        for combo in itertools.combinations_with_replacement(range(I.ambient), d):
            exps = list(g.exponents)
            for i in combo:
                exps[i] += 1
            gens.append(tuple(exps))
    return _generated_by(I.ambient, gens)


# ---------------------------------------------------------------------------
# graphs <-> ideals


def complementary_edge_ideal(g: Graph) -> MonomialIdeal:
    """The ideal generated by (x_1...x_n)/(x_i x_j) over the edges {i,j}."""
    n = g.n
    gens = [x_of_set(set(range(n)) - {i, j}, n) for i, j in sorted(g.edges)]
    if not gens:
        return zero_ideal(n)
    return ideal(gens, n)


def edge_ideal(g: Graph) -> MonomialIdeal:
    """The ideal generated by x_i x_j over the edges {i,j}."""
    gens = [x_of_set({i, j}, g.n) for i, j in sorted(g.edges)]
    if not gens:
        return zero_ideal(g.n)
    return ideal(gens, g.n)


class BigDegreeCase(enum.Enum):
    """Trichotomy for squarefree ideals generated in degrees >= n-2."""

    COMPLEMENTARY_EDGE = "complementary-edge"
    MATROIDAL_VERONESE = "matroidal-veronese"
    MIXED = "mixed"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class CaseClassification:
    case: BigDegreeCase
    ambient: int
    graph: Graph | None = None
    degree_n1_vars: frozenset[int] = frozenset()
    veronese_degree: int | None = None

    @property
    def applicable(self) -> bool:
        return self.case is not BigDegreeCase.NOT_APPLICABLE


def _graph_from_degree_n2_gens(
    gens: Sequence[Monomial], n: int
) -> Graph:
    full = frozenset(range(n))
    edges = []
    for g in gens:
        missing = sorted(full - g.support)
        if len(missing) != 2:
            raise ValueError(f"generator {g} does not omit exactly two variables")
        edges.append((missing[0], missing[1]))
    return Graph(n, frozenset(edges))


def classify_big_degree(I: MonomialIdeal) -> CaseClassification:
    """Sort a squarefree ideal generated in degrees >= n-2 into its case.

    n is the ambient variable count, so that a degree-(n-2) squarefree
    generator omits exactly two variables and the graph reconstruction
    I = I_c(G) is the literal inverse of the defining substitution.
    """
    if not I.is_squarefree:
        raise ValueError("classification requires a squarefree ideal")
    n = I.ambient
    if not I.is_proper:
        return CaseClassification(BigDegreeCase.NOT_APPLICABLE, n)
    degs = I.generator_degrees()
    if any(d < n - 2 for d in degs):
        return CaseClassification(BigDegreeCase.NOT_APPLICABLE, n)
    if degs == (n - 2,):
        g = _graph_from_degree_n2_gens(I.generators, n)
        if complementary_edge_ideal(g) != I:
            raise ValueError("reconstruction mismatch: ideal is not I_c of its graph")
        return CaseClassification(BigDegreeCase.COMPLEMENTARY_EDGE, n, graph=g)
    if degs == (n - 1,) or degs == (n,):
        return CaseClassification(
            BigDegreeCase.MATROIDAL_VERONESE, n, veronese_degree=degs[0]
        )
    if degs == (n - 2, n - 1):
        small = [g for g in I.generators if g.degree == n - 2]
        big = [g for g in I.generators if g.degree == n - 1]
        graph = _graph_from_degree_n2_gens(small, n)
        iso_vars = set()
        for g in big:
            missing = sorted(frozenset(range(n)) - g.support)
            i = missing[0]
            if not graph.is_isolated(i):
                raise ValueError(
                    f"degree n-1 generator {g} misses non-isolated vertex {i + 1}"
                )
            iso_vars.add(i)
        return CaseClassification(
            BigDegreeCase.MIXED, n, graph=graph, degree_n1_vars=frozenset(iso_vars)
        )
    return CaseClassification(BigDegreeCase.NOT_APPLICABLE, n)


# ---------------------------------------------------------------------------
# primes and symbolic powers


def minimal_supports(supports: np.ndarray, present: np.ndarray, n: int) -> np.ndarray:
    """Row-wise minimal supports, as a boolean table.

    ``supports`` is an (R, K) integer array of vertex bitmasks over n
    vertices and ``present`` an (R, K) boolean array marking the ones row r
    holds.  Entry (r, s) of the (R, 2^n) result is true iff row r holds s
    and no support it holds is a proper subset of s: the supports of the
    minimal generators of the squarefree ideal that row r generates.
    """
    outer = supports[:, :, None]
    inner = supports[:, None, :]
    below = present[:, None, :] & ((inner & ~outer) == 0) & (inner != outer)
    keep = present & ~below.any(axis=2)
    rows = np.broadcast_to(np.arange(supports.shape[0])[:, None], supports.shape)
    table = np.zeros((supports.shape[0], 1 << n), dtype=bool)
    table[rows[keep], supports[keep]] = True
    return table


def minimal_primes_squarefree(I: MonomialIdeal) -> set[frozenset[int]]:
    """Minimal primes of a squarefree ideal: minimal transversals of the
    generator supports, found by enumerating the subsets of supp(I).

    Transversals are closed upward, so a transversal is minimal exactly
    when dropping any one of its elements leaves a non-transversal.
    """
    if not I.is_squarefree:
        raise ValueError("minimal primes via transversals requires squarefree input")
    if not I.is_proper:
        raise ValueError("zero and unit ideals have no associated primes here")
    held = I.exponent_matrix() > 0
    universe = np.flatnonzero(held.any(axis=0)).tolist()
    # subset t of the support, bit p standing for universe[p]
    drop = 1 << np.arange(len(universe))
    gens = held[:, universe] @ drop
    t = np.arange(1 << len(universe))[:, None]
    transversal = ((t & gens) != 0).all(axis=1)
    minimal = transversal & (((t & drop) == 0) | ~transversal[t & ~drop]).all(axis=1)
    return {
        frozenset(v for p, v in enumerate(universe) if m >> p & 1)
        for m in np.flatnonzero(minimal).tolist()
    }


def prime_power(F: Iterable[int], k: int, ambient: int) -> MonomialIdeal:
    """P_F^k: all monomials of degree k in the variables of F."""
    fs = sorted(set(F))
    if not fs:
        raise ValueError("prime needs a nonempty variable set")
    if k < 1:
        raise ValueError("power must be positive")
    gens = []
    for combo in itertools.combinations_with_replacement(fs, k):
        exps = [0] * ambient
        for i in combo:
            exps[i] += 1
        gens.append(tuple(exps))
    return _generated_by(ambient, gens)


def symbolic_power(I: MonomialIdeal, k: int) -> MonomialIdeal:
    """k-th symbolic power of a squarefree ideal: the intersection of P_F^k
    over the minimal primes F (squarefree ideals have no embedded primes)."""
    if k < 1:
        raise ValueError("symbolic power needs k >= 1")
    if not I.is_squarefree or not I.is_proper:
        raise ValueError("symbolic power implemented for proper squarefree ideals")
    primes = sorted(minimal_primes_squarefree(I), key=lambda F: (len(F), sorted(F)))
    out: MonomialIdeal | None = None
    for F in primes:
        pk = prime_power(F, k, I.ambient)
        out = pk if out is None else intersect(out, pk)
    assert out is not None
    return out


# ---------------------------------------------------------------------------
# the divisor-count table, read by every box-scanning oracle


def divisor_counts(
    I: MonomialIdeal, bound: Monomial, cell_limit: int | None = None
) -> np.ndarray:
    """Divisor-count table of I over the divisor box of ``bound``.

    Returns an unsigned int array of shape (bound_1+1, ..., bound_n+1) whose
    cell at index a counts the minimal generators of I that divide x^a.
    Each generator inside the box is added at its own cell, and one
    cumulative sum per axis carries it to every cell above it.  Membership
    of x^a in I is ``C[a] > 0``; the witness scans and the lcm lattice read
    the same table.  A box of more than ``cell_limit`` cells raises
    :class:`LimitExceededError` before anything is allocated.
    """
    if bound.ambient != I.ambient:
        raise ValueError("ambient mismatch")
    shape = tuple(e + 1 for e in bound.exponents)
    cells = math.prod(shape)
    if cell_limit is not None and cells > cell_limit:
        raise LimitExceededError(f"divisor box has {cells} cells, limit {cell_limit}")
    # no cell counts more than every generator
    dtype = np.min_scalar_type(len(I.generators))
    counts = np.zeros(shape, dtype=dtype)
    gens = I.exponent_matrix()
    inside = gens[(gens <= np.array(bound.exponents)).all(axis=1)]
    np.add.at(counts, tuple(inside.T), 1)
    for axis in range(counts.ndim):
        np.cumsum(counts, axis=axis, dtype=dtype, out=counts)
    return counts


def membership_box(I: MonomialIdeal, bound: Monomial) -> np.ndarray:
    """Boolean table over the divisor box of ``bound``: is x^u in I."""
    return divisor_counts(I, bound) > 0
