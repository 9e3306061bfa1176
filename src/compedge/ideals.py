"""Monomial ideals held as their minimal exponent matrices.

An ideal's value is its unique minimal generating set, stored as one
read-only int64 matrix with a row per generator, sorted by (total degree,
lex on exponent vectors); equality and hashing compare that matrix.  The
zero ideal has no rows, the unit ideal the single zero row.  The generators
as :class:`~compedge.monomials.Monomial` values are built only when read.
All operations are pure.

One helper, :func:`_generated_by`, builds every generating set: ``ideal``,
graph ideals, products, intersections, colons, localizations, graded
components and prime powers all hand it their candidate exponent rows.
Products, intersections and colons form those candidates by broadcasting
over the generator matrices.

The oracles that scan the divisor box of an ideal all read one table,
:func:`divisor_counts`, the number of minimal generators dividing each box
monomial, built in place by slab-wise prefix sums.  Every size limit lives
here.  One guards every such table: a box of more than ``BOX_CELL_LIMIT``
cells raises :class:`LimitExceededError`; the Betti kernel also refuses an
lcm lattice of more than ``DEFAULT_LATTICE_LIMIT`` points.  The limits are
read at call time, so a caller lowers one by setting it here, and every
cached result is keyed by the :func:`limits` in force.  A function of one
ideal is cached only through :func:`cached_per_ideal`.

Squarefree generating sets held as vertex bitmasks, many at once, are
minimalized by :func:`minimal_supports` into one boolean table; minimal
primes are minimal transversals of the same bitmasks.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from typing import Iterable

import numpy as np

from .graphs import Graph
from .monomials import Monomial

BOX_CELL_LIMIT = 5_000_000
DEFAULT_LATTICE_LIMIT = 50_000


class LimitExceededError(RuntimeError):
    """A configured search-space or resource limit was exceeded."""


def limits() -> tuple[int, int]:
    """The size limits in force: ``BOX_CELL_LIMIT`` and ``DEFAULT_LATTICE_LIMIT``."""
    return BOX_CELL_LIMIT, DEFAULT_LATTICE_LIMIT


def cached_per_ideal(fn):
    """Cache ``fn(I)`` for 64 ideals, keyed by I and the :func:`limits` in
    force, so a lowered limit never answers from the cache."""
    cached = lru_cache(maxsize=64)(lambda I, _limits: fn(I))

    @wraps(fn)
    def wrapper(I):
        return cached(I, limits())

    wrapper.cache_info, wrapper.cache_clear = cached.cache_info, cached.cache_clear
    return wrapper


def _require_int(name: str, value, least: int | None = None) -> None:
    """Refuse a size that is not an int (a bool is refused too) or that is
    below ``least``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


@dataclass(frozen=True, eq=False)
class MonomialIdeal:
    """A monomial ideal in ``ambient`` variables, canonically presented.

    ``exponents`` is the (m, ambient) int64 matrix of the minimal
    generators, one row each in (degree, lex) order, made read-only here.
    Construct through :func:`ideal` (or the specific builders below) so the
    rows are minimalized and sorted; the raw constructor checks only the
    matrix's width.
    """

    ambient: int
    exponents: np.ndarray

    def __post_init__(self) -> None:
        if self.ambient < 1:
            raise ValueError("ambient must be positive")
        exps = np.asarray(self.exponents, dtype=np.int64)
        if exps.ndim != 2 or exps.shape[1] != self.ambient:
            raise ValueError(f"exponent matrix of shape {exps.shape} needs {self.ambient} columns")
        exps.flags.writeable = False
        object.__setattr__(self, "exponents", exps)

    def _key(self) -> tuple:
        return self.ambient, self.exponents.shape, self.exponents.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialIdeal) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @cached_property
    def generators(self) -> tuple[Monomial, ...]:
        """The minimal generators as monomials, in canonical order."""
        return tuple(Monomial(tuple(row)) for row in self.exponents.tolist())

    @property
    def is_zero(self) -> bool:
        return len(self.exponents) == 0

    @property
    def is_unit(self) -> bool:
        return len(self.exponents) == 1 and not self.exponents.any()

    @property
    def is_proper(self) -> bool:
        return not self.is_zero and not self.is_unit

    @property
    def support(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.exponents.any(axis=0)).tolist())

    @property
    def is_squarefree(self) -> bool:
        return bool((self.exponents <= 1).all())

    @property
    def indeg(self) -> int:
        """Least degree of a generator; the zero ideal has no initial degree."""
        if self.is_zero:
            raise ValueError("zero ideal has no initial degree")
        return int(self.exponents[0].sum())

    def generator_degrees(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.exponents.sum(axis=1).tolist())))

    def contains(self, u: Monomial) -> bool:
        """Membership: true iff some minimal generator divides u."""
        if u.ambient != self.ambient:
            raise ValueError(f"ambient mismatch: {u.ambient} vs {self.ambient}")
        return bool((self.exponents <= u.exponents).all(axis=1).any())

    def __contains__(self, u: Monomial) -> bool:
        return self.contains(u)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        """True iff other is a subideal, i.e. every generator of other lies here."""
        return all(self.contains(g) for g in other.generators)

    def lcm_of_generators(self) -> Monomial:
        if self.is_zero:
            raise ValueError("zero ideal has no generators")
        return Monomial(tuple(self.exponents.max(axis=0).tolist()))

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.generators) + ")"

    def to_json_dict(self) -> dict:
        return {"ambient": self.ambient, "generators": self.exponents.tolist()}

    @staticmethod
    def from_json_dict(data: dict) -> "MonomialIdeal":
        """The inverse of :meth:`to_json_dict`.  ``data`` must be an object
        with an integer ``ambient`` and ``generators``, a list of lists of
        integer exponents; nothing is coerced."""

        def integer(e):
            if isinstance(e, bool) or not isinstance(e, int):
                raise ValueError(f"ideal JSON: ambient and exponents must be integers, got {e!r}")
            return e

        if not isinstance(data, dict) or not {"ambient", "generators"} <= data.keys():
            raise ValueError("ideal JSON: expected an object with keys 'ambient' and 'generators'")
        rows = data["generators"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("ideal JSON: 'generators' must be a list of exponent lists")
        ambient = integer(data["ambient"])
        gens = [Monomial(tuple(map(integer, row))) for row in rows]
        for g in gens:
            if g.ambient != ambient:
                raise ValueError("generator length does not match ambient")
        return ideal(gens, ambient)


# ---------------------------------------------------------------------------
# construction


def _generated_by(ambient: int, vectors) -> MonomialIdeal:
    """The ideal generated by exponent rows, canonically presented.

    Every generating set is built here: sort the rows by (degree, lex) with
    one lexsort, drop each row equal to its predecessor, then drop the rows
    that another one divides.  Distinct rows of one degree never divide each
    other, so an equigenerated set needs no dominance pass.
    """
    rows = np.asarray(vectors, dtype=np.int64).reshape(-1, ambient)
    degrees = rows.sum(axis=1)
    order = np.lexsort(np.vstack([rows.T[::-1], degrees]))
    rows, degrees = rows[order], degrees[order]
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    rows = rows[fresh]
    if len(rows) and degrees[0] != degrees[-1]:
        divides = (rows[:, None, :] <= rows[None, :, :]).all(axis=2)
        np.fill_diagonal(divides, False)
        rows = rows[~divides.any(axis=0)]
    return MonomialIdeal(ambient, rows)


def _monomials_of_degree(variables: Iterable[int], d: int, ambient: int) -> np.ndarray:
    """Exponent rows of every degree-d monomial in ``variables``."""
    combos = itertools.combinations_with_replacement(variables, d)
    picked = np.array(list(combos), dtype=np.int64)
    return (picked[:, :, None] == np.arange(ambient)).sum(axis=1)


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
    return _generated_by(ambient, [g.exponents for g in gens])


def zero_ideal(ambient: int) -> MonomialIdeal:
    return MonomialIdeal(ambient, np.zeros((0, ambient), dtype=np.int64))


def unit_ideal(ambient: int) -> MonomialIdeal:
    return MonomialIdeal(ambient, np.zeros((1, ambient), dtype=np.int64))


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
    return _generated_by(I.ambient, I.exponents[:, None, :] + J.exponents[None, :, :])


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
    return _generated_by(I.ambient, np.maximum(I.exponents[:, None, :], J.exponents[None, :, :]))


def colon(I: MonomialIdeal, u: Monomial) -> MonomialIdeal:
    """Colon ideal I : u, generated by g / gcd(g, u)."""
    if u.ambient != I.ambient:
        raise ValueError("ambient mismatch")
    return _generated_by(I.ambient, np.maximum(I.exponents - np.array(u.exponents), 0))


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
    fs = _variable_set(F, I.ambient, "localization")
    return _generated_by(len(fs), I.exponents[:, fs])


def _variable_set(F: Iterable[int], ambient: int, what: str) -> list[int]:
    """The distinct variables of F, sorted; F must be nonempty and lie in
    range(ambient)."""
    fs = sorted(set(F))
    if not fs:
        raise ValueError(f"{what} needs a nonempty variable set")
    if fs[0] < 0 or fs[-1] >= ambient:
        raise ValueError(f"variables {fs} out of range for ambient {ambient}")
    return fs


def graded_component(I: MonomialIdeal, j: int) -> MonomialIdeal:
    """The ideal generated by all degree-j monomials of I."""
    if j < 0:
        raise ValueError("degree must be nonnegative")
    if I.is_zero or j < I.indeg:
        return zero_ideal(I.ambient)
    n, degrees = I.ambient, I.exponents.sum(axis=1)
    parts = [
        I.exponents[degrees == d][:, None] + _monomials_of_degree(range(n), j - d, n)
        for d in sorted(set(degrees[degrees <= j].tolist()))
    ]
    return _generated_by(n, np.concatenate([p.reshape(-1, n) for p in parts]))


# ---------------------------------------------------------------------------
# graphs <-> ideals


def _edge_rows(g: Graph) -> np.ndarray:
    """One 0/1 row per edge {i,j} of g, with ones at i and j."""
    ends = np.array(sorted(g.edges), dtype=np.int64).reshape(-1, 2)
    rows = np.zeros((len(ends), g.n), dtype=np.int64)
    rows[np.arange(len(ends))[:, None], ends] = 1
    return rows


def complementary_edge_ideal(g: Graph) -> MonomialIdeal:
    """The ideal generated by (x_1...x_n)/(x_i x_j) over the edges {i,j}."""
    return _generated_by(g.n, 1 - _edge_rows(g))


def edge_ideal(g: Graph) -> MonomialIdeal:
    """The ideal generated by x_i x_j over the edges {i,j}."""
    return _generated_by(g.n, _edge_rows(g))


class BigDegreeCase(enum.Enum):
    """Trichotomy for squarefree ideals generated in degrees >= n-2."""

    COMPLEMENTARY_EDGE = "complementary-edge"
    MATROIDAL_VERONESE = "matroidal-veronese"
    MIXED = "mixed"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class CaseClassification:
    """A case of the trichotomy: ``graph`` is that of the degree-(n-2)
    generators, and ``degree_n1_vars`` the i with x_[n]/x_i a generator."""

    case: BigDegreeCase
    ambient: int
    graph: Graph | None = None
    degree_n1_vars: frozenset[int] = frozenset()
    veronese_degree: int | None = None


def _graph_of_omitted_pairs(rows: np.ndarray, n: int) -> Graph:
    """The graph whose edges are the variable pairs that the squarefree
    degree-(n-2) rows omit, one pair per row."""
    pairs = np.nonzero(rows == 0)[1].reshape(-1, 2)
    return Graph(n, frozenset(map(tuple, pairs.tolist())))


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
        g = _graph_of_omitted_pairs(I.exponents, n)
        if complementary_edge_ideal(g) != I:
            raise ValueError("reconstruction mismatch: ideal is not I_c of its graph")
        return CaseClassification(BigDegreeCase.COMPLEMENTARY_EDGE, n, graph=g)
    degrees = I.exponents.sum(axis=1)
    # each degree-(n-1) generator omits one variable
    iso_vars = frozenset(np.nonzero(I.exponents[degrees == n - 1] == 0)[1].tolist())
    if degs == (n - 1,) or degs == (n,):
        return CaseClassification(
            BigDegreeCase.MATROIDAL_VERONESE, n, degree_n1_vars=iso_vars, veronese_degree=degs[0]
        )
    if degs == (n - 2, n - 1):
        graph = _graph_of_omitted_pairs(I.exponents[degrees == n - 2], n)
        stray = sorted(iso_vars - graph.isolated_vertices)
        if stray:
            raise ValueError(
                f"a degree n-1 generator misses non-isolated vertex {stray[0] + 1}"
            )
        return CaseClassification(
            BigDegreeCase.MIXED, n, graph=graph, degree_n1_vars=iso_vars
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
    held = I.exponents > 0
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
    fs = _variable_set(F, ambient, "prime")
    if k < 1:
        raise ValueError("power must be positive")
    return _generated_by(ambient, _monomials_of_degree(fs, k, ambient))


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


def _box_shape(bound: Monomial) -> tuple[int, ...]:
    """The shape of the divisor box of ``bound``; a box of more than
    ``BOX_CELL_LIMIT`` cells raises :class:`LimitExceededError`."""
    shape = tuple(e + 1 for e in bound.exponents)
    cells = math.prod(shape)
    if cells > BOX_CELL_LIMIT:
        raise LimitExceededError(f"divisor box has {cells} cells, limit {BOX_CELL_LIMIT}")
    return shape


def divisor_counts(I: MonomialIdeal, bound: Monomial) -> np.ndarray:
    """Divisor-count table of I over the divisor box of ``bound``.

    Returns an unsigned int array of shape (bound_1+1, ..., bound_n+1) whose
    cell at index a counts the minimal generators of I that divide x^a.
    Each generator inside the box is added at its own cell, and a prefix sum
    along each axis carries it to every cell above it.  The prefix sum runs
    in place, one array add per slab of the axis (the cells with one value
    of a_axis) rather than a walk along the axis's short rows, and makes no
    temporary of the box's size.  Membership of x^a in I is ``C[a] > 0``;
    the witness scans and the lcm lattice read the same table.  A box of
    more than ``BOX_CELL_LIMIT`` cells raises :class:`LimitExceededError`
    before anything is allocated.
    """
    if bound.ambient != I.ambient:
        raise ValueError("ambient mismatch")
    shape = _box_shape(bound)
    # no cell counts more than every generator
    dtype = np.min_scalar_type(len(I.exponents))
    counts = np.zeros(shape, dtype=dtype)
    gens = I.exponents
    inside = gens[(gens <= np.array(bound.exponents)).all(axis=1)]
    np.add.at(counts, tuple(inside.T), 1)
    for axis, length in enumerate(shape):
        # slab j: the cells with a_axis = j, a (before, after) view of counts
        slabs = counts.reshape(math.prod(shape[:axis]), length, -1).swapaxes(0, 1)
        for below, slab in itertools.pairwise(slabs):
            np.add(slab, below, out=slab)
    return counts


def membership_box(I: MonomialIdeal, bound: Monomial) -> np.ndarray:
    """Boolean table over the divisor box of ``bound``: is x^u in I."""
    return divisor_counts(I, bound) > 0
