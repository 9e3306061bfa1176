"""Multigraded Betti numbers of monomial ideals over small prime fields.

The oracle is Hochster-style: beta_{i,a}(I) is the rank of the reduced
homology H~_{i-1} of the upper-Koszul complex of I at the multidegree a,
and only multidegrees in the lcm lattice of the generators can carry a
nonzero rank.  Both the lattice and the upper-Koszul faces are read off one
divisor-count table over the divisor box of the generator lcm
(:func:`compedge.ideals.divisor_counts`), so the one box limit,
``compedge.ideals.BOX_CELL_LIMIT``, guards it; a lattice of more than
``compedge.ideals.DEFAULT_LATTICE_LIMIT`` points raises
:class:`LimitExceededError` too.

One kernel gives every Betti invariant, and it is the only code that builds
or ranks an upper-Koszul complex.  Per ideal, :func:`_complex_classes` drops
the cones among the complexes and groups the rest by complex (field-free,
cached for 64 ideals under the limits in force by
:func:`compedge.ideals.cached_per_ideal`); :func:`_complex_ranks` then ranks
each distinct complex once per characteristic (cached for 2^16 complexes
across ideals).  The face flags of every lattice point, 2^|supp(a)| per
point, come from a fixed number of array passes per 2^16 flags: gathers
in rows of 32 masks, each row packed into one word, whose popcounts test
every apex of a cone at once.  Complexes are grouped by their packed face
flags, one ``np.void`` key per row.  The characteristic is an ``int``
among the primes below 100: F_2 ranks eliminate bitset rows, and the
other primes reduce sparse columns of Python ints.  Regularity,
projective dimension and depth are maxima over the table's arrays,
computed per characteristic so that field (in)dependence is an
observable.  The exact linear-quotients search lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import ideals
from .ideals import (
    LimitExceededError,
    MonomialIdeal,
    _require_int,
    cached_per_ideal,
    divisor_counts,
    graded_component,
)
from .monomials import Monomial

DEFAULT_PRIME = 2
DEFAULT_QUOTIENTS_LIMIT = 2000
_DEAD_BITS = 1 << 28

_SMALL_PRIMES = frozenset(
    {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
     73, 79, 83, 89, 97}
)


def _check_prime(p: int) -> None:
    if isinstance(p, bool) or not isinstance(p, int) or p not in _SMALL_PRIMES:
        raise ValueError(f"characteristic must be a small prime, got {p!r}")


# ---------------------------------------------------------------------------
# reduced homology of upper-Koszul complexes


def _rank_gf2(rows: list[int]) -> int:
    """Rank of a 0/1 matrix whose rows are bitmask integers."""
    pivots: list[int] = []
    rank = 0
    for row in rows:
        for piv in pivots:
            low = piv & -piv
            if row & low:
                row ^= piv
        if row:
            pivots.append(row)
            rank += 1
    return rank


def _rank_mod_p(columns: list[dict[int, int]], p: int) -> int:
    """Rank over F_p of sparse columns, each a dict row -> nonzero entry.

    Column reduction: while a column's largest row is the pivot row of an
    earlier column, that column's multiple is subtracted; a column left
    nonzero becomes the pivot of its largest row, scaled to lead with 1.
    """
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            lead = max(col)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(col[lead], -1, p)
                pivots[lead] = {r: v * inv % p for r, v in col.items()}
                break
            c = col[lead]
            for r, v in piv.items():
                entry = (col.get(r, 0) - c * v) % p
                if entry:
                    col[r] = entry
                else:
                    del col[r]
    return len(pivots)


def _boundary_rank(lower: list[int], upper: list[int], p: int) -> int:
    """Rank of the boundary map from the faces in ``upper`` (bitmasks, all of
    one cardinality) down to those in ``lower``."""
    if not lower or not upper:
        return 0
    row_index = {f: i for i, f in enumerate(lower)}
    if p == 2:
        rows = [0] * len(lower)
        for j, f in enumerate(upper):
            rem = f
            while rem:
                low = rem & -rem
                rows[row_index[f ^ low]] |= 1 << j
                rem ^= low
        return _rank_gf2(rows)
    columns = []
    for f in upper:
        col = {}
        sign = 1
        rem = f
        while rem:
            low = rem & -rem
            col[row_index[f ^ low]] = sign
            sign = -sign
            rem ^= low
        columns.append(col)
    return _rank_mod_p(columns, p)


@lru_cache(maxsize=1 << 16)
def _complex_ranks(packed: bytes, p: int) -> tuple[tuple[int, int], ...]:
    """Nonzero reduced homology ranks (d, rank) over F_p of one complex.

    ``packed`` is ``np.packbits`` of the complex's face flags: bit m is set
    when the face with vertex bitmask m is present.  The void complex (no
    faces) and the irrelevant one (only the empty face) differ in H~_{-1}.
    """
    by_dim: dict[int, list[int]] = {}
    # ascending masks, so the faces of each dimension come sorted
    for f in np.flatnonzero(np.unpackbits(np.frombuffer(packed, np.uint8))).tolist():
        by_dim.setdefault(bin(f).count("1") - 1, []).append(f)
    ranks = []
    rank_up = 0  # rank of the boundary map coming from dimension d+1
    for d in range(max(by_dim, default=-2), -2, -1):
        faces = by_dim.get(d, [])
        rank_down = _boundary_rank(by_dim.get(d - 1, []), faces, p) if d >= 0 else 0
        h = len(faces) - rank_down - rank_up
        if h:
            ranks.append((d, h))
        rank_up = rank_down
    return tuple(ranks)


# ---------------------------------------------------------------------------
# Betti tables


@dataclass(frozen=True, eq=False)
class BettiTable:
    """Multigraded Betti numbers: beta_{i[r], multidegrees[r]} = rank[r] > 0.
    Rows are sorted by (i, multidegree), so equal numbers mean equal arrays."""

    characteristic: int
    ambient: int
    multidegrees: np.ndarray  # (rows, ambient)
    i: np.ndarray
    rank: np.ndarray

    @cached_property
    def entries(self) -> dict[tuple[int, tuple[int, ...]], int]:
        """(i, multidegree) -> rank, in row order."""
        rows = zip(self.i.tolist(), self.multidegrees.tolist(), self.rank.tolist())
        return {(i, tuple(a)): r for i, a, r in rows}

    def __eq__(self, other) -> bool:
        if not isinstance(other, BettiTable):
            return NotImplemented
        return (self.ambient, self.to_json_dict()) == (other.ambient, other.to_json_dict())

    def graded(self) -> dict[tuple[int, int], int]:
        """Total graded numbers beta_{i,j}, summing multidegrees of size j."""
        out: dict[tuple[int, int], int] = {}
        degrees = self.multidegrees.sum(axis=1).tolist()
        for i, j, rank in zip(self.i.tolist(), degrees, self.rank.tolist()):
            out[(i, j)] = out.get((i, j), 0) + rank
        return out

    def total(self, i: int) -> int:
        return int(self.rank[self.i == i].sum())

    @property
    def projective_dimension_ideal(self) -> int:
        return int(self.i.max())

    @property
    def projective_dimension_quotient(self) -> int:
        return self.projective_dimension_ideal + 1

    @property
    def regularity(self) -> int:
        return int((self.multidegrees.sum(axis=1) - self.i).max())

    def pretty(self) -> str:
        """Macaulay2-style total-degree table for the ideal's resolution."""
        graded = self.graded()
        imax = max(i for i, _ in graded)
        jmin = min(j - i for (i, j) in graded)
        jmax = max(j - i for (i, j) in graded)
        header = ["      "] + [f"{i:>6}" for i in range(imax + 1)]
        lines = ["".join(header)]
        totals = ["total:"] + [f"{self.total(i):>6}" for i in range(imax + 1)]
        lines.append("".join(totals))
        for shift in range(jmin, jmax + 1):
            row = [f"{shift:>5}:"]
            for i in range(imax + 1):
                v = graded.get((i, i + shift), 0)
                row.append(f"{v if v else '.':>6}")
            lines.append("".join(row))
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "characteristic": self.characteristic,
            "entries": [
                {"i": i, "multidegree": list(a), "rank": rank}
                for (i, a), rank in self.entries.items()
            ],
        }


def _lcm_lattice(counts: np.ndarray) -> np.ndarray:
    """The joins of nonempty generator subsets, as rows of exponents.

    ``counts`` is the :func:`~compedge.ideals.divisor_counts` table over the
    divisor box of the generator lcm.  A box cell a is such a join exactly
    when some generator divides x^a and, for every i with a_i > 0, some
    generator below a has i-th exponent a_i, i.e. C[a] > C[a - e_i].

    Per axis, x^(a - e_i) is the cell one axis stride before a in the flat
    table, so one contiguous comparison covers every cell; on the slab
    a_i = 0 of the (before, axis, after) view, where that cell is another
    row's, the test is set true.
    """
    shape = counts.shape
    keep = counts > 0
    flat = counts.reshape(-1)
    above = np.empty(flat.size, dtype=bool)
    for axis, length in enumerate(shape):
        stride = math.prod(shape[axis + 1 :])
        np.greater(flat[stride:], flat[:-stride], out=above[stride:])
        above.reshape(-1, length, stride)[:, 0] = True
        keep &= above.reshape(shape)
    points = np.argwhere(keep)
    limit = ideals.DEFAULT_LATTICE_LIMIT
    if len(points) > limit:
        raise LimitExceededError(f"lcm lattice has {len(points)} points, limit {limit}")
    return points


# face flags are gathered in rows of 2^_LOW_BITS consecutive masks of one
# point, and at most _GATHER_CELLS of them at once, so memory stays bounded
_LOW_BITS = 5
_GATHER_CELLS = 1 << 16


@lru_cache(maxsize=None)
def _bit_table(g: int) -> np.ndarray:
    """bits[m, t] = bit t of m, for m < 2^g."""
    m = np.arange(1 << g)
    return m[:, None] >> np.arange(g) & 1


@cached_per_ideal
def _complex_classes(I: MonomialIdeal) -> tuple[np.ndarray, tuple[bytes, ...], np.ndarray]:
    """The lcm-lattice points of I whose upper-Koszul complex is not a cone
    (cones are acyclic), in lexicographic order; the distinct complexes among
    them, as :func:`_complex_ranks` keys; and per point its complex's index.
    Nothing here depends on the field.

    Face m of the complex at a (bit t of m for the t-th variable of supp(a))
    is present when x^(a - m spread over supp(a)) lies in I.  Every point's
    2^|supp(a)| face flags are gathered from the membership table in rows of
    2^_LOW_BITS masks, one packed word per row: per point, a table of the
    low bits' box offsets, and per row, the offset of its high bits.  A
    complex is down-closed, so it is a cone with apex t exactly when as many
    faces contain t as avoid it; the face counts are popcounts of the words,
    and one comparison tests every apex at once.
    """
    counts = divisor_counts(I, I.lcm_of_generators())
    lattice = _lcm_lattice(counts)
    member = (counts > 0).reshape(-1)
    strides = np.array(counts.strides) // counts.itemsize
    support = lattice > 0
    sizes = support.sum(axis=1)
    width = int(sizes.max())
    low = min(width, _LOW_BITS)
    # steps[r, t]: the stride of the t-th variable of supp(a_r), then the box
    # size, so that a mask bit past supp(a_r) sends the gather below cell 0,
    # where the clipped read is x^0, which no proper I contains.  C-order
    # strides fall along the axes: an ascending sort of the negated strides
    # lists supp(a_r) in variable order.
    steps = np.abs(np.sort(np.where(support, -strides, member.size), axis=1))[:, :width]
    low_offsets = steps[:, :low] @ _bit_table(low).T
    base = lattice @ strides
    # a row's flags pack into one word; apex[t] holds the masks with bit t set
    word = np.dtype(f"u{max(1, (1 << low) // 8)}")
    apex = np.packbits(_bit_table(low).T.astype(bool, order="C"), axis=1).view(word)[:, 0]
    blocks = 1 << np.maximum(sizes - low, 0)
    ends = np.cumsum(blocks)
    cone = np.empty(len(lattice), dtype=bool)
    # packed face flags, all of one width; keys drop the trailing zero bytes
    packed = np.zeros((len(lattice), 1 << (width - low)), dtype=word)
    lo = 0
    while lo < len(lattice):
        # points lo..hi, whose rows hold about _GATHER_CELLS flags
        start = ends[lo] - blocks[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, start + (_GATHER_CELLS >> low), side="right")))
        n_rows = blocks[lo:hi]
        first = ends[lo:hi] - n_rows - start
        point = np.repeat(np.arange(lo, hi), n_rows)
        block = np.arange(len(point)) - np.repeat(first, n_rows)
        high = _bit_table(width - low)[block]
        top = base[point] - (high * steps[point, low:]).sum(axis=1)
        flags = member.take(top[:, None] - low_offsets[point], mode="clip")
        words = np.packbits(flags, axis=1).view(word)[:, 0]
        packed[point, block] = words
        # per point: how many faces contain each variable, and how many faces
        faces = np.bitwise_count(words)[:, None]
        tally = np.add.reduceat(
            np.hstack([np.bitwise_count(words[:, None] & apex), faces * high, faces], dtype=np.int64),
            first,
            axis=0,
        )
        cone[lo:hi] = (2 * tally[:, :width] == tally[:, width:]).any(axis=1)
        lo = hi
    # one void per row sorts as its bytes, as rows of uint8 do
    rows = packed[~cone].view(np.uint8)
    keys = rows.view(np.dtype((np.void, rows.shape[1]))).reshape(-1)
    unique, inverse = np.unique(keys, return_inverse=True)
    data, size = unique.tobytes(), rows.shape[1]
    classes = tuple(data[s : s + size].rstrip(b"\0") for s in range(0, len(data), size))
    return lattice[~cone], classes, inverse


def betti_table(I: MonomialIdeal, p: int = DEFAULT_PRIME) -> BettiTable:
    """Multigraded Betti table of I over F_p via upper-Koszul homology."""
    _check_prime(p)
    if not I.is_proper:
        raise ValueError("Betti table needs a nonzero, non-unit ideal")
    points, classes, inverse = _complex_classes(I)
    # by_class[c, i]: rank of H~_{i-1} of complex c, so beta_i at its points
    by_class = np.zeros((len(classes), I.ambient + 1), dtype=np.int64)
    for c, key in enumerate(classes):
        for d, h in _complex_ranks(key, p):
            by_class[c, d + 1] = h
    # sorted by i, then by point, and the points are in lexicographic order
    i, row = np.nonzero(by_class[inverse].T)
    return BettiTable(p, I.ambient, points[row], i, by_class[inverse[row], i])


@dataclass(frozen=True)
class HomologicalInvariants:
    """reg(I), pd(S/I), and depth(S/I) both in the declared ambient ring and
    in the subring on the ideal's support (Auslander-Buchsbaum)."""

    regularity: int
    pd_quotient: int
    depth: int
    depth_support: int


def reg_pd_depth(I: MonomialIdeal, p: int = DEFAULT_PRIME) -> HomologicalInvariants:
    """Regularity, projective dimension, and depth of S/I over F_p."""
    if not I.is_proper:
        raise ValueError("invariants need a nonzero, non-unit ideal")
    table = betti_table(I, p)
    reg = table.regularity
    pd_q = table.projective_dimension_quotient
    return HomologicalInvariants(
        regularity=reg,
        pd_quotient=pd_q,
        depth=I.ambient - pd_q,
        depth_support=len(I.support) - pd_q,
    )


def has_linear_resolution(I: MonomialIdeal, p: int = DEFAULT_PRIME) -> bool:
    """For an equigenerated ideal: reg(I) equals the generation degree."""
    if not I.is_proper:
        raise ValueError("linear resolution needs a nonzero, non-unit ideal")
    degs = I.generator_degrees()
    if len(degs) != 1:
        raise ValueError("linear resolution is defined for equigenerated ideals")
    return betti_table(I, p).regularity == degs[0]


def is_componentwise_linear(I: MonomialIdeal, p: int = DEFAULT_PRIME) -> bool:
    """Check linear resolution of every graded component I_<j>.

    For j >= reg(I) the truncation I_{>=j} has a linear resolution
    (Eisenbud-Goto), and reg(I) is at least the largest generator degree,
    so I_<j> = I_{>=j} there: only indeg(I) <= j < reg(I) is checked.
    """
    if not I.is_proper:
        raise ValueError("componentwise linearity needs a nonzero, non-unit ideal")
    reg = betti_table(I, p).regularity
    for j in range(I.indeg, reg):
        if not has_linear_resolution(graded_component(I, j), p):
            return False
    return True


# ---------------------------------------------------------------------------
# linear quotients


def _linear_quotients_order(I: MonomialIdeal, limit: int) -> list[int] | None:
    """The search of :func:`has_linear_quotients`: a linear-quotients order
    as row indices of ``I.exponents``, or None."""
    if not I.is_proper:
        raise ValueError("linear quotients need a nonzero, non-unit ideal")
    _require_int("limit", limit, 1)
    m = len(I.exponents)
    if m > limit:
        raise LimitExceededError(f"{m} generators exceeds backtracking limit {limit}")
    if m == 1:
        return [0]

    arr = I.exponents
    degs = arr.sum(axis=1).tolist()
    bits = 1 << np.arange(I.ambient, dtype=np.int64)
    # gt[v][u]: bitmask of variables t with v_t > u_t
    # sv[w][u]: the variable bit when (w : u) is a single variable, else 0
    gt = np.empty((m, m), dtype=np.int64)
    sv = np.empty((m, m), dtype=np.int64)
    # rows in blocks, so the (rows, m, n) difference stays near 2^20 cells
    step = max(1, (1 << 20) // (m * I.ambient))
    for lo in range(0, m, step):
        diff = np.maximum(arr[lo : lo + step, None, :] - arr[None, :, :], 0)
        gt[lo : lo + step] = (diff > 0) @ bits
        sv[lo : lo + step] = np.where(diff.sum(axis=2) == 1, gt[lo : lo + step], 0)
    # by column, as Python ints: gt_to[u][v] is gt[v][u]
    gt_to, sv_to = gt.T.tolist(), sv.T.tolist()

    order: list[int] = []
    dead: set[int] = set()
    # remembered dead placed-sets hold at most _DEAD_BITS mask bits in all
    dead_cap = min(1 << 22, _DEAD_BITS // m)

    def admissible(u: int) -> bool:
        sv_u, gt_u = sv_to[u], gt_to[u]
        tmask = 0
        for w in order:
            tmask |= sv_u[w]
        if tmask == 0:
            return False
        return all(gt_u[v] & tmask for v in order)

    def next_candidate(mask: int, start: int) -> int:
        """First generator from ``start`` on that can be placed next, or m."""
        if mask in dead:
            return m
        last_deg = degs[order[-1]] if order else 0
        for u in range(start, m):
            if mask >> u & 1 or degs[u] < last_deg:
                continue
            if order and not admissible(u):
                continue
            return u
        return m

    # depth-first search with an explicit stack: orders can be thousands of
    # generators long, far deeper than Python's recursion limit
    mask, start = 0, 0
    while len(order) < m:
        u = next_candidate(mask, start)
        if u < m:
            order.append(u)
            mask, start = mask | 1 << u, 0
            continue
        if len(dead) < dead_cap:
            dead.add(mask)
        if not order:
            return None
        u = order.pop()
        mask, start = mask & ~(1 << u), u + 1
    return order


def has_linear_quotients(
    I: MonomialIdeal, limit: int = DEFAULT_QUOTIENTS_LIMIT
) -> tuple[bool, tuple[Monomial, ...] | None]:
    """Search for a linear-quotients order of the minimal generators.

    Exact backtracking over orders with nondecreasing degrees (an ideal with
    linear quotients always admits such an order), with memoization on the
    set of already-placed generators.  Returns (True, witness order) or
    (False, None) after exhausting the search.  ``limit``, an ``int`` of at
    least 1, caps the generators; more raise :class:`LimitExceededError`.
    """
    order = _linear_quotients_order(I, limit)
    if order is None:
        return False, None
    return True, tuple(I.generators[i] for i in order)
