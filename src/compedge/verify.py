"""Brute-force oracles and the census sweep harness.

The oracles know nothing about the closed forms.  Associated primes,
v-numbers and depth zero all come from one exhaustive scan of the divisors
u of the generator lcm for prime colon ideals (I : u) = P_F, read off the
divisor-count table of :func:`compedge.ideals.divisor_counts`; a socle
witness is the case F = all variables.  Restricting witnesses to divisors
of lcm(G(I)) loses nothing: if (I : u) = P then (I : gcd(u, lcm)) = P,
since exponents of u above the lcm never affect divisibility by a
generator.  Only the degree slab deg u >= indeg(I) - 1 can hold a
witness, since x_i u lies in I for some i.  The fuzz suite cross-validates
this against the independent localization/socle route.  The scan runs once
per ideal in a process: Ass, v and depth zero of one ideal, from any caller,
read one memoized result, cached by :func:`ideals.cached_per_ideal` under
the limits in force.  A divisor box of more than ``ideals.BOX_CELL_LIMIT``
cells, the one limit on every divisor-count table, raises
:class:`LimitExceededError`, which the sweep records as a skip.

One verification path, :func:`run_graph_checks`, takes a graph or an ideal
of the degree >= n - 2 trichotomy of :func:`ideals.classify_big_degree`; a
mixed or matroidal ideal takes only the checks whose closed forms cover it.
The sweep walks graphs.  Every check runs on the canonical form of the
isomorphism class (:func:`compedge.graphs.canonical_form`, then the marked
isolated variables of a mixed or matroidal ideal moved to the lowest
isolated labels): the oracles, on the powers of the canonical ideal, and
the closed forms, each once per class in a process.  A process keeps one
record per canonical classification.  It holds the oracle results on those
powers, the closed forms' values and, for the localization check, only the
subsets where the two tables differ.  Like every cached oracle result, each
entry is keyed by what it computes, with its arguments other than the
graph, and by :func:`ideals.limits`, the limits in force, so a lowered limit
skips a check whether or not the class was seen before.  It is the only
result store, and nothing outlives the process.  The powers themselves are
built on a miss and dropped with the labeled input.  The paper's
statements are invariant under relabeling vertices, so a labeled graph only
names the vertex sets its report prints, through one table of every bitmask
shared by all graphs with the same vertex permutation onto their canonical
form, and builds its own ideal only to report field-dependent Betti tables.
Reports list vertex sets by size, then lexicographically, each as the shared
1-based tuple of :func:`_report_order`, which JSON writes as an array.

Strong persistence, I^(k+1) : I = I^k, and the symbolic-power identity
I^(k) = I^k are decided on the same table, as membership, without building
the colon ideal or the symbolic power; strong persistence builds one table
per power, on its own lcm box.

The localization check compares two tables of the canonical form, one row
per nonempty vertex subset F and one column per support bitmask: the
minimal generator supports of the localization of I_c at P_F, read off the
generators of I_c, against :func:`compedge.formulas.localization_table`.
Tables of more than ``ideals.BOX_CELL_LIMIT`` cells are refused.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterable

import numpy as np

from . import formulas, graphs, ideals
from .graphs import Graph, canonical_form, enumerate_labeled_graphs, to_graph6, vertex_set
from .ideals import (
    BigDegreeCase,
    CaseClassification,
    LimitExceededError,
    MonomialIdeal,
    _box_shape,
    _generated_by,
    _require_int,
    cached_per_ideal,
    classify_big_degree,
    complementary_edge_ideal,
    divisor_counts,
    localize,
    minimal_primes_squarefree,
    minimal_supports,
    multiply,
    power,
)
from .monomials import Monomial
from .resolution import (
    DEFAULT_QUOTIENTS_LIMIT,
    HomologicalInvariants,
    _check_prime,
    _linear_quotients_order,
    betti_table,
    is_componentwise_linear,
    reg_pd_depth,
)

REPORT_SCHEMA_VERSION = 1


def _require_proper(I: MonomialIdeal) -> None:
    if not I.is_proper:
        raise ValueError("oracle needs a nonzero, non-unit ideal")


@dataclass(frozen=True)
class VWitness:
    v: int
    witness: Monomial
    prime: frozenset[int]


@dataclass(frozen=True)
class _Witnesses:
    """Every divisor u of the generator lcm with (I : u) = P_F, as rows of
    ``exps``, and the bitmask of its F in ``masks``.  Both arrays are
    read-only, since the memoized scan hands the same ones to every caller."""

    ambient: int
    exps: np.ndarray
    masks: np.ndarray

    def __post_init__(self):
        self.exps.flags.writeable = False
        self.masks.flags.writeable = False

    def prime_masks(self) -> frozenset[int]:
        return frozenset(self.masks.tolist())

    def primes(self) -> set[frozenset[int]]:
        return set(map(vertex_set, self.prime_masks()))

    def least(self, mask: int | None = None) -> VWitness | None:
        """The witness least by (degree, exponents), among those with prime
        ``mask`` when one is given."""
        rows = np.arange(self.masks.size) if mask is None else np.flatnonzero(self.masks == mask)
        if rows.size == 0:
            return None
        exps = self.exps[rows]
        best = rows[np.lexsort(np.vstack([exps.T[::-1], exps.sum(axis=1)]))[0]]
        u = tuple(int(x) for x in self.exps[best])
        return VWitness(sum(u), Monomial(u), vertex_set(int(self.masks[best])))


@cached_per_ideal
def _prime_colon_witnesses(I: MonomialIdeal) -> _Witnesses:
    """Scan the divisor box of the generator lcm for prime colon ideals.

    (I : u) = P_F exactly when u is not in I, F = {i : x_i u in I} is
    nonempty, and u with every exponent outside F raised to the lcm's is
    still not in I.  A step past the lcm in coordinate i never enters I, so
    membership is read from the divisor-count table alone.  Some x_i u lies
    in I, so deg u >= indeg(I) - 1: only the non-member cells of that degree
    slab are candidates.  The steps read from a candidate, u + e_i and the
    raised u, never lower its degree.

    The scan runs once per ideal in a process, cached for 64 ideals under
    the limits in force.
    """
    bound = I.lcm_of_generators()
    counts = divisor_counts(I, bound)
    member = (counts > 0).reshape(-1)
    strides = np.array(counts.strides, dtype=np.int64) // counts.itemsize
    cap = bound.exponents
    # the smallest dtype that holds the top degree: a byte a cell on most boxes
    degree = sum(np.indices(counts.shape, dtype=np.min_scalar_type(sum(cap)), sparse=True))
    u = np.flatnonzero(~member & (degree >= I.indeg - 1).reshape(-1))
    coords = np.unravel_index(u, counts.shape)
    fmask = np.zeros(u.size, dtype=np.int64)
    for i in range(I.ambient):
        # at the cap, index u itself, which is not in I
        up = member[np.where(coords[i] < cap[i], u + strides[i], u)]
        fmask |= up.astype(np.int64) << i
    raised = u.copy()
    for i in range(I.ambient):
        raised += np.where(fmask >> i & 1, 0, (cap[i] - coords[i]) * strides[i])
    ok = (fmask != 0) & ~member[raised]
    return _Witnesses(I.ambient, np.stack([c[ok] for c in coords], axis=1), fmask[ok])


def ass_oracle(I: MonomialIdeal) -> set[frozenset[int]]:
    """Associated primes by exhaustive colon-witness search.

    F is reported exactly when (I : u) = P_F for some divisor u of the lcm
    of the minimal generators.
    """
    _require_proper(I)
    return _prime_colon_witnesses(I).primes()


def depth_zero_oracle(I: MonomialIdeal) -> tuple[bool, Monomial | None]:
    """Socle witness search: some u not in I with x_i u in I for all i.

    Such a u exists iff the maximal ideal is associated, i.e. iff the
    quotient has depth zero.  Returns the canonically smallest witness.
    """
    _require_proper(I)
    best = _prime_colon_witnesses(I).least((1 << I.ambient) - 1)
    if best is None:
        return False, None
    return True, best.witness


def stable_ass_localization(I: MonomialIdeal, k_max: int) -> dict[frozenset[int], int]:
    """The primes F with depth S_F/(I(P_F))^k = 0 for some k <= k_max,
    mapped to the least such k.  Independent route to the stable set."""
    _require_proper(I)
    _require_int("k_max", k_max, 1)
    out: dict[frozenset[int], int] = {}
    n = I.ambient
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            J = localize(I, combo)
            if not J.is_proper:
                continue
            Jk = J
            for k in range(1, k_max + 1):
                if k > 1:
                    Jk = multiply(Jk, J)
                hit, _ = depth_zero_oracle(Jk)
                if hit:
                    out[frozenset(combo)] = k
                    break
    return out


def v_oracle(I: MonomialIdeal) -> VWitness:
    """Least degree of a monomial u with (I : u) prime, with the witness.

    Ties are broken by the canonical monomial order, so reports are
    reproducible.
    """
    _require_proper(I)
    best = _prime_colon_witnesses(I).least()
    if best is None:
        raise ValueError("no prime colon ideal found; is the input proper?")
    return best


@dataclass(frozen=True)
class PersistenceResult:
    holds: bool
    first_violation: tuple[int, frozenset[int]] | None
    ass_by_k: tuple[frozenset[frozenset[int]], ...]


def _first_loss(asses: list[set]) -> tuple[int, set] | None:
    """The least k with a prime of Ass(I^k) missing from Ass(I^(k+1)), and
    those primes, along ``asses``, which lists Ass(I), Ass(I^2), ...,
    Ass(I^k_max); None when every prime persists."""
    for k in range(1, len(asses)):
        lost = asses[k - 1] - asses[k]
        if lost:
            return k, lost
    return None


def _persistence(asses: list[set[frozenset[int]]]) -> PersistenceResult:
    """Persistence along ``asses``, which lists Ass(I), Ass(I^2), ..., Ass(I^k_max)."""
    ass_by_k = tuple(frozenset(a) for a in asses)
    loss = _first_loss(asses)
    if loss is None:
        return PersistenceResult(True, None, ass_by_k)
    k, lost = loss
    return PersistenceResult(False, (k, min(lost, key=lambda f: (len(f), sorted(f)))), ass_by_k)


def persistence_check(I: MonomialIdeal, k_max: int) -> PersistenceResult:
    """Verify Ass(I^k) is contained in Ass(I^(k+1)) for k < k_max."""
    _require_proper(I)
    _require_int("k_max", k_max, 1)
    powers = itertools.accumulate(itertools.repeat(I, k_max), multiply)
    return _persistence([ass_oracle(Ik) for Ik in powers])


@dataclass(frozen=True)
class StrongPersistenceResult:
    holds: bool
    first_failure: int | None


def _colon_exceeds_power(I: MonomialIdeal, low: np.ndarray, high: np.ndarray) -> bool:
    """True iff I^(k+1) : I is strictly larger than I^k, given the
    divisor-count tables ``low`` of I^k and ``high`` of I^(k+1), each on the
    divisor box of its own lcm.

    I^k is always contained in the colon, so it is larger exactly when some
    u outside I^k has x^(u+g) in I^(k+1) for every generator g of I.  Both
    ideals are generated inside the box B of the larger lcm, so u ranges
    over B, and u + g is clipped at B, which keeps membership in I^(k+1).
    A cell past a table's box counts what the cell clipped to the box
    counts, since every generator lies in its own lcm box: so each table is
    edge-padded to B, and the clip is one more edge padding, which makes the
    table at u + g a shifted view of the padded one.
    """
    bound = np.maximum(low.shape, high.shape) - 1
    _box_shape(Monomial(tuple(bound.tolist())))
    escaped = np.pad(low == 0, [(0, b) for b in bound + 1 - low.shape], mode="edge")
    pads = bound + 1 - high.shape + I.exponents.max(axis=0)
    padded = np.pad(high > 0, [(0, b) for b in pads], mode="edge")
    for g in I.exponents.tolist():
        escaped &= padded[tuple(slice(e, e + b + 1) for e, b in zip(g, bound))]
    return bool(escaped.any())


def _strong_persistence(
    I: MonomialIdeal, powers: Iterable[MonomialIdeal]
) -> StrongPersistenceResult:
    """Strong persistence along ``powers``, which yields I, I^2, ..., I^(k_max+1),
    from one divisor-count table per power."""
    tables = (divisor_counts(P, P.lcm_of_generators()) for P in powers)
    for k, (low, high) in enumerate(itertools.pairwise(tables), start=1):
        if _colon_exceeds_power(I, low, high):
            return StrongPersistenceResult(False, k)
    return StrongPersistenceResult(True, None)


def strong_persistence_check(
    I: MonomialIdeal, k_max: int
) -> StrongPersistenceResult:
    """Check the ideal identity I^(k+1) : I = I^k for k = 1..k_max.

    Each identity is decided on the divisor-count tables of I^k and
    I^(k+1), each built once on its own lcm box.  Whether it always holds
    for complementary edge ideals is open; the result is recorded as an
    observation, never asserted.
    """
    _require_proper(I)
    _require_int("k_max", k_max, 1)
    powers = itertools.accumulate(itertools.repeat(I, k_max + 1), multiply)
    return _strong_persistence(I, powers)


def _symbolic_equals_ordinary(I: MonomialIdeal, Ik: MonomialIdeal, k: int) -> bool:
    """I^(k) = I^k for a proper squarefree I, given Ik = I^k.

    x^a lies in I^(k) exactly when the exponents of a sum to at least k
    over every minimal prime of I.  Both ideals are generated inside the
    box {0..k}^n, so they are equal when these memberships agree with the
    divisor-count table of I^k on that box.
    """
    n = I.ambient
    ordinary = divisor_counts(Ik, Monomial((k,) * n)) > 0
    axes = np.indices((k + 1,) * n, dtype=np.min_scalar_type(n * k), sparse=True)
    symbolic = np.ones_like(ordinary)
    for F in minimal_primes_squarefree(I):
        symbolic &= sum(axes[i] for i in F) >= k
    return bool(np.array_equal(symbolic, ordinary))


# ---------------------------------------------------------------------------
# sweep harness


@dataclass
class VerificationReport:
    """The checks on one graph, or on one ideal other than I_c(G), whose
    ``graph`` is that of its degree-(n-2) generators."""

    graph: Graph
    ideal: MonomialIdeal | None = None
    per_k: dict[int, dict] = field(default_factory=dict)
    summary: dict[str, bool | None] = field(default_factory=dict)
    skipped: dict[str, str] = field(default_factory=dict)
    timings_ms: dict[str, float] = field(default_factory=dict)
    details: dict[str, object] = field(default_factory=dict)

    @property
    def failed_checks(self) -> list[str]:
        return sorted(k for k, v in self.summary.items() if v is False)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "graph": {
                "n": self.graph.n,
                "edges": [list(e) for e in self.graph.edge_list()],
                "graph6": to_graph6(self.graph),
            },
            "per_k": {str(k): v for k, v in sorted(self.per_k.items())},
            "summary": self.summary,
            "skipped": self.skipped,
            "timings_ms": {k: round(v, 3) for k, v in self.timings_ms.items()},
            "details": self.details,
            **({} if self.ideal is None else {"ideal": self.ideal.to_json_dict()}),
        }


@lru_cache(maxsize=None)
def _report_order(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Per vertex bitmask on n vertices, its rank in the report order of
    vertex sets, by size and then lexicographically, and its sorted 1-based
    vertices."""
    names = tuple(tuple(i + 1 for i in range(n) if mask >> i & 1) for mask in range(1 << n))
    rank = [0] * (1 << n)
    for r, mask in enumerate(sorted(range(1 << n), key=lambda m: (len(names[m]), names[m]))):
        rank[mask] = r
    return tuple(rank), names


@lru_cache(maxsize=math.factorial(graphs.DEFAULT_CENSUS_LIMIT))
def _relabeling(perm: tuple[int, ...]) -> tuple[tuple[int, ...], tuple]:
    """For a vertex permutation onto the canonical form (vertex i becomes
    perm[i]), the inverse permutation (canonical vertex j is vertex
    inverse[j]) and, per canonical vertex bitmask, the rank and name of the
    labeled bitmask from :func:`_report_order`.  The bound holds every
    permutation of the labeled census."""
    n = len(perm)
    inverse = tuple(sorted(range(n), key=perm.__getitem__))
    rank, names = _report_order(n)
    labeled = [0] * (1 << n)
    for c in range(1, 1 << n):
        low = c & -c
        labeled[c] = labeled[c ^ low] | 1 << inverse[low.bit_length() - 1]
    return inverse, tuple((rank[m], names[m]) for m in labeled)


@lru_cache(maxsize=2048)
def _class_memo(cls: CaseClassification) -> dict[tuple, object]:
    """The oracle results and closed-form values of one isomorphism class in
    this process, keyed by its canonical classification and shared by every
    labeled graph or ideal of the class.  They are immutable, so every
    caller can share them.  The bound holds all 1252 classes on at most 7
    vertices; past it the least recently used class is dropped."""
    return {}


def _same_betti_tables(I: MonomialIdeal, primes: tuple[int, ...]) -> bool:
    tables = [betti_table(I, p) for p in primes]
    rows = [(t.i, t.multidegrees, t.rank) for t in tables]
    return all(all(map(np.array_equal, r, rows[0])) for r in rows[1:])


# the cases other than complementary edge ideals that a check applies to
_OTHER_CASES = dict.fromkeys(
    ("reg", "depth-monotone", "linear", "betti-field-independence"),
    (BigDegreeCase.MIXED, BigDegreeCase.MATROIDAL_VERONESE),
) | {"depth-stable": (BigDegreeCase.MIXED,)}


class _GraphState:
    """Lazily computed shared state for one graph, or one ideal of the
    trichotomy, classified once; a complementary edge ideal is its graph.

    Every check runs on the canonical form of the isomorphism class, with
    its classification ``cls``.  One vertex permutation gives it: the
    canonical form of the graph of the degree-(n-2) generators (edgeless in
    the matroidal case), then the marked variables ``degree_n1_vars``, all
    isolated, moved to the lowest isolated labels.  The oracles run once per
    class in a process (``_class_memo``, keyed by ``cls``), on the powers
    of the canonical ideal, which a labeled graph or ideal builds only on a
    miss.  Every closed form a check reads is evaluated once per class too,
    in the same record (:meth:`closed_form`), and never reads an oracle
    result.  Every entry goes through :meth:`_record`, which keys it by the
    :func:`ideals.limits` in force, so a lowered limit skips every box check
    of a class seen before.  The record holds no table: the localization
    check keeps only its mismatched subsets.  A labeled graph only names the
    vertex sets a report prints: bitmasks of the canonical form, mapped
    through the table of its vertex permutation (``labels``, from
    :func:`_relabeling`), which gives each canonical bitmask the labeled
    one's rank and shared name tuple.  Each power is scanned for prime colon
    witnesses once, for the Ass, v, persistence and entry-bound checks, and
    a labeled graph reads each scan's result from the record once, as it
    does each power's (reg, pd, depth) for the reg and depth checks.
    """

    def __init__(self, source: Graph | MonomialIdeal, cfg: SweepConfig):
        self.cfg = cfg
        self.ideal = cls = None
        if isinstance(source, MonomialIdeal):
            cls = classify_big_degree(source)
            if cls.case is BigDegreeCase.COMPLEMENTARY_EDGE:
                source, cls = cls.graph, None
            else:
                outside = [c for c in cfg.checks if cls.case not in _OTHER_CASES.get(c, ())]
                if outside or cls.case is BigDegreeCase.NOT_APPLICABLE:
                    raise ValueError(f"checks {outside} do not apply to the {cls.case.value} case")
                self.ideal = source
                source = cls.graph if cls.graph is not None else Graph(cls.ambient, frozenset())
        else:
            formulas._require_formula_hypotheses(source)
        self.g = source
        self.canon, perm = canonical_form(source)
        if cls is None:
            self.cls = CaseClassification(BigDegreeCase.COMPLEMENTARY_EDGE, source.n, graph=self.canon)
        else:
            # the marked variables are isolated: move them to the lowest isolated labels
            marked = {perm[i] for i in cls.degree_n1_vars}
            isolated = sorted(self.canon.isolated_vertices)
            moved = dict(zip(sorted(isolated, key=lambda v: v not in marked), isolated))
            perm = tuple(moved.get(p, p) for p in perm)
            graph = self.canon if cls.graph is not None else None
            self.cls = replace(cls, graph=graph, degree_n1_vars=frozenset(isolated[: len(marked)]))
        self.inverse, self.labels = _relabeling(perm)
        self._results = _class_memo(self.cls)
        self._powers: list[MonomialIdeal] = []
        self._scans: dict[int, tuple[frozenset[int], int]] = {}
        self._invariants: dict[int, HomologicalInvariants] = {}

    def names(self, masks: Iterable[int]) -> list[tuple[int, ...]]:
        """Canonical vertex bitmasks as the labeled graph's vertex sets,
        the shared 1-based tuples of :func:`_report_order`, in the report
        order."""
        return [name for _, name in sorted(map(self.labels.__getitem__, masks))]

    def power(self, k: int) -> MonomialIdeal:
        """The k-th power of I_c of the canonical form, or of the ideal with
        its variables permuted as the canonical form's."""
        if not self._powers:
            if self.ideal is None:
                first = complementary_edge_ideal(self.canon)
            else:
                first = _generated_by(self.g.n, self.ideal.exponents[:, list(self.inverse)])
            self._powers.append(first)
        while len(self._powers) < k:
            self._powers.append(multiply(self._powers[-1], self._powers[0]))
        return self._powers[k - 1]

    def _record(self, key: tuple, compute):
        """compute(), kept in the class record under ``key`` and the limits
        in force."""
        key += ideals.limits()
        if key not in self._results:
            self._results[key] = compute()
        return self._results[key]

    def closed_form(self, name: str, graph, *args):
        """``formulas.<name>(graph, *args)``, where ``graph`` is ``canon`` or
        ``cls``, kept per class by ``name`` and ``args``.  It builds no power."""
        return self._record((name, *args), lambda: getattr(formulas, name)(graph, *args))

    def witnesses(self, k: int) -> tuple[frozenset[int], int]:
        """Ass(I^k) of the canonical form as vertex bitmasks, and v(I^k),
        from one scan, read from the class record once per state."""
        if k not in self._scans:

            def compute():
                found = _prime_colon_witnesses(self.power(k))
                return found.prime_masks(), found.least().v

            self._scans[k] = self._record(("prime_colon_witnesses", k), compute)
        return self._scans[k]

    def asses(self) -> list[frozenset[int]]:
        return [self.witnesses(k)[0] for k in range(1, self.cfg.k_max + 1)]

    def localization_mismatches(self) -> tuple[int, ...]:
        """The canonical vertex bitmasks F whose row of
        :func:`compedge.formulas.localization_table` differs from
        :func:`_localization_supports` of I_c of the canonical form; neither
        table is kept.  Tables of more than ``ideals.BOX_CELL_LIMIT`` cells
        are refused."""

        def compute():
            n, limit = self.g.n, ideals.BOX_CELL_LIMIT
            cells = ((1 << n) - 1) << n
            if cells > limit:
                raise LimitExceededError(f"localization table has {cells} cells, limit {limit}")
            subsets = np.arange(1, 1 << n)
            oracle = _localization_supports(self.power(1), subsets)
            formula = formulas.localization_table(self.canon, subsets)
            return tuple(subsets[(oracle != formula).any(axis=1)].tolist())

        return self._record(("localization_table",), compute)

    def invariants(self, k: int) -> HomologicalInvariants:
        """reg, pd and depth of I^k over the first prime, read from the
        class record once per state."""
        if k not in self._invariants:
            p = self.cfg.primes[0]
            self._invariants[k] = self._record(
                ("reg_pd_depth", k, p), lambda: reg_pd_depth(self.power(k), p)
            )
        return self._invariants[k]

    def linear(self, k: int) -> tuple[bool, bool]:
        """Whether I^k has linear quotients, and whether it is
        componentwise linear."""
        p, limit = self.cfg.primes[0], self.cfg.lq_limit
        return self._record(
            ("linear", k, p, limit),
            lambda: (
                _linear_quotients_order(self.power(k), limit) is not None,
                is_componentwise_linear(self.power(k), p),
            ),
        )

    def same_betti_tables(self, k: int) -> bool:
        primes = self.cfg.primes
        return self._record(
            ("betti-field-independence", k, primes),
            lambda: _same_betti_tables(self.power(k), primes),
        )

    def symbolic(self) -> bool:
        """I^(2) = I^2."""
        return self._record(("symbolic",), lambda: _symbolic_equals_ordinary(self.power(1), self.power(2), 2))

    def strong_persistence(self) -> tuple[bool, int | None]:
        """Whether I^(k+1) : I = I^k for every k <= k_max, and the first k
        where it fails."""
        k_max = self.cfg.k_max

        def compute():
            powers = (self.power(k) for k in range(1, k_max + 2))
            res = _strong_persistence(self.power(1), powers)
            return res.holds, res.first_failure

        return self._record(("strong-persistence", k_max), compute)


def _check_ass(st: _GraphState, rpt: VerificationReport) -> bool:
    asses = st.asses()
    first = st.closed_form("ass_first_power_masks", st.canon)
    stable = st.closed_form("ass_infinity_masks", st.canon)
    ok = asses[0] == first
    for k in range(1, st.cfg.k_max + 1):
        entry = rpt.per_k.setdefault(k, {})
        entry["ass_oracle"] = st.names(asses[k - 1])
        if k == 1:
            entry["ass_formula_match"] = asses[0] == first
        elif k >= st.g.n - 2:
            match = asses[k - 1] == stable
            entry["ass_formula_match"] = match
            ok = ok and match
        else:
            entry["ass_formula_match"] = None
    rpt.details["ass"] = {
        "first_power_formula": st.names(first),
        "stable_formula": st.names(stable),
    }
    return ok


def _check_persistence(st: _GraphState, rpt: VerificationReport) -> bool:
    loss = _first_loss(st.asses())
    if loss is not None:
        k, lost = loss
        rpt.details["persistence"] = {
            "violation_k": k,
            "lost_prime": st.names(lost)[0],
        }
    return loss is None


def _check_entry_bound(st: _GraphState, rpt: VerificationReport) -> bool:
    stable = st.closed_form("ass_infinity_masks", st.canon)
    asses = st.asses()
    rows = []
    ok = True
    for F in sorted(stable, key=st.labels.__getitem__):
        prime = st.labels[F][1]
        if len(prime) < 2:
            continue
        bound = formulas._entry_bound(len(prime))
        observed = next(
            (k for k in range(1, st.cfg.k_max + 1) if F in asses[k - 1]), None
        )
        rows.append({"prime": prime, "bound": bound, "observed_entry": observed})
        if bound <= st.cfg.k_max and (observed is None or observed > bound):
            ok = False
    rpt.details["entry-bound"] = rows
    return ok


def _localization_supports(I: MonomialIdeal, subsets: np.ndarray) -> np.ndarray:
    """Monomial localizations of a squarefree I, one row per vertex bitmask
    F in ``subsets``: setting the variables outside F to 1 sends the
    generator with support m to the one with support m & F.  Rows mark the
    minimal supports, as in :func:`compedge.formulas.localization_table`."""
    gens = (I.exponents > 0) @ (1 << np.arange(I.ambient, dtype=np.int64))
    supports = subsets[:, None] & gens[None, :]
    return minimal_supports(supports, np.ones(supports.shape, dtype=bool), I.ambient)


def _check_localization(st: _GraphState, rpt: VerificationReport) -> bool:
    bad = st.localization_mismatches()
    if bad:
        rpt.details["localization"] = {"mismatched_subsets": st.names(bad)}
    return not bad


def _check_reg(st: _GraphState, rpt: VerificationReport) -> bool:
    ok = True
    for k in range(1, st.cfg.k_max + 1):
        oracle = st.invariants(k).regularity
        predicted = st.closed_form("reg_closed_form", st.cls, k)
        entry = rpt.per_k.setdefault(k, {})
        entry["reg_oracle"] = oracle
        entry["reg_formula"] = predicted
        ok = ok and oracle == predicted
    return ok


def _check_depth_monotone(st: _GraphState, rpt: VerificationReport) -> bool:
    depths = []
    for k in range(1, st.cfg.k_max + 1):
        d = st.invariants(k).depth
        rpt.per_k.setdefault(k, {})["depth_oracle"] = d
        depths.append(d)
    return all(depths[i] >= depths[i + 1] for i in range(len(depths) - 1))


def _check_depth_stable(st: _GraphState, rpt: VerificationReport) -> bool | None:
    stable_depth, dstab_bound = st.closed_form("depth_and_dstab_closed_form", st.cls)
    if st.cfg.k_max < dstab_bound:
        rpt.skipped["depth-stable"] = (
            f"needs k_max >= {dstab_bound} to reach the stabilized value"
        )
        return None
    observed = st.invariants(dstab_bound).depth
    rpt.details["depth-stable"] = {
        "stable_depth_formula": stable_depth,
        "depth_at_dstab_bound": observed,
        "dstab_bound": dstab_bound,
    }
    return observed == stable_depth


def _check_v(st: _GraphState, rpt: VerificationReport) -> bool:
    ok = True
    for k in range(1, st.cfg.k_max + 1):
        v = st.witnesses(k)[1]
        predicted = st.closed_form("v_closed_form", st.canon, k)
        entry = rpt.per_k.setdefault(k, {})
        entry["v_oracle"] = v
        entry["v_formula"] = predicted
        lower = (st.g.n - 2) * k - 1
        ok = ok and v == predicted and v >= lower
    return ok


def _check_symbolic(st: _GraphState, rpt: VerificationReport) -> bool:
    predicted = st.closed_form("symbolic_equals_ordinary_class", st.canon)
    actual = st.symbolic()
    rpt.details["symbolic"] = {
        "class_predicate": predicted,
        "second_power_symbolic_equals_ordinary": actual,
    }
    return predicted == actual


def _check_linear(st: _GraphState, rpt: VerificationReport) -> bool:
    predicted = st.closed_form("linear_powers_predicate", st.cls)
    per_k = {}
    ok = True
    for k in range(1, min(st.cfg.k_max, 3) + 1):
        lq, cl = st.linear(k)
        per_k[k] = {"linear_quotients": lq, "componentwise_linear": cl}
        ok = ok and lq == predicted and cl == predicted
    rpt.details["linear"] = {"predicted": predicted, "per_k": per_k}
    return ok


def _check_betti_field_independence(
    st: _GraphState, rpt: VerificationReport
) -> bool | None:
    if len(st.cfg.primes) < 2:
        rpt.skipped["betti-field-independence"] = "needs at least two primes"
        return None
    ok = True
    for k in range(1, min(st.cfg.k_max, 2) + 1):
        same = st.same_betti_tables(k)
        ok = ok and same
        if not same:
            Ik = power(complementary_edge_ideal(st.g) if st.ideal is None else st.ideal, k)
            rpt.details.setdefault("betti-field-independence", {})[str(k)] = {
                str(p): betti_table(Ik, p).to_json_dict() for p in st.cfg.primes
            }
    return ok


def _check_strong_persistence(st: _GraphState, rpt: VerificationReport) -> None:
    holds, first_failure = st.strong_persistence()
    rpt.details["strong-persistence"] = {
        "observed_holds": holds,
        "first_failure_k": first_failure,
    }
    rpt.skipped["strong-persistence"] = "informational: open question, not asserted"
    return None


_CHECK_FUNCS = {
    "ass": _check_ass,
    "persistence": _check_persistence,
    "entry-bound": _check_entry_bound,
    "localization": _check_localization,
    "reg": _check_reg,
    "depth-monotone": _check_depth_monotone,
    "depth-stable": _check_depth_stable,
    "v": _check_v,
    "symbolic": _check_symbolic,
    "linear": _check_linear,
    "betti-field-independence": _check_betti_field_independence,
    "strong-persistence": _check_strong_persistence,
}


ALL_CHECKS = tuple(_CHECK_FUNCS)


@dataclass(frozen=True)
class SweepConfig:
    """What a sweep checks: the powers up to ``k_max``, the field
    characteristics, the generator cap of the linear-quotients search and a
    per-graph time budget.  The box limits are module constants, not fields.
    ``k_max``, ``lq_limit`` and each prime must be an ``int``, and
    ``budget_ms`` ``None`` or a non-negative ``int`` or ``float``.  ``checks``
    may name ``"all"``; it is kept as the selected names in ``ALL_CHECKS``
    order, and ``primes`` as a tuple, so that a config and the memo keys
    built from it hash."""

    k_max: int = 3
    checks: tuple[str, ...] = ALL_CHECKS
    primes: tuple[int, ...] = (2, 3)
    lq_limit: int = DEFAULT_QUOTIENTS_LIMIT
    budget_ms: float | None = None

    def __post_init__(self):
        _require_int("k_max", self.k_max, 1)
        _require_int("lq_limit", self.lq_limit, 1)
        for name, value in (("checks", self.checks), ("primes", self.primes)):
            if isinstance(value, str):
                raise ValueError(f"{name} must be a sequence, not the string {value!r}")
        if self.budget_ms is not None:
            if isinstance(self.budget_ms, bool) or not isinstance(self.budget_ms, (int, float)):
                raise ValueError(f"budget_ms must be a number, got {self.budget_ms!r}")
            if not self.budget_ms >= 0:  # NaN too
                raise ValueError(f"budget_ms must be at least 0, got {self.budget_ms}")
        object.__setattr__(self, "primes", tuple(self.primes))
        if not self.primes:
            raise ValueError("primes must name at least one characteristic")
        for p in self.primes:
            _require_int("primes", p)
            _check_prime(p)
        if len(set(self.primes)) < len(self.primes):
            raise ValueError(f"primes {self.primes} repeat a characteristic")
        unknown = [c for c in self.checks if c != "all" and c not in _CHECK_FUNCS]
        if unknown:
            raise ValueError(f"unknown checks {unknown}; available: {ALL_CHECKS}")
        selected = ALL_CHECKS if "all" in self.checks else [c for c in ALL_CHECKS if c in self.checks]
        object.__setattr__(self, "checks", tuple(selected))


def run_graph_checks(source: Graph | MonomialIdeal, cfg: SweepConfig) -> VerificationReport:
    """Run the selected checks on one graph or one ideal, degrading to
    per-check skips on limit or budget overruns rather than aborting.

    A graph must meet the closed forms' hypotheses, n >= 3 and an edge.  An
    ideal must lie in the trichotomy of :func:`classify_big_degree`, and a
    check on it in the cases ``_OTHER_CASES`` gives it, or in the
    complementary-edge case, where the ideal is checked as its graph; else
    ``ValueError`` is raised before any check runs."""
    start = time.perf_counter()
    st = _GraphState(source, cfg)
    rpt = VerificationReport(graph=st.g, ideal=st.ideal)
    for name in cfg.checks:
        t0 = time.perf_counter()
        if cfg.budget_ms is not None and (t0 - start) * 1000.0 > cfg.budget_ms:
            rpt.summary[name] = None
            rpt.skipped[name] = f"budget of {cfg.budget_ms} ms exceeded"
        else:
            try:
                rpt.summary[name] = _CHECK_FUNCS[name](st, rpt)
            except LimitExceededError as exc:
                rpt.summary[name] = None
                rpt.skipped[name] = f"limit: {exc}"
        rpt.timings_ms[name] = (time.perf_counter() - t0) * 1000.0
    return rpt


def sweep(
    n_max: int, cfg: SweepConfig | None = None, n_min: int | None = None
) -> list[VerificationReport]:
    """Run the selected checks over every labeled graph with at least one
    edge on n_min..n_max vertices, in deterministic census order, one graph
    after another in this process, so each class's oracles run once."""
    cfg = cfg or SweepConfig()
    n_min = n_max if n_min is None else n_min
    _require_int("n_max", n_max)
    _require_int("n_min", n_min)
    if n_min < 3:
        raise ValueError("sweep needs n >= 3 (smaller graphs give improper ideals)")
    if n_min > n_max:
        raise ValueError(f"n_min {n_min} exceeds n_max {n_max}: no graphs to check")
    graphs = [
        g
        for n in range(n_min, n_max + 1)
        for g in enumerate_labeled_graphs(n)
        if g.edges
    ]
    return [run_graph_checks(g, cfg) for g in graphs]


# ---------------------------------------------------------------------------
# report output


def write_reports_jsonl(reports: Iterable[VerificationReport], path) -> None:
    with open(path, "w") as fh:
        for rpt in reports:
            fh.write(json.dumps(rpt.to_json_dict(), sort_keys=True))
            fh.write("\n")


def markdown_summary(reports: list[VerificationReport]) -> str:
    """Aggregate pass/fail/skip counts per check, plus a failure listing."""
    counts: dict[str, list[int]] = {}
    failures: list[tuple[str, str, str]] = []
    for rpt in reports:
        for name, outcome in rpt.summary.items():
            row = counts.setdefault(name, [0, 0, 0])
            if outcome is True:
                row[0] += 1
            elif outcome is False:
                row[1] += 1
                detail = json.dumps(rpt.details.get(name, {}), sort_keys=True)
                if len(detail) > 120:
                    detail = detail[:117] + "..."
                label = to_graph6(rpt.graph) if rpt.ideal is None else str(rpt.ideal)
                failures.append((label, name, detail))
            else:
                row[2] += 1
    lines = [
        "# Sweep summary",
        "",
        f"Graphs checked: {len(reports)}",
        "",
        "| check | pass | fail | skipped |",
        "|---|---|---|---|",
    ]
    for name in ALL_CHECKS:
        if name in counts:
            p, f, s = counts[name]
            lines.append(f"| {name} | {p} | {f} | {s} |")
    if failures:
        lines += ["", "## Failures", ""]
        lines += [f"- `{g6}` {name}: {detail}" for g6, name, detail in failures]
    return "\n".join(lines) + "\n"


def sweep_passed(reports: list[VerificationReport]) -> bool:
    """True iff every check that was decided passed; a skipped or
    informational check reads None."""
    return all(outcome is not False for rpt in reports for outcome in rpt.summary.values())
