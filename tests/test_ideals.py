import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import compedge.ideals
from compedge.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    enumerate_labeled_graphs,
    matching_graph,
    path_graph,
    with_isolated,
)
from compedge.ideals import (
    BigDegreeCase,
    LimitExceededError,
    MonomialIdeal,
    classify_big_degree,
    colon,
    colon_ideal,
    complementary_edge_ideal,
    divisor_counts,
    edge_ideal,
    graded_component,
    ideal,
    intersect,
    localize,
    membership_box,
    minimal_primes_squarefree,
    multiply,
    parse_ideal,
    power,
    prime_power,
    symbolic_power,
    unit_ideal,
    zero_ideal,
)
from compedge.monomials import Monomial, one, parse_monomial


def I_(text, ambient):
    return parse_ideal(text, ambient)


def divisors(u):
    """Reference enumeration of the divisors of ``u``, each once, the last
    exponent varying fastest."""
    for exps in itertools.product(*(range(e + 1) for e in u.exponents)):
        yield Monomial(exps)


def paw():
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def divisor_counts_reference(I, bound):
    """The divisor-count table built with one ``np.cumsum`` per axis, as
    :func:`divisor_counts` did before its in-place slab sums."""
    shape = tuple(e + 1 for e in bound.exponents)
    dtype = np.min_scalar_type(len(I.exponents))
    counts = np.zeros(shape, dtype=dtype)
    gens = I.exponents
    inside = gens[(gens <= np.array(bound.exponents)).all(axis=1)]
    np.add.at(counts, tuple(inside.T), 1)
    for axis in range(counts.ndim):
        np.cumsum(counts, axis=axis, dtype=dtype, out=counts)
    return counts


def assert_table_matches_reference(I, bound):
    got, want = divisor_counts(I, bound), divisor_counts_reference(I, bound)
    assert got.dtype == want.dtype, str(I)
    assert np.array_equal(got, want), str(I)


# an ideal in up to 8 variables, either a few random generators or a prime
# power (P_F^k has more than 255 generators when |F| = 8 and k = 4), with a
# bound whose exponents, from 0 to 4, may leave generators outside the box
# and give axes of length 1
table_inputs = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.one_of(
            st.lists(
                st.tuples(*([st.integers(0, 3)] * n)).map(Monomial), min_size=1, max_size=8
            ).map(lambda gens: ideal(gens, n)),
            st.tuples(st.sets(st.integers(0, n - 1), min_size=1), st.integers(1, 4)).map(
                lambda fk: prime_power(fk[0], fk[1], n)
            ),
        ),
        st.tuples(*([st.integers(0, 4)] * n)).map(Monomial),
    )
)


small_ideals = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.tuples(*([st.integers(0, 3)] * n)).map(Monomial),
        min_size=1,
        max_size=6,
    ).map(lambda gens: ideal(gens, n))
)


class TestMinimalize:
    def test_drops_multiples(self):
        assert I_("(x1, x1*x2)", 2) == I_("(x1)", 2)

    def test_keeps_antichain(self):
        assert I_("(x1*x2, x2*x3, x1*x2*x3)", 3) == I_("(x1*x2, x2*x3)", 3)

    def test_one_wins(self):
        assert I_("(1, x1)", 2) == unit_ideal(2)

    def test_canonical_order(self):
        I = ideal([parse_monomial(s, 3) for s in ["x1*x2", "x3", "x2^2"]], 3)
        assert [str(g) for g in I.generators] == ["x3", "x2^2", "x1*x2"]

    @given(small_ideals)
    def test_generators_form_antichain(self, I):
        for g, h in itertools.permutations(I.generators, 2):
            assert not g.divides(h)


# The closures as they were built before one helper minimalized every
# generating set: per-pair comprehensions and a plain O(m^2) dominance test.
# They are the reference the library's closures are compared against.


def _ref_minimal(vectors):
    uniq = set(vectors)
    mins = [
        t
        for t in uniq
        if not any(s != t and all(a <= b for a, b in zip(s, t)) for s in uniq)
    ]
    return tuple(sorted(mins, key=lambda t: (sum(t), t)))


def _ref_multiply(A, B):
    return _ref_minimal(tuple(a + b for a, b in zip(g, h)) for g in A for h in B)


def _ref_intersect(A, B):
    return _ref_minimal(tuple(max(a, b) for a, b in zip(g, h)) for g in A for h in B)


def _ref_colon(A, u):
    return _ref_minimal(tuple(max(a - b, 0) for a, b in zip(g, u)) for g in A)


def _ref_colon_ideal(A, B, ambient):
    if not B:
        return ((0,) * ambient,)
    out = _ref_colon(A, B[0])
    for v in B[1:]:
        out = _ref_intersect(out, _ref_colon(A, v))
    return out


def _ref_localize(A, F):
    return _ref_minimal(tuple(g[i] for i in F) for g in A)


def _ref_graded_component(A, j, ambient):
    """Every degree-j monomial that some generator divides."""
    out = []
    for combo in itertools.combinations_with_replacement(range(ambient), j):
        t = tuple(combo.count(i) for i in range(ambient))
        if any(all(a <= b for a, b in zip(g, t)) for g in A):
            out.append(t)
    return _ref_minimal(out)


def _exps(I):
    return tuple(g.exponents for g in I.generators)


def _closure_mismatches(I, J, u, F, j, extra):
    """Names of the closures whose generators differ from the reference."""
    A, B, n = _exps(I), _exps(J), I.ambient
    gens = list(I.generators) + list(J.generators) + extra
    pairs = {
        "ideal": (ideal(gens, n), _ref_minimal(g.exponents for g in gens)),
        "multiply": (multiply(I, J), _ref_multiply(A, B)),
        "intersect": (intersect(I, J), _ref_intersect(A, B)),
        "colon": (colon(I, u), _ref_colon(A, u.exponents)),
        "colon_ideal": (colon_ideal(I, J), _ref_colon_ideal(A, B, n)),
        "localize": (localize(I, F), _ref_localize(A, F)),
        "graded_component": (graded_component(I, j), _ref_graded_component(A, j, n)),
    }
    return [name for name, (got, want) in pairs.items() if _exps(got) != want]


class TestClosuresAgreeWithReference:
    def test_random_ideals(self, random_ideals):
        rng = random.Random(41)
        ideals = random_ideals(rng, 1000)
        by_ambient = {}
        for I in ideals:
            by_ambient.setdefault(I.ambient, []).append(I)
        mismatches = []
        for I in ideals:
            n = I.ambient
            J = rng.choice(by_ambient[n] + [zero_ideal(n), unit_ideal(n)])
            u = Monomial(tuple(rng.randint(0, 3) for _ in range(n)))
            F = sorted(rng.sample(range(n), rng.randint(1, n)))
            j = I.indeg + rng.randint(0, 2)
            # multiples and repeats of the generators, for ideal() to drop
            extra = [rng.choice(I.generators) * u, I.generators[0]]
            names = _closure_mismatches(I, J, u, F, j, extra)
            mismatches += [(I, J, name) for name in names]
        assert mismatches == []

    def test_census_powers(self, edged_census):
        rng = random.Random(43)
        mismatches = []
        for g in edged_census[3] + edged_census[4]:
            I = complementary_edge_ideal(g)
            ref_power = ((0,) * g.n,)
            for k in (1, 2, 3):
                P = power(I, k)
                ref_power = _ref_multiply(ref_power, _exps(I))
                if _exps(P) != ref_power:
                    mismatches.append((g, k, "power"))
                u = Monomial(tuple(rng.randint(0, 2) for _ in range(g.n)))
                F = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
                extra = [h * u for h in P.generators]
                names = _closure_mismatches(P, I, u, F, P.indeg + 1, extra)
                mismatches += [(g, k, name) for name in names]
        assert mismatches == []

    def test_zero_and_unit_ideals(self):
        u, F = parse_monomial("x1*x3^2", 3), [0, 2]
        trivial = [zero_ideal(3), unit_ideal(3), I_("(x1*x2, x3^2)", 3)]
        mismatches = [
            (I, J, name)
            for I in trivial[:2]
            for J in trivial
            for name in _closure_mismatches(I, J, u, F, 1, [])
        ]
        assert mismatches == []

    def test_large_exponents(self):
        # past the int16 range: all one degree, then mixed degrees
        gens = [Monomial((40000 + i, 60 - i)) for i in range(60)]
        I = ideal(gens, 2)
        assert _exps(I) == tuple(sorted(g.exponents for g in gens))
        multiples = [Monomial((40000 + i, 61 - i)) for i in range(60)]
        assert ideal(gens + multiples, 2) == I
        assert _exps(intersect(I, I_("(x1^40001)", 2))) == _ref_intersect(
            _exps(I), ((40001, 0),)
        )


class TestRepresentation:
    def test_exponents_are_a_read_only_int64_matrix(self):
        I = I_("(x1*x2, x3^2, x2*x3*x4)", 4)
        assert I.exponents.dtype == np.int64
        assert I.exponents.shape == (3, 4)
        with pytest.raises(ValueError):
            I.exponents[0, 0] = 5
        assert zero_ideal(4).exponents.shape == (0, 4)
        assert unit_ideal(4).exponents.shape == (1, 4)

    def test_one_value_however_built(self):
        rng = random.Random(7)
        I = complementary_edge_ideal(cycle_graph(5))
        I2 = power(I, 2)
        gens = list(I2.generators)
        rng.shuffle(gens)
        extra = [g * h for g in gens[:5] for h in I.generators[:2]]
        builds = [
            I2,
            ideal(gens + extra + gens[:3], 5),
            multiply(I, I),
            MonomialIdeal.from_json_dict(I2.to_json_dict()),
        ]
        assert all(J == I2 and hash(J) == hash(I2) for J in builds)
        assert len({J: None for J in builds}) == 1
        assert I2 != I and I2 != power(I, 3)
        assert zero_ideal(3) != zero_ideal(4)

    def test_raw_constructor_checks_the_width(self):
        with pytest.raises(ValueError, match="columns"):
            MonomialIdeal(3, np.zeros((2, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="columns"):
            MonomialIdeal(3, np.zeros(3, dtype=np.int64))

    def test_json_serialization_is_unchanged(self):
        def text(J):
            return json.dumps(J.to_json_dict(), sort_keys=True, separators=(",", ":"))

        I2 = power(complementary_edge_ideal(cycle_graph(5)), 2)
        assert text(I2) == (
            '{"ambient":5,"generators":[[0,0,2,2,2],[0,1,2,2,1],[0,2,2,2,0],'
            "[1,0,1,2,2],[1,1,1,1,2],[1,1,1,2,1],[1,1,2,1,1],[1,2,1,1,1],"
            "[1,2,2,1,0],[2,0,0,2,2],[2,1,0,1,2],[2,1,1,1,1],[2,2,0,0,2],"
            "[2,2,1,0,1],[2,2,2,0,0]]}"
        )
        assert text(unit_ideal(3)) == '{"ambient":3,"generators":[[0,0,0]]}'
        assert text(zero_ideal(3)) == '{"ambient":3,"generators":[]}'


class TestMembership:
    def test_examples(self):
        I = I_("(x1*x2, x3*x4)", 4)
        assert parse_monomial("x1*x2*x3", 4) in I
        assert parse_monomial("x1*x3", 4) not in I
        assert one(4) not in zero_ideal(4)

    def test_unit_contains_everything(self):
        assert one(2) in unit_ideal(2)

    def test_membership_box_agrees_with_divides(self):
        I = I_("(x1^2, x2*x3, x1*x3^2)", 3)
        # the second bound leaves the generator x1^2 outside the box
        for text in ("x1^2*x2*x3^2", "x1*x2*x3^2"):
            bound = parse_monomial(text, 3)
            box = membership_box(I, bound)
            counts = divisor_counts(I, bound)
            assert counts.shape == box.shape == tuple(e + 1 for e in bound.exponents)
            for u in divisors(bound):
                assert box[u.exponents] == (u in I)
                assert counts[u.exponents] == sum(g.divides(u) for g in I.generators)

    def test_divisor_counts_box_limit(self, monkeypatch):
        I = I_("(x1^3*x2^3, x3^3*x4^3)", 4)
        bound = I.lcm_of_generators()
        monkeypatch.setattr(compedge.ideals, "BOX_CELL_LIMIT", 256)
        assert divisor_counts(I, bound).shape == (4, 4, 4, 4)
        monkeypatch.setattr(compedge.ideals, "BOX_CELL_LIMIT", 255)
        with pytest.raises(LimitExceededError, match="256 cells, limit 255"):
            divisor_counts(I, bound)

    def test_direct_table_callers_are_bounded(self):
        # (x1^9, ..., x7^9): a divisor box of 10^7 cells, over the default limit
        I = ideal([Monomial(tuple(9 * (i == j) for j in range(7))) for i in range(7)], 7)
        bound = I.lcm_of_generators()
        for table in (divisor_counts, membership_box):
            with pytest.raises(LimitExceededError, match="divisor box has 10000000 cells, limit 5000000"):
                table(I, bound)

    def test_divisor_counts_past_255_generators(self):
        # 1140 generators, all dividing the top cell of the lcm box
        I = power(I_("(x1, x2, x3, x4)", 4), 17)
        counts = divisor_counts(I, I.lcm_of_generators())
        assert counts[(17, 17, 17, 17)] == len(I.generators) == 1140
        assert counts[(17, 0, 0, 0)] == 1

    @given(small_ideals)
    def test_divisor_counts_on_the_lcm_box(self, I):
        if I.is_zero:
            return
        bound = I.lcm_of_generators()
        counts = divisor_counts(I, bound)
        for u in divisors(bound):
            assert counts[u.exponents] == sum(g.divides(u) for g in I.generators)

    @given(table_inputs)
    @example((ideal([Monomial((2,))], 1), Monomial((3,))))
    @example((prime_power(range(8), 4, 8), Monomial((4,) * 8)))
    def test_divisor_counts_agree_with_reference(self, case):
        I, bound = case
        assert_table_matches_reference(I, bound)

    def test_divisor_counts_agree_with_reference_on_census_powers(self, edged_classes):
        ideals = [
            power(complementary_edge_ideal(g), k)
            for n in (3, 4, 5)
            for g in edged_classes[n]
            for k in (1, 2, 3)
        ]
        ideals += [power(complementary_edge_ideal(g), 4) for g in (cycle_graph(7), path_graph(7))]
        for I in ideals:
            assert_table_matches_reference(I, I.lcm_of_generators())

    def test_divisor_counts_memory_is_the_table(self):
        # the prefix sums run in place: no temporary of the box's size
        I = power(complementary_edge_ideal(cycle_graph(7)), 5)
        bound = I.lcm_of_generators()
        tracemalloc.start()
        try:
            counts = divisor_counts(I, bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.shape == (6,) * 7 and counts.dtype == np.uint16
        assert peak <= 1.1 * counts.nbytes + (64 << 10)


class TestProductPower:
    def test_binomial_square(self):
        assert power(I_("(x1, x2)", 2), 2) == I_("(x1^2, x1*x2, x2^2)", 2)

    def test_matching_square(self):
        I = I_("(x1*x2, x3*x4)", 4)
        assert power(I, 2) == I_("(x1^2*x2^2, x1*x2*x3*x4, x3^2*x4^2)", 4)

    def test_unit_is_identity(self):
        I = I_("(x1*x2, x3)", 3)
        assert multiply(I, unit_ideal(3)) == I
        assert power(I, 0) == unit_ideal(3)
        assert power(I, 1) == I

    @given(small_ideals, st.integers(1, 2), st.integers(1, 2))
    def test_power_additivity(self, I, a, b):
        assert multiply(power(I, a), power(I, b)) == power(I, a + b)


class TestIntersect:
    def test_principal(self):
        assert intersect(I_("(x1)", 2), I_("(x2)", 2)) == I_("(x1*x2)", 2)

    def test_two_primes(self):
        got = intersect(I_("(x1, x2)", 3), I_("(x2, x3)", 3))
        assert got == I_("(x2, x1*x3)", 3)

    def test_containment(self):
        assert intersect(I_("(x1^2)", 1), I_("(x1)", 1)) == I_("(x1^2)", 1)

    @given(small_ideals, small_ideals)
    def test_intersection_contained_in_both(self, I, J):
        if I.ambient != J.ambient:
            return
        meet = intersect(I, J)
        assert I.contains_ideal(meet) and J.contains_ideal(meet)


class TestColon:
    def test_gcd_formula(self):
        assert colon(I_("(x1*x2, x3*x4)", 4), parse_monomial("x1", 4)) == I_(
            "(x2, x3*x4)", 4
        )

    def test_power_colon(self):
        assert colon(I_("(x1^2, x1*x2, x2^2)", 2), parse_monomial("x1", 2)) == I_(
            "(x1, x2)", 2
        )

    def test_self_colon_is_unit(self):
        I = I_("(x1*x2)", 2)
        assert colon(I, parse_monomial("x1*x2", 2)) == unit_ideal(2)
        assert colon_ideal(I, I) == unit_ideal(2)

    @given(small_ideals, st.tuples(*([st.integers(0, 2)] * 3)))
    def test_colon_contains_ideal(self, I, exps):
        if I.ambient != 3:
            return
        u = Monomial(exps)
        Q = colon(I, u)
        assert Q.contains_ideal(I)
        # (I : u) * (u) is inside I
        for q in Q.generators:
            assert q * u in I


class TestLocalization:
    def test_unit_when_generator_dies(self):
        I = complementary_edge_ideal(path_graph(3))  # (x3, x1)
        assert localize(I, [0, 1]) == unit_ideal(2)

    def test_coordinate_projection(self):
        assert localize(I_("(x1*x2, x3*x4)", 4), [0, 2]) == I_("(x1, x2)", 2)

    def test_paw_example(self):
        # substitute x2, x3 -> 1 in I_c(paw) and minimalize
        I = complementary_edge_ideal(paw())
        assert localize(I, [0, 3]) == I_("(x1, x2)", 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            localize(I_("(x1)", 2), [])

    def test_commutes_with_powers_on_census(self, edged_census):
        rng = random.Random(0)
        graphs = edged_census[4] + rng.sample(edged_census[5], 40)
        for g in graphs:
            I = complementary_edge_ideal(g)
            F = rng.sample(range(g.n), rng.randint(1, g.n))
            k = rng.randint(1, 3)
            assert localize(power(I, k), F) == power(localize(I, F), k)


class TestGraphIdealDictionary:
    def test_complementary_examples(self):
        assert complementary_edge_ideal(path_graph(3)) == I_("(x3, x1)", 3)
        assert complementary_edge_ideal(cycle_graph(4)) == I_(
            "(x3*x4, x2*x3, x1*x4, x1*x2)", 4
        )
        assert complementary_edge_ideal(matching_graph(2)) == I_("(x3*x4, x1*x2)", 4)

    def test_degenerate_graphs(self):
        assert complementary_edge_ideal(with_isolated(matching_graph(1), 0)).is_unit
        assert complementary_edge_ideal(Graph(3, frozenset())).is_zero

    def test_edge_ideal_examples(self):
        assert edge_ideal(path_graph(3)) == I_("(x1*x2, x2*x3)", 3)
        assert edge_ideal(complete_graph(3)) == I_("(x1*x2, x1*x3, x2*x3)", 3)
        assert edge_ideal(Graph(2, frozenset())).is_zero


class TestClassification:
    def test_case_complementary(self):
        cls = classify_big_degree(I_("(x3*x4, x1*x2)", 4))
        assert cls.case is BigDegreeCase.COMPLEMENTARY_EDGE
        assert cls.graph == matching_graph(2)

    def test_case_mixed(self):
        cls = classify_big_degree(I_("(x1*x2, x1*x3*x4)", 4))
        assert cls.case is BigDegreeCase.MIXED
        assert cls.graph == Graph.from_edges(4, [(2, 3)])
        assert cls.degree_n1_vars == {1}

    def test_case_veronese(self):
        cls = classify_big_degree(
            I_("(x1*x2*x3, x1*x2*x4, x1*x3*x4, x2*x3*x4)", 4)
        )
        assert cls.case is BigDegreeCase.MATROIDAL_VERONESE
        assert cls.veronese_degree == 3
        assert cls.degree_n1_vars == {0, 1, 2, 3}

    def test_matroidal_case_records_the_omitted_variables(self):
        # so that the classification tells (x1x2x3, x1x2x4) from V(4,3)
        cls = classify_big_degree(I_("(x1*x2*x3, x1*x2*x4)", 4))
        assert cls.case is BigDegreeCase.MATROIDAL_VERONESE
        assert (cls.graph, cls.degree_n1_vars, cls.veronese_degree) == (None, {2, 3}, 3)
        assert classify_big_degree(I_("(x1*x2*x3*x4)", 4)).degree_n1_vars == frozenset()

    def test_not_applicable(self):
        cls = classify_big_degree(I_("(x1)", 4))
        assert cls.case is BigDegreeCase.NOT_APPLICABLE

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            classify_big_degree(I_("(x1^2)", 2))

    def test_recovers_census_graphs(self, edged_census):
        graphs = edged_census[3] + edged_census[4] + edged_census[5]
        assert len(graphs) == 1093
        for g in graphs:
            cls = classify_big_degree(complementary_edge_ideal(g))
            assert cls.case is BigDegreeCase.COMPLEMENTARY_EDGE
            assert cls.graph == g


class TestGradedComponent:
    def test_mixed_component(self):
        assert graded_component(I_("(x1*x2, x1*x3*x4)", 4), 2) == I_("(x1*x2)", 4)

    def test_prime_component(self):
        I = I_("(x1, x3)", 3)
        assert graded_component(I, 1) == I

    def test_below_indeg_is_zero(self):
        assert graded_component(I_("(x1)", 2), 0).is_zero

    def test_component_generates_degree_j_part(self):
        I = I_("(x1*x2, x1*x3*x4)", 4)
        C = graded_component(I, 3)
        assert all(g.degree == 3 for g in C.generators)
        for u in divisors(parse_monomial("x1^3*x2^3*x3^3*x4^3", 4)):
            if u.degree == 3:
                assert (u in C) == (u in I)


def _ref_minimal_primes(I):
    """Reference: minimal transversals of the generator supports, by a
    frozenset search over the subsets of supp(I) in increasing size."""
    supports = [g.support for g in I.generators]
    universe = sorted(I.support)
    found = []
    for size in range(1, len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            cand = frozenset(combo)
            if any(prev <= cand for prev in found):
                continue
            if all(cand & s for s in supports):
                found.append(cand)
    return set(found)


class TestMinimalPrimes:
    def test_matching(self):
        got = minimal_primes_squarefree(I_("(x1*x2, x3*x4)", 4))
        assert got == {
            frozenset(s) for s in [{0, 2}, {0, 3}, {1, 2}, {1, 3}]
        }

    def test_prime_input(self):
        assert minimal_primes_squarefree(I_("(x1, x3)", 3)) == {frozenset({0, 2})}

    def test_triangle_clutter(self):
        got = minimal_primes_squarefree(I_("(x1*x2, x1*x3, x2*x3)", 3))
        assert got == {frozenset(s) for s in [{0, 1}, {0, 2}, {1, 2}]}

    def test_rejects_non_squarefree_and_trivial(self):
        with pytest.raises(ValueError):
            minimal_primes_squarefree(I_("(x1^2)", 1))
        with pytest.raises(ValueError):
            minimal_primes_squarefree(zero_ideal(2))

    def test_agrees_with_reference(self, edged_census, random_ideals):
        ideals = [complementary_edge_ideal(g) for n in (3, 4, 5) for g in edged_census[n]]
        ideals += [
            complementary_edge_ideal(g)
            for g in [g for g in enumerate_labeled_graphs(6) if g.edges][::8]
        ]
        ideals += random_ideals(random.Random(47), 400, n_max=6, e_max=1)
        for I in ideals:
            assert minimal_primes_squarefree(I) == _ref_minimal_primes(I), str(I)


class TestSymbolicPower:
    def test_prime_ideal_symbolic_is_ordinary(self):
        I = I_("(x1, x3)", 3)
        assert symbolic_power(I, 2) == power(I, 2)

    def test_matching_second_power(self):
        I = complementary_edge_ideal(matching_graph(2))
        assert symbolic_power(I, 2) == power(I, 2)

    def test_paw_strict_containment(self):
        I = complementary_edge_ideal(paw())
        sym = symbolic_power(I, 2)
        ordinary = power(I, 2)
        assert sym != ordinary
        assert sym.contains_ideal(ordinary)

    def test_always_contains_ordinary_power(self, edged_census):
        rng = random.Random(2)
        for g in edged_census[4] + rng.sample(edged_census[5], 30):
            I = complementary_edge_ideal(g)
            for k in (2, 3):
                assert symbolic_power(I, k).contains_ideal(power(I, k))

    def test_prime_power_generators(self):
        P2 = prime_power({0, 2}, 2, 3)
        assert P2 == I_("(x1^2, x1*x3, x3^2)", 3)

    def test_prime_power_rejects_variables_out_of_range(self):
        # as localize does; these once gave the unit ideal
        for F, k in (([5], 2), ([0, 7], 1), ([-1, 0], 1)):
            with pytest.raises(ValueError, match="out of range"):
                prime_power(F, k, 3)


class TestSerialization:
    def test_json_round_trip(self):
        I = complementary_edge_ideal(paw())
        data = json.loads(json.dumps(I.to_json_dict()))
        assert MonomialIdeal.from_json_dict(data) == I

    def test_json_exponents_must_be_integers(self):
        # int() once turned 1.5 into 1, true into 1 and "1" into 1
        for bad in (1.5, True, "1", None):
            with pytest.raises(ValueError, match="must be integers"):
                MonomialIdeal.from_json_dict({"ambient": 2, "generators": [[bad, 1], [0, 2]]})
        with pytest.raises(ValueError, match="must be integers"):
            MonomialIdeal.from_json_dict({"ambient": "2", "generators": [[1, 1]]})

    def test_str_forms(self):
        assert str(zero_ideal(2)) == "(0)"
        assert str(unit_ideal(2)) == "(1)"
        assert str(I_("(x2, x1^2)", 2)) == "(x2, x1^2)"

    @given(small_ideals)
    def test_parse_round_trip(self, I):
        assert parse_ideal(str(I), I.ambient) == I
