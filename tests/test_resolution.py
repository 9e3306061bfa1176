import itertools
import random
import sys
import tracemalloc

import numpy as np
import pytest

import compedge.ideals
import compedge.resolution
from compedge.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    matching_graph,
    path_graph,
)
from compedge.ideals import (
    DEFAULT_LATTICE_LIMIT,
    LimitExceededError,
    complementary_edge_ideal,
    divisor_counts,
    edge_ideal,
    graded_component,
    ideal,
    parse_ideal,
    power,
    unit_ideal,
    zero_ideal,
)
from compedge.monomials import Monomial, parse_monomial, x_of_set
from compedge.resolution import (
    _boundary_rank,
    _complex_classes,
    _complex_ranks,
    _lcm_lattice,
    betti_table,
    has_linear_quotients,
    has_linear_resolution,
    is_componentwise_linear,
    reg_pd_depth,
)


def I_(text, ambient):
    return parse_ideal(text, ambient)


def lcm_lattice_reference(I):
    """Reference lcm lattice, the box filter that preceded the divisor-count
    table: a divisor a of the generator lcm is a join of generators iff some
    generator lies below it and the join of those below it equals a."""
    gens = I.exponents
    axes = [np.arange(e + 1) for e in I.lcm_of_generators().exponents]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, I.ambient)
    below = (gens[None, :, :] <= grid[:, None, :]).all(axis=2)
    joined = np.where(below[:, :, None], gens[None, :, :], 0).max(axis=1)
    ok = below.any(axis=1) & (joined == grid).all(axis=1)
    return {tuple(a) for a in grid[ok].tolist()}


def _is_cone(face_masks, vertex_masks):
    """A cone over any vertex has vanishing reduced homology everywhere."""
    rem = vertex_masks
    while rem:
        vbit = rem & -rem
        if all(f | vbit in face_masks for f in face_masks):
            return True
        rem ^= vbit
    return False


def homology_ranks_reference(face_masks, p):
    """Reduced homology ranks of a complex given as face bitmasks, skipping
    cones, one complex at a time (no memo)."""
    if face_masks == frozenset({0}):
        return {-1: 1}
    vertex_masks = 0
    for f in face_masks:
        vertex_masks |= f
    if _is_cone(face_masks, vertex_masks):
        return {}
    by_dim = {}
    for f in sorted(face_masks):
        by_dim.setdefault(bin(f).count("1") - 1, []).append(f)
    ranks = {}
    rank_up = 0
    for d in range(max(by_dim), -2, -1):
        faces = by_dim.get(d, [])
        rank_down = _boundary_rank(by_dim.get(d - 1, []), faces, p) if d >= 0 else 0
        h = len(faces) - rank_down - rank_up
        if h:
            ranks[d] = h
        rank_up = rank_down
    return ranks


def betti_entries_reference(I, p):
    """Reference Betti table, the per-lattice-point loop that preceded the
    distinct-complex kernel: build each point's face set, rank it, and
    write its entries into a dict."""
    counts = divisor_counts(I, I.lcm_of_generators())
    points = _lcm_lattice(counts)
    member = (counts > 0).reshape(-1)
    strides = np.array(counts.strides, dtype=np.int64) // counts.itemsize
    entries = {}
    for a in points:
        supp = np.nonzero(a)[0]
        g = len(supp)
        cands = np.repeat(a[None, :], 1 << g, axis=0)
        cands[:, supp] -= np.arange(1 << g)[:, None] >> np.arange(g) & 1
        flags = member[cands @ strides]
        face_masks = frozenset(int(m) for m in np.nonzero(flags)[0])
        for d, r in homology_ranks_reference(face_masks, p).items():
            entries[(d + 1, tuple(int(x) for x in a))] = r
    return entries


def complex_classes_reference(I):
    """Reference grouping of the Betti kernel, the 2-D row sort that
    preceded one void key per row: :func:`_complex_classes` with the
    complexes keyed by ``np.unique(..., axis=0)`` over the packed face-flag
    rows."""
    counts = divisor_counts(I, I.lcm_of_generators())
    lattice = _lcm_lattice(counts)
    member = (counts > 0).reshape(-1)
    strides = np.array(counts.strides, dtype=np.int64) // counts.itemsize
    sizes = np.count_nonzero(lattice, axis=1)
    cone = np.zeros(len(lattice), dtype=bool)
    packed = np.zeros((len(lattice), max(1, (1 << int(sizes.max())) // 8)), dtype=np.uint8)
    for g in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == g)
        supp = np.nonzero(lattice[rows])[1].reshape(-1, g)
        masks = np.arange(1 << g)
        step = max(1, (1 << 18) >> g)
        for lo in range(0, len(rows), step):
            r = rows[lo : lo + step]
            shifts = strides[supp[lo : lo + step]] @ (masks >> np.arange(g)[:, None] & 1)
            flags = member[(lattice[r] @ strides)[:, None] - shifts]
            for t in range(g):
                f = masks[(masks >> t & 1) == 0]
                cone[r] |= (flags[:, f] <= flags[:, f | 1 << t]).all(axis=1)
            packed[r, : max(1, (1 << g) // 8)] = np.packbits(flags, axis=1)
    unique, inverse = np.unique(packed[~cone], axis=0, return_inverse=True)
    classes = tuple(row.tobytes().rstrip(b"\0") for row in unique)
    return lattice[~cone], classes, inverse.reshape(-1)


def faces_with_closure(maximal):
    """Face bitmasks of the complex whose faces are the given vertex tuples
    and all their subsets."""
    out = set()
    for f in maximal:
        for r in range(len(f) + 1):
            out.update(sum(1 << v for v in c) for c in itertools.combinations(f, r))
    return out


def kernel_ranks(face_masks, p=2):
    """Reduced homology ranks over F_p of a complex given as face bitmasks,
    from the Betti kernel's ranker: its key packs the face flags, bit m for
    the face with bitmask m, and drops trailing zero bytes."""
    masks = sorted(face_masks)
    flags = np.zeros(max(masks, default=0) + 1, dtype=bool)
    flags[masks] = True
    return dict(_complex_ranks(np.packbits(flags).tobytes().rstrip(b"\0"), p))


def upper_koszul_faces(I, a):
    """Face bitmasks of the upper-Koszul complex of I at the multidegree a,
    one membership test per face: a squarefree b below a, with bit t for
    the t-th variable of supp(a), is a face when x^(a-b) lies in I."""
    supp = [i for i, e in enumerate(a) if e]
    faces = set()
    for m in range(1 << len(supp)):
        exps = list(a)
        for t, i in enumerate(supp):
            exps[i] -= m >> t & 1
        if I.contains(Monomial(tuple(exps))):
            faces.add(m)
    return faces


def kernel_faces(I, a):
    """Face bitmasks of the upper-Koszul complex of I at the lcm-lattice
    point a as the Betti kernel keys it, or None when it drops a as a cone."""
    points, classes, inverse = _complex_classes(I)
    (rows,) = np.nonzero((points == a).all(axis=1))
    if not rows.size:
        return None
    flags = np.unpackbits(np.frombuffer(classes[inverse[rows[0]]], np.uint8))
    return set(np.flatnonzero(flags).tolist())


class TestUpperKoszul:
    def test_at_a_generator_multidegree(self):
        # only b = 0 keeps x^(a-b) inside the ideal, so the complex is {/0}
        I = I_("(x1)", 1)
        assert kernel_faces(I, (1,)) == upper_koszul_faces(I, (1,)) == {0}

    def test_two_variables_hollow_edge(self):
        I = I_("(x1, x2)", 2)
        assert kernel_faces(I, (1, 1)) == upper_koszul_faces(I, (1, 1)) == {0, 1, 2}

    def test_principal_degree_two(self):
        I = I_("(x1*x2)", 2)
        assert kernel_faces(I, (1, 1)) == upper_koszul_faces(I, (1, 1)) == {0}

    def test_matches_betti_entries(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(2, 4)
            gens = [
                Monomial(tuple(rng.randint(0, 2) for _ in range(n)))
                for _ in range(rng.randint(1, 4))
            ]
            I = ideal(gens, n)
            if not I.is_proper:
                continue
            table = betti_table(I, 3)
            for (i, a), rank in table.entries.items():
                faces = upper_koszul_faces(I, a)
                assert kernel_ranks(faces, 3).get(i - 1, 0) == rank


class TestReducedHomology:
    def test_hollow_edge(self):
        assert kernel_ranks(faces_with_closure([(0,), (1,)])) == {0: 1}

    def test_triangle_boundary(self):
        assert kernel_ranks(faces_with_closure([(0, 1), (0, 2), (1, 2)])) == {1: 1}

    def test_full_simplex_is_acyclic(self):
        assert kernel_ranks(faces_with_closure([(0, 1, 2)])) == {}

    def test_irrelevant_complex(self):
        # only the empty face: H~_{-1} has rank 1
        assert kernel_ranks({0}) == {-1: 1}

    def test_sphere_boundaries(self):
        for k in (2, 3, 4):
            faces = faces_with_closure(itertools.combinations(range(k + 1), k))
            assert kernel_ranks(faces, 2) == {k - 1: 1}
            assert kernel_ranks(faces, 3) == {k - 1: 1}

    def test_disjoint_points(self):
        assert kernel_ranks(faces_with_closure([(i,) for i in range(4)])) == {0: 3}

    def test_projective_plane_detects_characteristic(self):
        # 6-vertex triangulation of RP^2: homology has 2-torsion, so the
        # mod-2 and mod-3 ranks differ
        tris = [
            (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
            (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
        ]
        faces = faces_with_closure(tris)
        assert kernel_ranks(faces, 2) == {1: 1, 2: 1}
        assert kernel_ranks(faces, 3) == {}

    def test_void_complex(self):
        # no faces at all, not even the empty one: no homology
        assert kernel_ranks(set()) == {}

    def test_boundary_rank_against_sympy(self):
        from sympy import GF, Matrix
        from sympy.polys.matrices import DomainMatrix

        rng = random.Random(11)
        for p in (2, 3, 5, 97):
            for _ in range(20):
                g = rng.randint(2, 7)
                d = rng.randint(1, g - 1)
                upper = [
                    sum(1 << v for v in combo)
                    for combo in itertools.combinations(range(g), d + 1)
                    if rng.random() < 0.7
                ]
                lower = [
                    sum(1 << v for v in combo)
                    for combo in itertools.combinations(range(g), d)
                ]
                if not upper:
                    continue
                mat = [[0] * len(upper) for _ in lower]
                for j, f in enumerate(upper):
                    sign = 1
                    rem = f
                    while rem:
                        low = rem & -rem
                        mat[lower.index(f ^ low)][j] = sign
                        sign = -sign
                        rem ^= low
                want = (
                    DomainMatrix.from_Matrix(Matrix(mat)).convert_to(GF(p)).rank()
                )
                assert _boundary_rank(lower, upper, p) == want


class TestBettiTable:
    def test_koszul_two_variables(self):
        t = betti_table(I_("(x1, x2)", 2))
        assert t.entries == {
            (0, (1, 0)): 1,
            (0, (0, 1)): 1,
            (1, (1, 1)): 1,
        }

    def test_one_syzygy_at_lcm(self):
        t = betti_table(I_("(x1*x2, x2*x3)", 3))
        assert t.total(0) == 2
        assert t.entries[(1, (1, 1, 1))] == 1

    def test_complete_intersection(self):
        t = betti_table(complementary_edge_ideal(matching_graph(2)))
        assert t.total(0) == 2
        assert t.entries[(1, (1, 1, 1, 1))] == 1

    def test_beta_zero_counts_generators(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(2, 4)
            gens = [
                Monomial(tuple(rng.randint(0, 2) for _ in range(n)))
                for _ in range(rng.randint(1, 5))
            ]
            I = ideal(gens, n)
            if not I.is_proper:
                continue
            t = betti_table(I)
            assert t.total(0) == len(I.generators)
            assert t.projective_dimension_quotient <= n
            assert t.regularity >= int(I.exponents.sum(axis=1).max())

    def test_rejects_trivial_ideals(self):
        with pytest.raises(ValueError):
            betti_table(zero_ideal(2))
        with pytest.raises(ValueError):
            betti_table(unit_ideal(2))

    def test_rejects_characteristics_that_are_not_int_primes(self):
        # 2.0 gave a table whose JSON said "characteristic": 2.0, and 3.0
        # raised TypeError from pow() inside the rank kernel
        I = complementary_edge_ideal(path_graph(4))
        calls = (betti_table, reg_pd_depth, has_linear_resolution, is_componentwise_linear)
        for p in (2.0, 3.0, True, "3", 4):
            for call in calls:
                with pytest.raises(ValueError, match="characteristic must be a small prime"):
                    call(I, p)

    def test_over_cap_box_raises(self):
        # lcm x1^9...x7^9 spans 10^7 divisor cells, over BOX_CELL_LIMIT
        I = ideal([Monomial(tuple(9 * (i == j) for j in range(7))) for i in range(7)], 7)
        with pytest.raises(LimitExceededError, match="10000000 cells"):
            betti_table(I)

    def test_over_limit_lattice_raises(self, monkeypatch):
        # the three generators have 7 joins; the table is cached first, and
        # the cache is keyed by the limits in force, so the lowered limit
        # is not answered from it
        I = ideal([Monomial((7, 1, 0)), Monomial((0, 7, 1)), Monomial((1, 0, 7))], 3)
        betti_table(I)
        monkeypatch.setattr(compedge.ideals, "DEFAULT_LATTICE_LIMIT", 6)
        with pytest.raises(LimitExceededError, match="lcm lattice has 7 points, limit 6"):
            betti_table(I)
        monkeypatch.setattr(compedge.ideals, "DEFAULT_LATTICE_LIMIT", DEFAULT_LATTICE_LIMIT)
        assert betti_table(I).total(0) == 3

    def test_lowered_box_limit_applies_to_a_cached_ideal(self, monkeypatch):
        # the cached complexes of I^2 returned under any box limit
        I2 = power(complementary_edge_ideal(cycle_graph(5)), 2)
        depth = reg_pd_depth(I2).depth
        monkeypatch.setattr(compedge.ideals, "BOX_CELL_LIMIT", 10)
        with pytest.raises(LimitExceededError, match="divisor box has 243 cells, limit 10"):
            reg_pd_depth(I2)
        monkeypatch.undo()
        assert reg_pd_depth(I2).depth == depth

    def test_lattice_agrees_with_reference(self, edged_census, random_ideals):
        ideals = random_ideals(random.Random(7), 1000)
        ideals += [
            power(complementary_edge_ideal(g), k)
            for n in (3, 4)
            for g in edged_census[n]
            for k in (1, 2, 3)
        ]
        for I in ideals:
            counts = divisor_counts(I, I.lcm_of_generators())
            got = {tuple(a) for a in _lcm_lattice(counts).tolist()}
            assert got == lcm_lattice_reference(I), str(I)

    def test_kernel_agrees_with_reference(self, edged_census, mixed_family, random_ideals):
        ideals = random_ideals(random.Random(17), 1000)
        ideals += [
            power(complementary_edge_ideal(g), k)
            for n in (3, 4)
            for g in edged_census[n]
            for k in (1, 2, 3)
        ]
        ideals += [power(I, k) for _, I in mixed_family for k in (1, 2)]
        mismatches = []
        for I in ideals:
            for p in (2, 3):
                want = betti_entries_reference(I, p)
                t = betti_table(I, p)
                got = (t.entries, t.regularity, t.projective_dimension_ideal)
                ref = (
                    want,
                    max(sum(a) - i for i, a in want),
                    max(i for i, _ in want),
                )
                if got != ref or list(t.entries) != sorted(want):
                    mismatches.append((str(I), p))
        assert mismatches == []

    def test_complex_keys_agree_with_reference(self, edged_classes, random_ideals, mixed_family):
        ideals = random_ideals(random.Random(19), 500)
        ideals += [
            power(complementary_edge_ideal(g), k)
            for n in (3, 4, 5)
            for g in edged_classes[n]
            for k in (1, 2, 3)
        ]
        ideals += [power(complementary_edge_ideal(g), 2) for g in (cycle_graph(7), path_graph(7))]
        ideals += [power(I, k) for _, I in mixed_family for k in (1, 2)]
        # supports of every size from 2 to 11
        ideals.append(edge_ideal(cycle_graph(11)))
        for I in ideals:
            points, classes, inverse = _complex_classes(I)
            want_points, want_classes, want_inverse = complex_classes_reference(I)
            assert np.array_equal(points, want_points), str(I)
            assert classes == want_classes, str(I)
            assert np.array_equal(inverse, want_inverse), str(I)

    def test_complex_classes_memory_follows_the_supports(self):
        # the face flags of a point take 2^|supp(a)| cells, not 2^n: on the
        # edge ideal of C11 most supports are far smaller than 11
        I = edge_ideal(cycle_graph(11))
        tracemalloc.start()
        try:
            _complex_classes.__wrapped__(I)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_acyclic_non_cone_carries_no_betti_number(self):
        # at (1,1,1,1) the complex is the path 3-0-1-2: not a cone, yet acyclic
        I = I_("(x1*x4, x2*x3, x3*x4)", 4)
        faces = faces_with_closure([(0, 1), (1, 2), (0, 3)])
        assert upper_koszul_faces(I, (1, 1, 1, 1)) == faces
        assert not _is_cone(frozenset(faces), 0b1111)
        assert kernel_ranks(faces, 2) == kernel_ranks(faces, 3) == {}
        for p in (2, 3):
            t = betti_table(I, p)
            assert all(a != (1, 1, 1, 1) for _, a in t.entries)
            assert t.regularity == 2 and t.projective_dimension_ideal == 1

    def test_field_independent_tables_have_equal_arrays(self):
        I = power(complementary_edge_ideal(path_graph(4)), 2)
        t2, t3 = betti_table(I, 2), betti_table(I, 3)
        assert t2.entries == t3.entries
        for a, b in ((t2.multidegrees, t3.multidegrees), (t2.i, t3.i), (t2.rank, t3.rank)):
            assert np.array_equal(a, b)

    def test_pretty_has_total_row(self):
        text = betti_table(I_("(x1, x2)", 2)).pretty()
        assert "total:" in text and "0" in text

    def test_json_export(self):
        data = betti_table(I_("(x1, x2)", 2)).to_json_dict()
        assert data["characteristic"] == 2
        assert {"i": 1, "multidegree": [1, 1], "rank": 1} in data["entries"]


class TestInvariants:
    def test_koszul(self):
        inv = reg_pd_depth(I_("(x1, x2)", 2))
        assert (inv.regularity, inv.pd_quotient, inv.depth) == (1, 2, 0)

    def test_matching_regularity_three(self):
        inv = reg_pd_depth(complementary_edge_ideal(matching_graph(2)))
        assert inv.regularity == 3

    def test_hypersurface_depth(self):
        inv = reg_pd_depth(I_("(x1*x2)", 4))
        assert inv.depth == 3
        assert inv.depth_support == 1

    def test_stable_depth_of_matching(self):
        # stable depth of S/I_c(2K_2)^k is the bipartite component count 2
        I = complementary_edge_ideal(matching_graph(2))
        assert reg_pd_depth(power(I, 2)).depth == 2
        assert reg_pd_depth(power(I, 3)).depth == 2

    def test_stable_depth_of_mixed_ideal(self):
        I = I_("(x1*x2, x1*x3*x4)", 4)
        assert reg_pd_depth(power(I, 2)).depth == 2

    def test_veronese_power_depth_zero(self):
        # (x1..xp)/x_i generators, power p-1, has a socle element
        for p in (3, 4):
            gens = [x_of_set(set(range(p)) - {i}, p) for i in range(p)]
            I = ideal(gens, p)
            assert reg_pd_depth(power(I, p - 1)).depth == 0
            assert reg_pd_depth(power(I, p - 2)).depth > 0


class TestLinearResolution:
    def test_examples(self):
        assert has_linear_resolution(I_("(x1, x2)", 2))
        assert not has_linear_resolution(complementary_edge_ideal(matching_graph(2)))
        assert has_linear_resolution(complementary_edge_ideal(complete_graph(3)))

    def test_requires_equigenerated(self):
        with pytest.raises(ValueError):
            has_linear_resolution(I_("(x1, x2*x3)", 3))


def componentwise_linear_reference(I, p):
    """Linear resolution of every graded component I_<j> with
    indeg(I) <= j <= reg(I), the loop that preceded the Eisenbud-Goto
    bound j < reg(I)."""
    reg = betti_table(I, p).regularity
    return all(
        has_linear_resolution(graded_component(I, j), p) for j in range(I.indeg, reg + 1)
    )


class TestComponentwiseLinear:
    def test_examples(self):
        assert is_componentwise_linear(I_("(x1, x2*x3)", 3))
        assert not is_componentwise_linear(
            complementary_edge_ideal(matching_graph(2))
        )
        assert is_componentwise_linear(I_("(x1, x2)", 3))

    def test_agrees_with_every_component_up_to_reg(self, edged_classes, random_ideals):
        # the class powers of n <= 5, with every isolated vertex marked too,
        # and seeded random ideals, over two fields
        bases = []
        for n in (3, 4, 5):
            for g in edged_classes[n]:
                gens = list(complementary_edge_ideal(g).generators)
                bases.append(ideal(gens, n))
                if g.isolated_vertices:
                    gens += [x_of_set(set(range(n)) - {i}, n) for i in g.isolated_vertices]
                    bases.append(ideal(gens, n))
        cases = [power(I, k) for I in bases for k in (1, 2, 3)]
        cases += random_ideals(random.Random(20261020), 600)
        mismatches = [
            (str(I), p)
            for I in cases
            for p in (2, 3)
            if is_componentwise_linear(I, p) != componentwise_linear_reference(I, p)
        ]
        assert mismatches == []

    def test_builds_no_component_from_reg_up(self, monkeypatch):
        built = []
        component = compedge.resolution.graded_component

        def counting(I, j):
            built.append(j)
            return component(I, j)

        monkeypatch.setattr(compedge.resolution, "graded_component", counting)
        # linear powers: reg(I^2) = indeg(I^2) = 4
        assert is_componentwise_linear(power(complementary_edge_ideal(complete_graph(4)), 2))
        assert built == []
        # generators in degrees 1 and 2, reg 2: only I_<1> is built
        assert is_componentwise_linear(I_("(x1, x2*x3)", 3))
        assert built == [1]


class TestLinearQuotients:
    def test_variables(self):
        ok, order = has_linear_quotients(I_("(x1, x2, x3)", 3))
        assert ok and len(order) == 3

    def test_matching_fails(self):
        ok, order = has_linear_quotients(complementary_edge_ideal(matching_graph(2)))
        assert not ok and order is None

    def test_triangle(self):
        ok, _ = has_linear_quotients(complementary_edge_ideal(complete_graph(3)))
        assert ok

    def test_limit(self):
        I = power(complementary_edge_ideal(complete_graph(4)), 2)
        with pytest.raises(LimitExceededError):
            has_linear_quotients(I, limit=3)

    def test_limit_must_be_a_positive_int(self):
        # the same rule as SweepConfig.lq_limit; each of these was read as a
        # generator cap and raised LimitExceededError
        I = complementary_edge_ideal(path_graph(4))
        for limit in (0, -3, True, 2.5):
            with pytest.raises(ValueError, match="^limit must be"):
                has_linear_quotients(I, limit)

    def test_orders_deeper_than_the_recursion_limit(self):
        # every degree-17 monomial in 4 variables: 1140 generators, polymatroidal
        I = power(I_("(x1, x2, x3, x4)", 4), 17)
        assert len(I.generators) > sys.getrecursionlimit()
        ok, order = has_linear_quotients(I)
        assert ok
        assert len(order) == len(I.generators) and set(order) == set(I.generators)

    def test_witness_order_is_admissible(self):
        from compedge.ideals import colon, ideal as mk

        cases = [
            complementary_edge_ideal(complete_graph(4)),
            power(complementary_edge_ideal(complete_graph(3)), 2),
            graded_component(I_("(x1, x2*x3)", 3), 2),
        ]
        for I in cases:
            ok, order = has_linear_quotients(I, limit=64)
            assert ok
            for j in range(1, len(order)):
                prefix = mk(order[:j], I.ambient)
                Q = colon(prefix, order[j])
                assert all(g.degree == 1 for g in Q.generators)
            degs = [g.degree for g in order]
            assert degs == sorted(degs)

    def test_quotients_imply_linear_resolution(self):
        rng = random.Random(13)
        hits = 0
        while hits < 12:
            n = rng.randint(2, 4)
            d = rng.randint(1, 3)
            pool = [
                Monomial(t)
                for t in itertools.product(range(d + 1), repeat=n)
                if sum(t) == d
            ]
            gens = rng.sample(pool, min(len(pool), rng.randint(1, 4)))
            I = ideal(gens, n)
            if not I.is_proper:
                continue
            hits += 1
            ok, _ = has_linear_quotients(I)
            if ok:
                for p in (2, 3):
                    assert has_linear_resolution(I, p)
