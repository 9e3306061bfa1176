"""Checks of a round's outputs by computations made apart from compedge.

Ideals are handled here as integer arrays of minimal generator exponents,
with this module's own product, localization and divisor-box membership;
compedge objects are only read.  Each ``check_*`` function returns a list
of problems, empty when the output is right.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

import compedge
from workloads import CENSUS, LQ_LIMIT

SAMPLE = 16  # census graphs per round that get the costlier checks


# ---------------------------------------------------------------------------
# monomial arithmetic on exponent arrays


def gens_of(I) -> np.ndarray:
    return np.array([m.exponents for m in I.generators], dtype=np.int64)


def minimal(rows) -> np.ndarray:
    """The minimal exponent vectors among ``rows``, sorted (degree, lex)."""
    uniq = sorted({tuple(int(x) for x in r) for r in rows}, key=lambda t: (sum(t), t))
    arr = np.array(uniq, dtype=np.int64)
    keep = np.ones(len(arr), dtype=bool)
    for start in range(0, len(arr), 256):
        block = arr[start : start + 256]
        below = (block[:, None, :] <= arr[None, :, :]).all(axis=2)
        below[np.arange(len(block)), np.arange(start, start + len(block))] = False
        keep &= ~below.any(axis=0)
    return arr[keep]


def product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return minimal((A[:, None, :] + B[None, :, :]).reshape(-1, A.shape[1]))


def powers(A: np.ndarray, k_max: int) -> list[np.ndarray]:
    out = [A]
    while len(out) < k_max:
        out.append(product(out[-1], A))
    return out


def complementary_edge_gens(g, mixed: bool = False) -> np.ndarray:
    """I_c(G); with ``mixed``, plus x_[n]/x_i for each isolated vertex i."""
    rows = []
    for i, j in g.edges:
        row = [1] * g.n
        row[i] = row[j] = 0
        rows.append(row)
    if mixed:
        touched = {v for e in g.edges for v in e}
        rows += [[int(v != i) for v in range(g.n)] for i in range(g.n) if i not in touched]
    return minimal(rows)


def membership(gens: np.ndarray, cap) -> np.ndarray:
    """Table over the box 0..cap: cell u is True iff x^u lies in the ideal."""
    cap = np.asarray(cap)
    table = np.zeros(tuple(cap + 1), dtype=bool)
    for g in gens:
        if (g <= cap).all():
            table[tuple(slice(int(e), None) for e in g)] = True
    return table


def step_up(M: np.ndarray, axis: int) -> np.ndarray:
    """Cell u holds M[u + e_axis]; past the cap the exponent stays at the cap,
    which membership cannot tell apart when the cap is the generator lcm."""
    last = np.take(M, [-1], axis=axis)
    return np.concatenate([np.take(M, range(1, M.shape[axis]), axis=axis), last], axis=axis)


def covers(gens: np.ndarray) -> set[frozenset[int]]:
    """Minimal vertex covers of the generator supports (squarefree input)."""
    n = gens.shape[1]
    supports = [frozenset(np.nonzero(g)[0].tolist()) for g in gens]
    found: list[frozenset[int]] = []
    for size in range(1, n + 1):
        for F in map(frozenset, itertools.combinations(range(n), size)):
            if not any(c <= F for c in found) and all(F & s for s in supports):
                found.append(F)
    return set(found)


def ass_by_socle(gens: np.ndarray) -> set[frozenset[int]]:
    """The F with depth 0 on the localization at P_F, by socle search:
    some u outside the localized ideal with x_i u inside it for all i in F."""
    n = gens.shape[1]
    out = set()
    for size in range(1, n + 1):
        for F in itertools.combinations(range(n), size):
            local = minimal(gens[:, F])
            if not local.any(axis=1).all():
                continue  # the unit ideal
            M = membership(local, local.max(axis=0))
            socle = ~M
            for axis in range(size):
                socle &= step_up(M, axis)
            if socle.any():
                out.add(frozenset(F))
    return out


def prime_colon_cells(gens: np.ndarray) -> dict[int, np.ndarray]:
    """For each prime mask F, the box cells u with (I : u) = P_F.

    (I : u) = P_F exactly when u is not in I, F = {i : x_i u in I} is not
    empty, and u stays outside I after raising every exponent off F to the
    cap (no monomial prime to P_F can carry u into I).
    """
    L = gens.max(axis=0)
    n = len(L)
    M = membership(gens, L)
    fmask = np.zeros(M.shape, dtype=np.int64)
    for i in range(n):
        fmask |= step_up(M, i).astype(np.int64) << i
    out = {}
    for f in np.unique(fmask[~M]).tolist():
        if f == 0:
            continue
        raised = M[tuple(slice(None) if f >> i & 1 else slice(int(L[i]), None) for i in range(n))]
        cells = ~M & (fmask == f) & ~raised
        if cells.any():
            out[f] = cells
    return out


def same_gens(A: np.ndarray, B: np.ndarray) -> bool:
    return {tuple(r) for r in A.tolist()} == {tuple(r) for r in B.tolist()}


# ---------------------------------------------------------------------------
# the checkers


def check_ass(gens_by_k: list[np.ndarray], ass_by_k: list[set], sample: bool) -> list[str]:
    """Ass(I^k) as reported, against minimal covers at k = 1, persistence in
    k, and (when ``sample``) the socle search on every localization."""
    problems = []
    if ass_by_k[0] != covers(gens_by_k[0]):
        problems.append("Ass(I) is not the set of minimal vertex covers")
    for k in range(1, len(ass_by_k)):
        if not ass_by_k[k - 1] <= ass_by_k[k]:
            problems.append(f"Ass(I^{k}) is not contained in Ass(I^{k + 1})")
    if sample:
        for k, (gens, ass) in enumerate(zip(gens_by_k, ass_by_k), start=1):
            if ass_by_socle(gens) != ass:
                problems.append(f"Ass(I^{k}) differs from the socle search")
    return problems


def check_v(gens: np.ndarray, v: int, expected: int, witness=None, prime=None) -> list[str]:
    """v(I) is the least degree of a prime-colon cell and equals the closed
    form; a witness u must have (I : u) = P_prime and degree v."""
    problems = []
    cells = prime_colon_cells(gens)
    deg = np.indices(gens.max(axis=0) + 1).sum(axis=0)
    least = min(int(deg[c].min()) for c in cells.values())
    if v != least:
        problems.append(f"v = {v}, least prime-colon degree is {least}")
    if v != expected:
        problems.append(f"v = {v}, closed form gives {expected}")
    if witness is not None:
        u = np.array(witness, dtype=np.int64)
        f = sum(1 << i for i in prime)
        inside = (u <= gens.max(axis=0)).all()
        if not (inside and f in cells and cells[f][tuple(u)]):
            problems.append(f"witness {witness} does not give (I : u) = P_{sorted(prime)}")
        if int(u.sum()) != v:
            problems.append(f"witness {witness} has degree {int(u.sum())}, not {v}")
    return problems


def check_betti(gens: np.ndarray, entries: dict) -> list[str]:
    """K-polynomial identity at every box point a:
    sum_i (-1)^i beta_{i,a}(I) = sum_{B in supp a} (-1)^|B| [x^(a-B) in I],
    the finite difference of the membership table along every axis."""
    L = gens.max(axis=0)
    expected = membership(gens, L).astype(np.int64)
    for axis in range(len(L)):
        expected = np.diff(expected, axis=axis, prepend=0)
    alt = np.zeros_like(expected)
    for (i, a), rank in entries.items():
        if any(x > c for x, c in zip(a, L)):
            return [f"Betti entry at {a} lies outside the lcm box"]
        alt[a] += (-1) ** i * rank
    bad = int((alt != expected).sum())
    return [f"K-polynomial identity fails at {bad} box points"] if bad else []


def check_colon(I: np.ndarray, Ik1: np.ndarray, claimed: np.ndarray) -> list[str]:
    """I^(k+1) : I by brute force over the lcm box of I^(k+1): u is in the
    colon iff x^(u+g) lies in I^(k+1) for every generator g of I."""
    L = Ik1.max(axis=0)
    M = membership(Ik1, L)
    inside = np.ones(M.shape, dtype=bool)
    for g in I:
        idx = [np.minimum(np.arange(c + 1) + e, c) for c, e in zip(L, g)]
        inside &= M[np.ix_(*idx)]
    below = np.zeros(M.shape, dtype=bool)
    for axis in range(len(L)):
        below |= np.concatenate(
            [np.zeros_like(np.take(inside, [0], axis=axis)),
             np.take(inside, range(inside.shape[axis] - 1), axis=axis)],
            axis=axis,
        )
    brute = {tuple(u) for u in np.argwhere(inside & ~below).tolist()}
    got = {tuple(int(x) for x in r) for r in claimed}
    return [] if brute == got else [f"colon generators differ: {sorted(got ^ brute)[:3]}"]


def check_symbolic(I: np.ndarray, claimed: np.ndarray) -> list[str]:
    """I^(2) membership on the box 0..2 against the minimal-prime degree
    test: u lies in I^(2) iff sum_{i in F} u_i >= 2 for every minimal cover F."""
    n = I.shape[1]
    idx = np.indices((3,) * n)
    test = np.ones((3,) * n, dtype=bool)
    for F in covers(I):
        test &= sum(idx[i] for i in F) >= 2
    if (claimed > 2).any():
        return ["a generator of I^(2) has an exponent above 2"]
    bad = int((membership(claimed, [2] * n) != test).sum())
    return [f"I^(2) membership differs from the degree test at {bad} points"] if bad else []


def check_linear_quotients(gens: np.ndarray, order) -> list[str]:
    """A witness order lists the minimal generators, and each colon
    (u_1, ..., u_{j-1}) : u_j is generated by variables."""
    rows = np.array([m.exponents for m in order], dtype=np.int64)
    if len(rows) != len(gens) or not same_gens(rows, gens):
        return ["witness order is not a permutation of the minimal generators"]
    for j in range(1, len(rows)):
        quot = minimal(np.maximum(rows[:j] - rows[j], 0))
        if (quot.sum(axis=1) != 1).any():
            return [f"colon at position {j + 1} is not generated by variables"]
    return []


# ---------------------------------------------------------------------------
# per workload


def _primes(lists) -> set[frozenset[int]]:
    return {frozenset(i - 1 for i in F) for F in lists}


def check_report(op, workload: str, sample: bool) -> list[str]:
    """Every check of the workload passed in the sweep report, and the
    report's values agree with the independent computations."""
    rpt = op.result
    checks, k_max = CENSUS[workload]
    problems = [
        f"check {name} gave {rpt.summary.get(name)!r} ({rpt.skipped.get(name, '')})"
        for name in checks
        if name != "strong-persistence" and rpt.summary.get(name) is not True
    ]
    g = op.graph
    base = complementary_edge_gens(g)
    if workload == "census_ass":
        ass = [_primes(rpt.per_k[k]["ass_oracle"]) for k in range(1, k_max + 1)]
        gens_by_k = powers(base, k_max) if sample else [base]
        problems += check_ass(gens_by_k, ass, sample)
        if sample:
            for k, gens in enumerate(gens_by_k, start=1):
                v = rpt.per_k[k]["v_oracle"]
                problems += check_v(gens, v, compedge.v_closed_form(g, k))
    elif workload == "census_homology":
        problems += check_homology(g, base, rpt, k_max, sample)
    elif sample and workload == "ideal_algebra":
        problems += check_algebra(g, base, rpt, k_max)
    return problems


def check_homology(g, base, rpt, k_max, sample: bool) -> list[str]:
    """Every Betti table the sweep used, against the K-polynomial identity
    and the regularity closed form; when ``sample``, the linear-quotients
    answer too, whose witness order the sweep does not keep and which is
    therefore searched for again."""
    problems = []
    I = compedge.complementary_edge_ideal(g)
    cls = compedge.classify_big_degree(I)
    for k, gens in enumerate(powers(base, k_max), start=1):
        Ik = compedge.power(I, k)
        # betti_table is memoized, so these are the tables the sweep used
        for p in (2, 3) if k <= 2 else (2,):
            table = compedge.betti_table(Ik, p)
            problems += [f"k={k} p={p}: {m}" for m in check_betti(gens, table.entries)]
            if table.regularity != compedge.reg_closed_form(cls, k):
                problems.append(f"k={k} p={p}: regularity {table.regularity}")
        if rpt.per_k[k]["reg_oracle"] != compedge.betti_table(Ik, 2).regularity:
            problems.append(f"k={k}: reported regularity is not the table's")
        if not sample:
            continue
        lq, order = compedge.has_linear_quotients(Ik, LQ_LIMIT)
        if lq != rpt.details["linear"]["per_k"][k]["linear_quotients"]:
            problems.append(f"k={k}: linear quotients differ from the report")
        if lq:
            problems += [f"k={k}: {m}" for m in check_linear_quotients(gens, order)]
    return problems


def check_algebra(g, base, rpt, k_max) -> list[str]:
    problems = []
    I = compedge.complementary_edge_ideal(g)
    by_k = powers(base, k_max + 1)
    first_failure = None
    for k in range(1, k_max + 1):
        colon = gens_of(compedge.colon_ideal(compedge.power(I, k + 1), I))
        problems += [f"k={k}: {m}" for m in check_colon(base, by_k[k], colon)]
        if not same_gens(colon, by_k[k - 1]) and first_failure is None:
            first_failure = k
    sp = rpt.details["strong-persistence"]
    if (sp["observed_holds"], sp["first_failure_k"]) != (first_failure is None, first_failure):
        problems.append("strong-persistence observation differs from I^(k+1) : I")
    sym = gens_of(compedge.symbolic_power(I, 2))
    problems += check_symbolic(base, sym)
    ordinary = same_gens(by_k[1], sym)
    if rpt.details["symbolic"]["second_power_symbolic_equals_ordinary"] != ordinary:
        problems.append("symbolic report differs from I^(2) == I^2")
    for size in range(1, g.n + 1):
        for F in itertools.combinations(range(g.n), size):
            if not same_gens(gens_of(compedge.localize(I, F)), minimal(base[:, F])):
                problems.append(f"localization at {[i + 1 for i in F]} differs")
    return problems


def check_deep(ops) -> list[list[str]]:
    """Problems of each deep_powers operation, in order."""
    own: dict[str, list[np.ndarray]] = {}
    ass: dict[tuple[str, int], set] = {}
    out = []
    for op in ops:
        family = op.label.split("^")[0]
        by_k = own.setdefault(family, [complementary_edge_gens(op.graph, mixed=op.kind in ("lq", "cwl"))])
        while len(by_k) < op.k:
            by_k.append(product(by_k[-1], by_k[0]))
        gens = by_k[op.k - 1]
        if op.error is not None:
            out.append([])
        elif not same_gens(gens, gens_of(op.ideal)):
            out.append(["the power of the ideal differs from the product"])
        else:
            out.append(check_deep_op(op, family, gens, by_k[0], ass))
    return out


def check_deep_op(op, family, gens, base, ass) -> list[str]:
    g, k, res = op.graph, op.k, op.result
    n = g.n
    if op.kind == "ass":
        ass[(family, k)] = res
        problems = [] if res == ass_by_socle(gens) else ["Ass differs from the socle search"]
        if k == 1 and res != covers(gens):
            problems.append("Ass(I) is not the set of minimal vertex covers")
        prev = ass.get((family, k - 1))
        if prev is not None and not prev <= res:
            problems.append(f"Ass(I^{k - 1}) is not contained in Ass(I^{k})")
        return problems
    if op.kind == "v":
        return check_v(gens, res.v, compedge.v_closed_form(g, k), res.witness.exponents, res.prime)
    if op.kind == "depth0":
        hit, u = res
        L = gens.max(axis=0)
        M = membership(gens, L)
        socle = ~M
        for axis in range(n):
            socle &= step_up(M, axis)
        if hit != bool(socle.any()):
            return [f"depth-zero answer {hit} differs from the socle search"]
        if hit and not ((np.array(u.exponents) <= L).all() and socle[u.exponents]):
            return [f"{u} is not a socle witness"]
        return []
    if op.kind == "reg":
        I = compedge.complementary_edge_ideal(g)
        table = compedge.betti_table(op.ideal, 2)
        problems = check_betti(gens, table.entries)
        expected = compedge.reg_closed_form(compedge.classify_big_degree(I), k)
        if res.regularity != expected or table.regularity != expected:
            problems.append(f"regularity {res.regularity}, closed form gives {expected}")
        if res.depth != n - table.projective_dimension_quotient:
            problems.append("depth is not n - pd")
        return problems
    cls = compedge.classify_big_degree(
        compedge.ideal([compedge.Monomial(tuple(r)) for r in base.tolist()], n)
    )
    predicted = compedge.linear_powers_predicate(cls)
    if op.kind == "lq":
        lq, order = res
        problems = [] if lq == predicted else [f"linear quotients {lq}, predicted {predicted}"]
        return problems + (check_linear_quotients(gens, order) if lq else [])
    return [] if res == predicted else [f"componentwise linear {res}, predicted {predicted}"]


def check_round(workload: str, seed: int, ops) -> list[list[str]]:
    """Problems of each operation of a round; an operation that raised has
    its traceback as its only problem."""
    if workload == "deep_powers":
        per_op = check_deep(ops)
    else:
        chosen = set(random.Random(f"check:{workload}:{seed}").sample(range(len(ops)), min(SAMPLE, len(ops))))
        per_op = [
            [] if op.error else check_report(op, workload, i in chosen)
            for i, op in enumerate(ops)
        ]
    return [[op.error] if op.error else problems for op, problems in zip(ops, per_op)]
