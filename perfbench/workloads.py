"""The benchmark's workloads: seeded inputs and the operations of one round.

A round is what one fresh interpreter runs in its timed phase.  The census
workloads call ``run_graph_checks`` graph by graph, which is the single-worker
path of ``compedge sweep``; ``deep_powers`` calls the oracles directly on a
few large ideals.  Only public compedge names are used, and every call goes
through the module attribute (``compedge.verify.ass_oracle``), so that the
tracer's wrappers are the ones called.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass, field

import compedge
import compedge.graphs
import compedge.ideals
import compedge.resolution
import compedge.verify
from tracer import box_cells

# The limit acceptance criterion 9 uses: with the sweep default of 24 the
# linear check skips 638 of the 1023 graphs on 5 vertices.
LQ_LIMIT = 2000

# reg_pd_depth runs where the divisor box has at most this many cells
# (K7^3, K6^4, and C7^k, P7^k up to k = 3), which keeps a round near 20 s.
REG_BOX_LIMIT = 16_384

CENSUS = {
    "census_ass": (("ass", "persistence", "v"), 3),
    "census_homology": (
        ("reg", "depth-monotone", "linear", "betti-field-independence"),
        3,
    ),
    "ideal_algebra": (("strong-persistence", "symbolic", "localization"), 2),
}
WORKLOADS = tuple(CENSUS) + ("deep_powers",)

# (family, vertex count, largest power); "tiny" sizes serve the self-tests.
DEEP_FAMILIES = {
    "full": (("C", 7, 4), ("P", 7, 4), ("K", 6, 4), ("K", 7, 3)),
    "tiny": (("C", 5, 2), ("P", 5, 2)),
}
# (family, vertex count, isolated vertices, largest power) of the mixed ideals
# I_c(G + isolated) + (x_[n] / x_i : i isolated).
MIXED_FAMILIES = {
    "full": (("K", 4, 1, 3), ("C", 4, 1, 3), ("P", 3, 2, 3)),
    "tiny": (("K", 3, 1, 2),),
}
CENSUS_N = {"full": 5, "tiny": 4}

_FAMILY = {
    "C": compedge.graphs.cycle_graph,
    "P": compedge.graphs.path_graph,
    "K": compedge.graphs.complete_graph,
}


@dataclass
class Inputs:
    workload: str
    seed: int
    graphs: list = field(default_factory=list)
    cfg: object = None
    deep: list = field(default_factory=list)
    mixed: list = field(default_factory=list)


@dataclass
class Outcome:
    """One operation of a round: what it ran on and what it returned."""

    kind: str
    label: str
    graph: object
    k: int | None = None
    ideal: object = None
    result: object = None
    error: str | None = None


def relabel(g, perm):
    return compedge.Graph.from_edges(g.n, [(perm[i], perm[j]) for i, j in g.edges])


def mixed_ideal(g, isolated):
    """I_c(G) + (x_[n]/x_i : i in isolated), for isolated vertices of G."""
    n = g.n
    gens = list(compedge.complementary_edge_ideal(g).generators)
    gens += [compedge.x_of_set(set(range(n)) - {i}, n) for i in isolated]
    return compedge.ideal(gens, n)


def make_inputs(workload: str, seed: int, size: str = "full") -> Inputs:
    """Inputs of a workload, a function of the seed alone.

    A census gets a seeded vertex relabeling, which maps the census onto
    itself, and a seeded order; the deep powers get seeded vertex labels.
    The work is the same for every seed, up to the order of memo hits.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    inp = Inputs(workload, seed)
    if workload in CENSUS:
        n = CENSUS_N[size]
        perm = list(range(n))
        rng.shuffle(perm)
        inp.graphs = [
            relabel(g, perm)
            for g in compedge.enumerate_labeled_graphs(n)
            if g.edges
        ]
        rng.shuffle(inp.graphs)
        checks, k_max = CENSUS[workload]
        inp.cfg = compedge.SweepConfig(k_max=k_max, checks=checks, lq_limit=LQ_LIMIT)
        return inp
    for fam, n, k_max in DEEP_FAMILIES[size]:
        perm = list(range(n))
        rng.shuffle(perm)
        inp.deep.append((f"{fam}{n}", relabel(_FAMILY[fam](n), perm), k_max))
    for fam, n, iso, k_max in MIXED_FAMILIES[size]:
        g = compedge.with_isolated(_FAMILY[fam](n), iso)
        perm = list(range(g.n))
        rng.shuffle(perm)
        isolated = [perm[v] for v in range(n, n + iso)]
        inp.mixed.append((f"{fam}{n}+{iso}", relabel(g, perm), isolated, k_max))
    return inp


def _call(out: list, op: Outcome, fn, *args):
    try:
        op.result = fn(*args)
    except Exception:  # one failed operation must not end the round
        op.error = traceback.format_exc(limit=3)
    out.append(op)


def run_round(inp: Inputs) -> list[Outcome]:
    """The timed phase: every operation of one round, in order."""
    out: list[Outcome] = []
    if inp.workload in CENSUS:
        for g in inp.graphs:
            op = Outcome("graph", compedge.to_graph6(g), g)
            _call(out, op, compedge.verify.run_graph_checks, g, inp.cfg)
        return out
    verify, resolution = compedge.verify, compedge.resolution
    for label, g, k_max in inp.deep:
        I = compedge.complementary_edge_ideal(g)
        Ik = I
        for k in range(1, k_max + 1):
            if k > 1:
                Ik = compedge.ideals.multiply(Ik, I)
            tag = f"{label}^{k}"
            _call(out, Outcome("ass", tag, g, k, Ik), verify.ass_oracle, Ik)
            _call(out, Outcome("v", tag, g, k, Ik), verify.v_oracle, Ik)
            _call(out, Outcome("depth0", tag, g, k, Ik), verify.depth_zero_oracle, Ik)
            if box_cells(Ik.lcm_of_generators()) <= REG_BOX_LIMIT:
                _call(out, Outcome("reg", tag, g, k, Ik), resolution.reg_pd_depth, Ik)
    for label, g, isolated, k_max in inp.mixed:
        I = mixed_ideal(g, isolated)
        Ik = I
        for k in range(1, k_max + 1):
            if k > 1:
                Ik = compedge.ideals.multiply(Ik, I)
            tag = f"{label}^{k}"
            _call(out, Outcome("lq", tag, g, k, Ik), resolution.has_linear_quotients, Ik, LQ_LIMIT)
            _call(out, Outcome("cwl", tag, g, k, Ik), resolution.is_componentwise_linear, Ik)
    return out
