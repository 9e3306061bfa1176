"""Complementary edge ideals of finite simple graphs.

A library for building the ideal I_c(G) generated by (x_1...x_n)/(x_i x_j)
over the edges of G, evaluating the closed forms known for its powers
(stable associated primes, regularity, depth, v-functions, symbolic
powers), and verifying every formula at desk scale with independent
brute-force oracles.
"""

from .graphs import (
    ComponentSummary,
    Graph,
    canonical_form,
    complement,
    complete_graph,
    component_summary,
    cycle_graph,
    enumerate_labeled_graphs,
    format_edge_list,
    from_graph6,
    induced_subgraph,
    is_isomorphic,
    matching_graph,
    parse_edge_list,
    path_graph,
    to_graph6,
    triangles,
    with_isolated,
)
from .ideals import (
    BigDegreeCase,
    CaseClassification,
    LimitExceededError,
    MonomialIdeal,
    classify_big_degree,
    colon,
    colon_ideal,
    complementary_edge_ideal,
    edge_ideal,
    graded_component,
    ideal,
    intersect,
    localize,
    minimal_primes_squarefree,
    multiply,
    parse_ideal,
    power,
    symbolic_power,
)
from .monomials import (
    Monomial,
    lcm,
    one,
    parse_monomial,
    variable,
    x_of_set,
)
from .resolution import (
    BettiTable,
    HomologicalInvariants,
    betti_table,
    has_linear_quotients,
    has_linear_resolution,
    is_componentwise_linear,
    reg_pd_depth,
)
from .formulas import (
    AssPrediction,
    ass_first_power,
    ass_infinity,
    depth_and_dstab_closed_form,
    linear_powers_predicate,
    reg_closed_form,
    symbolic_equals_ordinary_class,
    v_closed_form,
    vstab,
)
from .verify import (
    SweepConfig,
    VWitness,
    VerificationReport,
    ass_oracle,
    depth_zero_oracle,
    markdown_summary,
    persistence_check,
    run_graph_checks,
    stable_ass_localization,
    strong_persistence_check,
    sweep,
    v_oracle,
    write_reports_jsonl,
)

__version__ = "0.1.0"
