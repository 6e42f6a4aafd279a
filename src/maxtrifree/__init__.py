"""Desk-scale toolkit around the counting of maximal triangle-free graphs:
constructions, exact enumeration with brute-force oracles, maximal
independent set bounds, and the reduced/auxiliary graph proof pipeline."""

from .graph import (
    Graph,
    GuardError,
    find_triangle,
    graph_from_edge_mask,
    greedy_triangle_removal,
    has_clique,
    is_maximal_triangle_free,
    is_triangle_free,
    lex_pairs,
)
from .graph6 import (
    Graph6Error,
    decode_graph6,
    encode_graph6,
    encode_graph6_rows,
    read_graph6_file,
)
from .mis import (
    enumerate_mis,
    mis_count,
    verify_hujter_tuza,
    verify_matching_equality,
)
from .constructions import (
    FolkloreChoice,
    KrChoice,
    folklore_family_stats,
    folklore_graph,
    kr_entropy_check,
    kr_free_graph,
)
from .enumeration import (
    CountRow,
    brute_force_maximal_tf,
    enumerate_maximal_tf,
    growth_table,
    remark3_census,
)
from .reduction import (
    AuxiliaryGraph,
    InstanceError,
    ReductionInstance,
    bound_chain,
    build_auxiliary,
    enumerate_h_star,
    random_instance,
    verify_claim1,
    verify_claim2,
    worked_k4_instance,
)
from .report import RunConfig, VerificationReport
from .suites import run_suite

__version__ = "0.1.0"
