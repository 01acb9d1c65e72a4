"""Fault-tolerant clique-packing toolkit.

A graph is k-fault-tolerant for p disjoint copies of K_c when every
deletion of at most k vertices leaves p pairwise disjoint c-cliques
behind. This package verifies that property, builds families that attain
or approach the minimum edge count, audits the structure such graphs are
forced to have, recognizes minimum graphs for k = 1, and searches small
orders exhaustively.
"""

from .audit import (
    AuditRecord,
    AuditReport,
    RecognitionResult,
    audit_basic,
    audit_low_degree_cliques,
    audit_separator,
    recognize_min_1ft,
    size_k_separators,
)
from .blocks import BlockDecomposition, blocks
from .canon import (
    CanonicalForm,
    automorphism_generators,
    canonical_form,
    canonical_graph,
    canonical_labeling,
)
from .chordal import (
    ChordalityResult,
    CliqueTree,
    SeparatorStructure,
    chordality,
    separator_structure,
)
from .connectivity import (
    ConnectivityInfo,
    components,
    connectivity,
    edge_connectivity,
    is_connected,
    vertex_connectivity,
)
from .construct import (
    TreeTemplate,
    c2_even_k_construction,
    contract_neighborhood,
    harary,
    odd_cycle,
    star_construction,
    tree_of_cliques,
)
from .formats import (
    detect_format,
    emit_edge_list,
    emit_graph,
    emit_graph6,
    parse_edge_list,
    parse_graph,
    parse_graph6,
)
from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
    relabeled,
)
from .packing import (
    CliquePacking,
    OracleBudgetError,
    find_disjoint_cliques,
    has_clique_containing,
    is_valid_packing,
    oracle_packing_exists,
)
from .search import Budget, SearchReport, SearchResume, probe_conjecture, search_minimum
from .verify import (
    FTParams,
    FTVerdict,
    degree_floor,
    hub_edge_bound,
    verify_ft,
    verify_ft_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "AuditRecord",
    "AuditReport",
    "BlockDecomposition",
    "Budget",
    "CanonicalForm",
    "ChordalityResult",
    "CliquePacking",
    "CliqueTree",
    "ConnectivityInfo",
    "FTParams",
    "FTVerdict",
    "Graph",
    "OracleBudgetError",
    "RecognitionResult",
    "SearchReport",
    "SearchResume",
    "SeparatorStructure",
    "TreeTemplate",
    "audit_basic",
    "audit_low_degree_cliques",
    "audit_separator",
    "automorphism_generators",
    "blocks",
    "c2_even_k_construction",
    "canonical_form",
    "canonical_graph",
    "canonical_labeling",
    "chordality",
    "complete_graph",
    "components",
    "connectivity",
    "contract_neighborhood",
    "cycle_graph",
    "degree_floor",
    "detect_format",
    "disjoint_union",
    "edge_connectivity",
    "emit_edge_list",
    "emit_graph",
    "emit_graph6",
    "empty_graph",
    "find_disjoint_cliques",
    "harary",
    "has_clique_containing",
    "hub_edge_bound",
    "is_connected",
    "is_valid_packing",
    "odd_cycle",
    "oracle_packing_exists",
    "parse_edge_list",
    "parse_graph",
    "parse_graph6",
    "path_graph",
    "probe_conjecture",
    "recognize_min_1ft",
    "relabeled",
    "search_minimum",
    "separator_structure",
    "size_k_separators",
    "star_construction",
    "tree_of_cliques",
    "verify_ft",
    "verify_ft_oracle",
    "vertex_connectivity",
    "__version__",
]
