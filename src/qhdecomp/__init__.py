"""Local ball statistics and quasihomogeneous decomposition of bounded-degree graphs."""

__version__ = "0.1.0"

from .balls import RootedBall, canonical_code, decode_code, extract_ball
from .coloring import color_edges, greedy_square_coloring, random_b_labels
from .decomposer import Partition, absorb_small_parts, decompose, splitting_diagnostics, verify_partition
from .families import FamilySpec, generate, sequence
from .graph import (
    Graph,
    boundary_edge_count,
    connected_components,
    edit_distance,
    from_edge_list,
    spanned_subgraph,
    square_graph,
    to_edge_list,
    validate,
)
from .quasihom import QuasihomParams, check_exact, falsify_heuristic, verify_certificate
from .stats import StatVector, d_s, mixture, sparse_density, stat_vector

__all__ = [
    "__version__",
    "RootedBall", "canonical_code", "decode_code", "extract_ball",
    "color_edges", "greedy_square_coloring", "random_b_labels",
    "Partition", "absorb_small_parts", "decompose", "splitting_diagnostics", "verify_partition",
    "FamilySpec", "generate", "sequence",
    "Graph", "boundary_edge_count", "connected_components", "edit_distance",
    "from_edge_list", "spanned_subgraph", "square_graph", "to_edge_list", "validate",
    "QuasihomParams", "check_exact", "falsify_heuristic", "verify_certificate",
    "StatVector", "d_s", "mixture", "sparse_density", "stat_vector",
]
