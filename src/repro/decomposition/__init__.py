"""Hypertree decompositions: structure, normal form, and the paper's algorithms."""

from repro.decomposition.hypertree import (
    DecompositionNode,
    HypertreeDecomposition,
    NodeId,
)
from repro.decomposition.candidates import (
    CandidatesGraph,
    count_k_vertices,
    k_vertices,
)
from repro.decomposition.minimal import (
    EvaluationResult,
    TieBreaker,
    evaluate_candidates_graph,
    minimal_k_decomp,
    minimum_weight,
)
from repro.decomposition.kdecomp import (
    has_width_at_most,
    hypertree_width,
    k_decomp,
    optimal_decomposition,
)
from repro.decomposition.normal_form import (
    child_component,
    complete_decomposition,
    is_normal_form,
    is_old_normal_form,
    normal_form_violations,
    normalize,
    treecomp,
)
from repro.decomposition.join_tree import (
    acyclic_decomposition,
    decomposition_to_join_tree,
    join_tree_to_decomposition,
)
from repro.decomposition.threshold import (
    minimum_weight_recursive,
    threshold_k_decomp,
)
from repro.decomposition.enumerate import (
    count_nf_decompositions,
    enumerate_nf_decompositions,
)
from repro.decomposition.game import (
    extract_strategy,
    game_width,
    is_monotone_strategy,
    marshals_have_winning_strategy,
)

__all__ = [
    "DecompositionNode",
    "HypertreeDecomposition",
    "NodeId",
    "CandidatesGraph",
    "count_k_vertices",
    "k_vertices",
    "EvaluationResult",
    "TieBreaker",
    "evaluate_candidates_graph",
    "minimal_k_decomp",
    "minimum_weight",
    "has_width_at_most",
    "hypertree_width",
    "k_decomp",
    "optimal_decomposition",
    "child_component",
    "complete_decomposition",
    "is_normal_form",
    "is_old_normal_form",
    "normal_form_violations",
    "normalize",
    "treecomp",
    "acyclic_decomposition",
    "decomposition_to_join_tree",
    "join_tree_to_decomposition",
    "minimum_weight_recursive",
    "threshold_k_decomp",
    "count_nf_decompositions",
    "enumerate_nf_decompositions",
    "extract_strategy",
    "game_width",
    "is_monotone_strategy",
    "marshals_have_winning_strategy",
]
