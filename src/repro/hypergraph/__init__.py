"""Hypergraph substrate: data structure, connectivity, acyclicity, generators."""

from repro.hypergraph.hypergraph import EdgeName, Hypergraph, Vertex
from repro.hypergraph.components import (
    component_frontier,
    component_of,
    components,
    components_under_edge_set,
    edges_of_component,
    find_path,
    is_adjacent,
    is_connected_set,
    sub_components,
)
from repro.hypergraph.acyclicity import (
    GYOTrace,
    JoinTree,
    all_join_trees,
    build_join_tree,
    gyo_reduction,
    is_acyclic,
)
from repro.hypergraph.primal import (
    primal_graph,
    treewidth_upper_bound,
)
from repro.hypergraph.generators import (
    acyclic_hypergraph,
    clique_hypergraph,
    cycle_hypergraph,
    grid_hypergraph,
    paper_q0_hypergraph,
    path_hypergraph,
    random_hypergraph,
    star_hypergraph,
)

__all__ = [
    "EdgeName",
    "Hypergraph",
    "Vertex",
    "component_frontier",
    "component_of",
    "components",
    "components_under_edge_set",
    "edges_of_component",
    "find_path",
    "is_adjacent",
    "is_connected_set",
    "sub_components",
    "GYOTrace",
    "JoinTree",
    "all_join_trees",
    "build_join_tree",
    "gyo_reduction",
    "is_acyclic",
    "primal_graph",
    "treewidth_upper_bound",
    "acyclic_hypergraph",
    "clique_hypergraph",
    "cycle_hypergraph",
    "grid_hypergraph",
    "paper_q0_hypergraph",
    "path_hypergraph",
    "random_hypergraph",
    "star_hypergraph",
]
