"""Join trees as width-1 hypertree decompositions.

Acyclic hypergraphs are exactly the hypergraphs of hypertree width 1
(Section 2.1), and the paper's class ``JT_H`` (Theorem 3.3) consists of the
width-1 *complete* decompositions with one node per hyperedge,
``λ(p) = {h}`` and ``χ(p) = h``.  This module converts between
:class:`repro.hypergraph.acyclicity.JoinTree` and that decomposition view,
and extracts a join tree back out of any width-1 decomposition.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.decomposition.hypertree import (
    DecompositionNode,
    HypertreeDecomposition,
    NodeId,
)
from repro.exceptions import DecompositionError
from repro.hypergraph.acyclicity import JoinTree, build_join_tree
from repro.hypergraph.hypergraph import EdgeName, Hypergraph


def join_tree_to_decomposition(join_tree: JoinTree) -> HypertreeDecomposition:
    """The width-1 complete hypertree decomposition corresponding to a join
    tree: one node per hyperedge with ``λ = {h}`` and ``χ = var(h)``."""
    hypergraph = join_tree.hypergraph
    order = join_tree.nodes()
    id_of: Dict[EdgeName, NodeId] = {name: i for i, name in enumerate(order)}
    nodes = {
        id_of[name]: DecompositionNode(
            node_id=id_of[name],
            lambda_edges=frozenset({name}),
            chi=hypergraph.edge_vertices(name),
        )
        for name in order
    }
    children = {
        id_of[name]: tuple(id_of[kid] for kid in join_tree.children.get(name, ()))
        for name in order
    }
    return HypertreeDecomposition(
        hypergraph=hypergraph,
        root=id_of[join_tree.root],
        children=children,
        nodes=nodes,
    )


def acyclic_decomposition(hypergraph: Hypergraph) -> HypertreeDecomposition:
    """Build a width-1 decomposition of an acyclic hypergraph via GYO."""
    return join_tree_to_decomposition(build_join_tree(hypergraph))


def decomposition_to_join_tree(
    decomposition: HypertreeDecomposition,
) -> JoinTree:
    """Extract a join tree from a width-1 complete decomposition.

    Every node must have a singleton λ label, every hyperedge must appear in
    exactly one node, and the decomposition must be valid; these are the
    defining properties of the class ``JT_H``.
    """
    hypergraph = decomposition.hypergraph
    edge_of_node: Dict[NodeId, EdgeName] = {}
    for node in decomposition.nodes():
        if len(node.lambda_edges) != 1:
            raise DecompositionError(
                "only width-1 decompositions with singleton λ labels correspond to join trees"
            )
        edge_of_node[node.node_id] = next(iter(node.lambda_edges))
    seen = list(edge_of_node.values())
    if sorted(seen) != sorted(hypergraph.edge_names):
        raise DecompositionError(
            "the decomposition does not use every hyperedge exactly once"
        )
    children: Dict[EdgeName, Tuple[EdgeName, ...]] = {}
    for node_id in decomposition.node_ids():
        children[edge_of_node[node_id]] = tuple(
            edge_of_node[kid] for kid in decomposition.children(node_id)
        )
    return JoinTree(
        root=edge_of_node[decomposition.root],
        children=children,
        hypergraph=hypergraph,
    )
