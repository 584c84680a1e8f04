"""Normal form (Definition 2.2), treecomp, and decomposition transformations.

This module provides:

* :func:`child_component` / :func:`treecomp` -- the ``[r]``-component a child
  subtree decomposes (Section 7's ``treecomp``), which underlies both the
  normal-form conditions and their checks;
* :func:`is_normal_form` / :func:`normal_form_violations` -- checking the four
  conditions of Definition 2.2;
* :func:`normalize` -- the constructive transformation in the proof of
  Theorem 2.3, turning a decomposition that satisfies the *old* normal form
  NFo of [17] (conditions 1 and 2 of Definition 2.2) into one satisfying the
  new, stronger normal form, without increasing the width;
* :func:`complete_decomposition` -- the Section 6 transformation that makes a
  decomposition *complete* (every hyperedge strongly covered) by attaching
  one extra child per not-strongly-covered edge.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from repro.decomposition.hypertree import (
    DecompositionNode,
    HypertreeDecomposition,
    NodeId,
)
from repro.exceptions import DecompositionError
from repro.hypergraph.components import components
from repro.hypergraph.hypergraph import Vertex


# ----------------------------------------------------------------------
# treecomp and per-child components
# ----------------------------------------------------------------------
def child_component(
    decomposition: HypertreeDecomposition, parent_id: NodeId, child_id: NodeId
) -> Optional[FrozenSet[Vertex]]:
    """The unique ``[parent]``-component ``C_r`` with
    ``χ(T_child) = C_r ∪ (χ(child) ∩ χ(parent))``, or ``None`` if no (or more
    than one) component satisfies the equation -- i.e. condition 1 of
    Definition 2.2 fails for this parent/child pair."""
    hypergraph = decomposition.hypergraph
    parent = decomposition.node(parent_id)
    child = decomposition.node(child_id)
    subtree_chi = decomposition.chi_of_subtree(child_id)
    shared = child.chi & parent.chi
    matches = [
        comp
        for comp in components(hypergraph, parent.chi)
        if subtree_chi == comp | shared
    ]
    if len(matches) != 1:
        return None
    return matches[0]


def treecomp(
    decomposition: HypertreeDecomposition, node_id: NodeId
) -> Optional[FrozenSet[Vertex]]:
    """``treecomp(s)`` of Section 7: ``var(H)`` for the root, otherwise the
    ``[parent]``-component associated with the node by condition 1."""
    parent_id = decomposition.parent(node_id)
    if parent_id is None:
        return frozenset(decomposition.hypergraph.vertices)
    return child_component(decomposition, parent_id, node_id)


# ----------------------------------------------------------------------
# Definition 2.2 checks
# ----------------------------------------------------------------------
def normal_form_violations(
    decomposition: HypertreeDecomposition,
) -> List[str]:
    """Human-readable descriptions of every violated normal-form condition.

    An empty list means the decomposition is in normal form.  The
    decomposition is expected to be a valid hypertree decomposition; call
    :meth:`HypertreeDecomposition.validate` first if unsure.
    """
    hypergraph = decomposition.hypergraph
    violations: List[str] = []
    for parent_id, child_id in decomposition.tree_edges():
        parent = decomposition.node(parent_id)
        child = decomposition.node(child_id)
        component = child_component(decomposition, parent_id, child_id)
        label = f"child {child_id} of node {parent_id}"
        if component is None:
            violations.append(
                f"{label}: condition 1 fails (no unique [r]-component C_r with "
                f"χ(T_s) = C_r ∪ (χ(s) ∩ χ(r)))"
            )
            continue
        if not child.chi & component:
            violations.append(f"{label}: condition 2 fails (χ(s) ∩ C_r = ∅)")
        frontier = hypergraph.vertices_of_edges_touching(component)
        for edge_name in child.lambda_edges:
            if not hypergraph.edge_vertices(edge_name) & frontier:
                violations.append(
                    f"{label}: condition 3 fails (edge {edge_name!r} does not meet "
                    f"var(edges(C_r)))"
                )
                break
        expected_chi = frontier & hypergraph.var(child.lambda_edges)
        if child.chi != expected_chi:
            violations.append(
                f"{label}: condition 4 fails (χ(s) ≠ var(edges(C_r)) ∩ var(λ(s)))"
            )
    return violations


def is_normal_form(decomposition: HypertreeDecomposition) -> bool:
    """True iff the decomposition satisfies Definition 2.2."""
    return not normal_form_violations(decomposition)


def is_old_normal_form(decomposition: HypertreeDecomposition) -> bool:
    """The weaker normal form NFo of [17]: conditions 1 and 2 of
    Definition 2.2 plus ``var(λ(s)) ∩ χ(r) ⊆ χ(s)``."""
    hypergraph = decomposition.hypergraph
    for parent_id, child_id in decomposition.tree_edges():
        parent = decomposition.node(parent_id)
        child = decomposition.node(child_id)
        component = child_component(decomposition, parent_id, child_id)
        if component is None:
            return False
        if not child.chi & component:
            return False
        if not (hypergraph.var(child.lambda_edges) & parent.chi) <= child.chi:
            return False
    return True


# ----------------------------------------------------------------------
# Theorem 2.3: NFo -> NF transformation
# ----------------------------------------------------------------------
def normalize(decomposition: HypertreeDecomposition) -> HypertreeDecomposition:
    """Apply the constructive transformation from the proof of Theorem 2.3.

    The input must satisfy the old normal form NFo (the algorithms in this
    library always produce the new normal form directly, so this function
    mainly exists to mirror -- and test -- the paper's proof).  The output
    keeps the same tree shape and root label, relabels every non-root node by

    ``λ'(s) = {h ∈ λ(s) | h ∩ var(edges(C_r)) ≠ ∅}`` and
    ``χ'(s) = (C_r ∩ var(λ'(s))) ∪ (var(edges(C_r)) ∩ χ'(r))``,

    and is a normal-form decomposition of the same hypergraph with width at
    most the input width.
    """
    if not is_old_normal_form(decomposition):
        raise DecompositionError(
            "normalize() expects a decomposition in the old normal form NFo; "
            "use k_decomp/minimal_k_decomp to build NF decompositions directly"
        )
    hypergraph = decomposition.hypergraph
    new_nodes: Dict[NodeId, DecompositionNode] = {}
    root_id = decomposition.root
    root = decomposition.node(root_id)
    new_nodes[root_id] = DecompositionNode(
        node_id=root_id,
        lambda_edges=root.lambda_edges,
        chi=root.chi,
        component=frozenset(hypergraph.vertices),
    )

    for node_id in decomposition.node_ids():
        if node_id == root_id:
            continue
        parent_id = decomposition.parent(node_id)
        assert parent_id is not None
        node = decomposition.node(node_id)
        component = child_component(decomposition, parent_id, node_id)
        if component is None:
            raise DecompositionError(
                f"node {node_id} has no associated [parent]-component"
            )
        frontier = hypergraph.vertices_of_edges_touching(component)
        new_lambda = frozenset(
            h for h in node.lambda_edges if hypergraph.edge_vertices(h) & frontier
        )
        parent_chi = new_nodes[parent_id].chi
        new_chi = (component & hypergraph.var(new_lambda)) | (frontier & parent_chi)
        new_nodes[node_id] = DecompositionNode(
            node_id=node_id,
            lambda_edges=new_lambda,
            chi=new_chi,
            component=component,
        )

    children = {
        node_id: decomposition.children(node_id) for node_id in decomposition.node_ids()
    }
    return HypertreeDecomposition(
        hypergraph=hypergraph, root=root_id, children=children, nodes=new_nodes
    )


# ----------------------------------------------------------------------
# Section 6: completion
# ----------------------------------------------------------------------
def complete_decomposition(
    decomposition: HypertreeDecomposition,
) -> HypertreeDecomposition:
    """Make a decomposition *complete*: every hyperedge strongly covered.

    For any edge ``h`` that is covered (``h ⊆ χ(r)`` for some node ``r``) but
    not strongly covered, attach a fresh child ``s`` of ``r`` with
    ``λ(s) = {h}`` and ``χ(s) = h``.  The result is a valid hypertree
    decomposition of the same width (assuming the input is valid and covers
    every edge), but is generally *not* in normal form -- exactly as discussed
    at the end of Section 6.
    """
    hypergraph = decomposition.hypergraph
    nodes: Dict[NodeId, DecompositionNode] = {
        node_id: decomposition.node(node_id) for node_id in decomposition.node_ids()
    }
    children: Dict[NodeId, List[NodeId]] = {
        node_id: list(decomposition.children(node_id))
        for node_id in decomposition.node_ids()
    }
    next_id = max(nodes) + 1

    for edge_name in hypergraph.edge_names:
        if decomposition.strongly_covering_node(edge_name) is not None:
            continue
        verts = hypergraph.edge_vertices(edge_name)
        host: Optional[NodeId] = None
        for node_id in decomposition.node_ids():
            if verts <= decomposition.node(node_id).chi:
                host = node_id
                break
        if host is None:
            raise DecompositionError(
                f"edge {edge_name!r} is not covered; the input decomposition is invalid"
            )
        nodes[next_id] = DecompositionNode(
            node_id=next_id,
            lambda_edges=frozenset({edge_name}),
            chi=verts,
            component=None,
        )
        children[next_id] = []
        children[host].append(next_id)
        next_id += 1

    return HypertreeDecomposition(
        hypergraph=hypergraph,
        root=decomposition.root,
        children=children,
        nodes=nodes,
    )
