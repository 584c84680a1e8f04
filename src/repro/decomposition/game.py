"""The robber-and-marshals game view of hypertree decompositions.

The proof of Theorem 2.3 leans on the game characterisation of hypertree
width from Gottlob, Leone and Scarcello, "Robbers, marshals, and guards"
([19] in the paper): ``k`` marshals have a *monotone* winning strategy
against the robber iff the hypergraph has hypertree width at most ``k``.
A marshal occupies a hyperedge (blocking all its vertices); the robber moves
along [blocked]-paths; monotonicity means the robber's escape space never
grows.

A normal-form hypertree decomposition *is* such a strategy: at a node ``p``
the marshals occupy ``λ(p)`` and the robber is confined to ``treecomp(p)``;
when the robber picks the ``[χ(p)]``-component ``C``, the marshals move to
the child that decomposes ``C``.  This module extracts that strategy from a
decomposition and verifies monotonicity, and conversely plays the game to
decide ``hw(H) ≤ k`` without building a decomposition (an independent
cross-check of :func:`repro.decomposition.kdecomp.has_width_at_most`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, List, Optional, Tuple

from repro.decomposition.candidates import k_vertices
from repro.decomposition.hypertree import HypertreeDecomposition, NodeId
from repro.decomposition.normal_form import treecomp
from repro.exceptions import DecompositionError
from repro.hypergraph.components import sub_components
from repro.hypergraph.hypergraph import EdgeName, Hypergraph, Vertex


def extract_strategy(
    decomposition: HypertreeDecomposition,
) -> List[Tuple[NodeId, FrozenSet[EdgeName], FrozenSet[Vertex]]]:
    """The marshal strategy encoded by a decomposition.

    Returns one triple ``(node_id, λ(node), escape space)`` per decomposition
    node, in BFS order; the escape space of a node is its ``treecomp``
    (``var(H)`` at the root).  Raises if some node has no well-defined
    component, i.e. the decomposition is not in normal form.
    """
    strategy = []
    for node in decomposition.nodes():
        escape = treecomp(decomposition, node.node_id)
        if escape is None:
            raise DecompositionError(
                f"node {node.node_id} has no associated component; "
                "the decomposition is not in normal form"
            )
        strategy.append((node.node_id, node.lambda_edges, escape))
    return strategy


def is_monotone_strategy(decomposition: HypertreeDecomposition) -> bool:
    """Check that the strategy encoded by the decomposition is monotone: the
    escape space strictly shrinks from every node to each of its children."""
    try:
        escape_of = {
            node_id: escape for node_id, _, escape in extract_strategy(decomposition)
        }
    except DecompositionError:
        return False
    for parent_id, child_id in decomposition.tree_edges():
        if not escape_of[child_id] < escape_of[parent_id]:
            return False
    return True


def marshals_have_winning_strategy(hypergraph: Hypergraph, k: int) -> bool:
    """Decide whether ``k`` marshals win the monotone game on ``H``.

    This is a direct game search: a position is a component (the robber's
    escape space, together with the marshals' current blocked vertex set via
    the component's frontier); the marshals win from a position if some
    k-vertex ``S`` touches the component, covers the component's frontier
    intersection with the previous marshal position, and wins from every
    resulting sub-component.  The search mirrors threshold-k-decomp with the
    weights stripped out and is used as an independent cross-check of
    ``hw(H) ≤ k``.
    """
    if hypergraph.num_edges() == 0:
        raise DecompositionError("the game is undefined on an edgeless hypergraph")
    all_k_vertices = k_vertices(hypergraph, k)
    var_of = {kv: hypergraph.var(kv) for kv in all_k_vertices}

    @lru_cache(maxsize=None)
    def wins(previous_kvertex: FrozenSet[EdgeName], component: FrozenSet[Vertex]) -> bool:
        frontier = hypergraph.vertices_of_edges_touching(component)
        boundary = frontier & (var_of[previous_kvertex] if previous_kvertex else frozenset())
        for kvertex in all_k_vertices:
            kv_vars = var_of[kvertex]
            if not kv_vars & component:
                continue
            if not boundary <= kv_vars:
                continue
            if any(not (hypergraph.edge_vertices(h) & frontier) for h in kvertex):
                continue
            remaining = sub_components(hypergraph, kv_vars, component)
            if all(wins(kvertex, sub) for sub in remaining):
                return True
        return False

    initial = frozenset(hypergraph.vertices)
    return wins(frozenset(), initial)


def game_width(hypergraph: Hypergraph, max_k: Optional[int] = None) -> int:
    """The smallest ``k`` for which the marshals win -- equal to the
    hypertree width by the game characterisation."""
    cap = max_k if max_k is not None else hypergraph.num_edges()
    for k in range(1, cap + 1):
        if marshals_have_winning_strategy(hypergraph, k):
            return k
    raise DecompositionError(f"no winning strategy with at most {cap} marshals")
