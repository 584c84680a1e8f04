"""The Theorem 3.3 reduction: 3-colourability → minimal weighted join trees.

Theorem 3.3 proves that computing an ``[ω_H, C_H]``-minimal hypertree
decomposition is NP-hard for general hypertree weighting functions, even when
the class ``C_H`` is just the join trees of an acyclic hypergraph.  The proof
maps a graph ``G`` to

* an acyclic hypergraph ``H(G)`` with one "big" hyperedge
  ``g = V̄ ∪ {C}``, a hyperedge ``{V'_i, C}`` per vertex, and a hyperedge
  ``{V_j, V_t}`` per edge of ``G``; and
* an HWF ``ω_{H(G)}`` that gives weight 0 exactly to the join trees encoding
  a legal 3-colouring (the primed vertex edges hang below at most three
  children of the node covering ``g``, and no two adjacent vertices share a
  subtree) and weight 1 to every other join tree.

The minimal weight over all join trees is therefore 0 iff ``G`` is
3-colourable.  We implement the construction faithfully so its behaviour can
be exercised empirically on small graphs (the hardness itself is, of course,
not something to "run").
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.decomposition.hypertree import HypertreeDecomposition
from repro.hypergraph.hypergraph import Hypergraph
from repro.weights.hwf import CallableHWF

Edge = Tuple[str, str]


def coloring_hypergraph(vertices: Sequence[str], edges: Iterable[Edge]) -> Hypergraph:
    """``H(G)`` of the Theorem 3.3 construction.

    Hyperedge names: ``big`` for ``g = V̄ ∪ {C}``, ``prime_<v>`` for
    ``{V'_v, C}``, and ``edge_<u>_<v>`` for each graph edge.
    """
    hyperedges: Dict[str, List[str]] = {}
    hyperedges["big"] = [f"V_{v}" for v in vertices] + ["C"]
    for v in vertices:
        hyperedges[f"prime_{v}"] = [f"Vp_{v}", "C"]
    for u, v in edges:
        hyperedges[f"edge_{u}_{v}"] = [f"V_{u}", f"V_{v}"]
    return Hypergraph(hyperedges)


def coloring_hwf(
    vertices: Sequence[str], edges: Iterable[Edge]
) -> CallableHWF:
    """The HWF ``ω_{H(G)}``: weight 0 iff the join tree encodes a legal
    3-colouring of ``G`` (conditions (1) and (2) in the proof of
    Theorem 3.3), else weight 1."""
    edge_set: Set[FrozenSet[str]] = {frozenset(e) for e in edges}
    vertex_list = list(vertices)

    def weight(decomposition: HypertreeDecomposition) -> float:
        hypergraph = decomposition.hypergraph
        # Locate the node covering the big hyperedge with χ = V̄ ∪ {C}.
        big_vars = hypergraph.edge_vertices("big")
        root_candidates = [
            node for node in decomposition.nodes() if node.chi == big_vars
        ]
        if not root_candidates:
            return 1.0
        anchor = root_candidates[0]

        # Group the prime edges by the child subtree of the anchor they live in.
        children = decomposition.children(anchor.node_id)
        subtree_of: Dict[int, FrozenSet[int]] = {
            child: frozenset(decomposition.subtree_ids(child)) for child in children
        }

        def holder_subtree(vertex_name: str):
            """The anchor child whose subtree covers ``{V'_v, C}``, or None."""
            target = hypergraph.edge_vertices(f"prime_{vertex_name}")
            for child, ids in subtree_of.items():
                if any(
                    target <= decomposition.node(node_id).chi for node_id in ids
                ):
                    return child
            return None

        assignment: Dict[str, object] = {}
        for vertex in vertex_list:
            child = holder_subtree(vertex)
            if child is None:
                # The prime edge is covered elsewhere (e.g. at the anchor
                # itself) -- not a colouring-shaped tree.
                return 1.0
            assignment[vertex] = child

        # Condition (1): at most 3 subtrees host prime edges.
        if len(set(assignment.values())) > 3:
            return 1.0
        # Condition (2): no graph edge inside a single subtree.
        for u in vertex_list:
            for v in vertex_list:
                if u < v and frozenset({u, v}) in edge_set:
                    if assignment[u] == assignment[v]:
                        return 1.0
        return 0.0

    return CallableHWF(weight, name="coloring-hwf")


def coloring_join_tree(
    vertices: Sequence[str],
    edges: Iterable[Edge],
    coloring: Dict[str, int],
) -> HypertreeDecomposition:
    """The width-1 decomposition (join tree) encoding a given 3-colouring,
    following the "only if" direction of the Theorem 3.3 proof: the root
    covers ``g``; one child per used colour hosts the prime edges of the
    vertices with that colour; the graph-edge hyperedges hang off the root."""
    hypergraph = coloring_hypergraph(vertices, edges)
    structure: Dict[int, List[int]] = {}
    lambdas: Dict[int, List[str]] = {}
    chis: Dict[int, List[str]] = {}

    root = 0
    lambdas[root] = ["big"]
    chis[root] = list(hypergraph.edge_vertices("big"))
    structure[root] = []
    next_id = 1

    colour_anchor: Dict[int, int] = {}
    for vertex in vertices:
        colour = coloring[vertex]
        if colour not in colour_anchor:
            anchor_id = next_id
            next_id += 1
            first_vertex = vertex
            lambdas[anchor_id] = [f"prime_{first_vertex}"]
            chis[anchor_id] = list(hypergraph.edge_vertices(f"prime_{first_vertex}"))
            structure[anchor_id] = []
            structure[root].append(anchor_id)
            colour_anchor[colour] = anchor_id
        else:
            node_id = next_id
            next_id += 1
            lambdas[node_id] = [f"prime_{vertex}"]
            chis[node_id] = list(hypergraph.edge_vertices(f"prime_{vertex}"))
            structure[node_id] = []
            structure[colour_anchor[colour]].append(node_id)

    for u, v in edges:
        node_id = next_id
        next_id += 1
        lambdas[node_id] = [f"edge_{u}_{v}"]
        chis[node_id] = list(hypergraph.edge_vertices(f"edge_{u}_{v}"))
        structure[node_id] = []
        structure[root].append(node_id)

    return HypertreeDecomposition.build(
        hypergraph=hypergraph,
        structure=structure,
        lambdas=lambdas,
        chis=chis,
        root=root,
    )


def is_legal_coloring(
    edges: Iterable[Edge], coloring: Dict[str, int], num_colors: int = 3
) -> bool:
    """Check a candidate colouring."""
    if any(c < 0 or c >= num_colors for c in coloring.values()):
        return False
    return all(coloring[u] != coloring[v] for u, v in edges)


def brute_force_3coloring(
    vertices: Sequence[str], edges: Iterable[Edge]
) -> Dict[str, int] | None:
    """A reference 3-colouring solver (exponential; for small test graphs)."""
    edge_list = list(edges)
    vertex_list = list(vertices)

    def backtrack(index: int, assignment: Dict[str, int]):
        if index == len(vertex_list):
            return dict(assignment)
        vertex = vertex_list[index]
        for colour in range(3):
            assignment[vertex] = colour
            if all(
                assignment.get(u) != assignment.get(v)
                for u, v in edge_list
                if u in assignment and v in assignment
            ):
                found = backtrack(index + 1, assignment)
                if found is not None:
                    return found
            del assignment[vertex]
        return None

    return backtrack(0, {})
