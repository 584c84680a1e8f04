"""Exhaustive enumeration of normal-form decompositions (for verification).

Theorems 7.3 and 7.6 establish that the runs of ``k-decomp`` generate exactly
the normal-form hypertree decompositions of width at most ``k``.  Every run
corresponds to choosing, for each subproblem encountered, one of its
surviving candidates in the candidates graph.  Enumerating those choices
therefore enumerates ``kNFD_H`` -- which is exactly what the test suite and
the NF-restriction ablation need in order to check that

* ``minimal-k-decomp``'s weight equals the true minimum over ``kNFD_H``, and
* every enumerated decomposition really is a valid NF decomposition.

The bookkeeping (solvability, tree shapes) runs on the graph's dense integer
ids; names are materialised only in the emitted decompositions.  The
enumeration is exponential in general; ``limit`` caps the number of
decompositions produced, and callers should only use this on small inputs.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterator, List, Optional, Tuple

from repro.decomposition.candidates import CandidatesGraph
from repro.decomposition.hypertree import (
    DecompositionNode,
    HypertreeDecomposition,
    NodeId,
)
from repro.decomposition.minimal import _checked_graph
from repro.hypergraph.hypergraph import Hypergraph


def _solvable_candidates(graph: CandidatesGraph) -> List[Tuple[int, ...]]:
    """For every subproblem id, the candidate ids all of whose own
    subproblems are solvable (i.e. the candidates that survive the
    evaluation phase, independent of any weighting)."""
    solvable_candidate: List[Optional[bool]] = [None] * graph.num_candidates
    survivors: List[Tuple[int, ...]] = [()] * graph.num_subproblems
    for sub_id in graph.sub_order:
        alive: List[int] = []
        for cand_id in graph.sub_solvers[sub_id]:
            solvable = solvable_candidate[cand_id]
            if solvable is None:
                # All of the candidate's subproblems have strictly smaller
                # components, hence were processed already; a candidate is
                # solvable iff each of those subproblems kept a survivor.
                solvable = all(survivors[sub] for sub in graph.cand_subs[cand_id])
                solvable_candidate[cand_id] = solvable
            if solvable:
                alive.append(cand_id)
        survivors[sub_id] = tuple(alive)
    return survivors


class _TreeShape:
    """An immutable (candidate, children-shapes) tree used during enumeration."""

    __slots__ = ("candidate", "children")

    def __init__(self, candidate: int, children: Tuple["_TreeShape", ...]) -> None:
        self.candidate = candidate
        self.children = children


def _enumerate_shapes(
    graph: CandidatesGraph,
    survivors: List[Tuple[int, ...]],
    sub_id: int,
    limit: Optional[int],
) -> Iterator[_TreeShape]:
    """All decomposition subtrees solving the subproblem (lazily)."""
    produced = 0
    for candidate in survivors[sub_id]:
        child_iterables = [
            lambda sub=sub: _enumerate_shapes(graph, survivors, sub, limit)
            for sub in graph.cand_subs[candidate]
        ]
        if not child_iterables:
            yield _TreeShape(candidate, ())
            produced += 1
            if limit is not None and produced >= limit:
                return
            continue
        # Cartesian product over the children's alternatives.  ``product``
        # needs concrete sequences; the limit keeps them small.
        child_lists = []
        for make_iter in child_iterables:
            options = list(make_iter())
            if limit is not None:
                options = options[:limit]
            child_lists.append(options)
        for combo in product(*child_lists):
            yield _TreeShape(candidate, tuple(combo))
            produced += 1
            if limit is not None and produced >= limit:
                return


def _shape_to_decomposition(
    graph: CandidatesGraph, shape: _TreeShape
) -> HypertreeDecomposition:
    nodes: Dict[NodeId, DecompositionNode] = {}
    children: Dict[NodeId, List[NodeId]] = {}
    counter = [0]

    def build(current: _TreeShape) -> NodeId:
        node_id = counter[0]
        counter[0] += 1
        nodes[node_id] = graph.node_view(current.candidate, node_id)
        children[node_id] = []
        for child_shape in current.children:
            children[node_id].append(build(child_shape))
        return node_id

    root_id = build(shape)
    return HypertreeDecomposition(
        hypergraph=graph.hypergraph, root=root_id, children=children, nodes=nodes
    )


def enumerate_nf_decompositions(
    hypergraph: Hypergraph,
    k: int,
    limit: Optional[int] = 10000,
    graph: Optional[CandidatesGraph] = None,
) -> Iterator[HypertreeDecomposition]:
    """Yield normal-form hypertree decompositions of width at most ``k``.

    With ``limit=None`` the enumeration is exhaustive (use only on small
    hypergraphs); otherwise at most ``limit`` decompositions are yielded and
    at most ``limit`` alternatives are considered per subproblem.
    """
    graph = _checked_graph(graph, hypergraph, k)
    survivors = _solvable_candidates(graph)
    produced = 0
    for shape in _enumerate_shapes(graph, survivors, graph.ROOT_SUBPROBLEM_ID, limit):
        yield _shape_to_decomposition(graph, shape)
        produced += 1
        if limit is not None and produced >= limit:
            return


def count_nf_decompositions(
    hypergraph: Hypergraph, k: int, limit: Optional[int] = 10000
) -> int:
    """The number of enumerated NF decompositions (capped by ``limit``)."""
    return sum(1 for _ in enumerate_nf_decompositions(hypergraph, k, limit=limit))
