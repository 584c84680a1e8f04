"""threshold-k-decomp (Fig. 4): the weight-threshold decision procedure.

Theorem 5.1 shows that, for a *smooth* TAF, deciding whether some normal-form
decomposition of width at most ``k`` has weight at most ``t`` is
LOGCFL-complete.  The paper's procedure ``decomposable_k`` is an alternating
(guess-and-check) algorithm; its deterministic simulation computes, for every
candidate ``(S, C)``, the minimum weight of an NF decomposition of the
sub-hypergraph induced by ``var(edges(C))`` rooted at a node with
``λ = S`` -- exactly the quantity minimal-k-decomp accumulates bottom-up.

We implement that deterministic simulation *top-down with memoisation*, i.e.
structurally the same recursion as Fig. 4 with the guesses replaced by
minimisation.  Because it is an independent traversal order from the
bottom-up evaluation in :mod:`repro.decomposition.minimal`, the two are used
to cross-check each other in the test suite.  Like the bottom-up phase, the
recursion runs on the candidates graph's dense integer ids and the TAF's
mask forms, with the per-candidate memo an id-indexed list.  Unlike it, the
recursion asks the TAF once per candidate it visits and never reads the
graph's interned labels, so the bottom-up phase's weigh-once-per-label
gather has a check that does not share it.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.decomposition.candidates import CandidatesGraph
from repro.decomposition.minimal import _checked_graph
from repro.hypergraph.hypergraph import Hypergraph
from repro.weights.semiring import INFINITY, Number
from repro.weights.taf import TreeAggregationFunction


class _ThresholdSolver:
    """Memoised top-down computation of per-candidate minimal subtree weights."""

    def __init__(self, graph: CandidatesGraph, taf: TreeAggregationFunction) -> None:
        taf.bind_mask_space(graph.bitset)
        self.graph = graph
        self.taf = taf
        self._memo: List[Optional[Number]] = [None] * graph.num_candidates

    def best_candidate_weight(self, cand_id: int) -> Number:
        """``v(p) ⊕ ⊕_q min_{p' solves q} (best(p') ⊕ e(p, p'))`` for the
        candidate ``p``; ``∞`` if some subproblem below it is unsolvable."""
        memoised = self._memo[cand_id]
        if memoised is not None:
            return memoised
        # Recursion depth is bounded by the number of hypergraph vertices
        # (components shrink strictly), but mark in-progress entries to guard
        # against accidental cycles.
        self._memo[cand_id] = INFINITY
        graph = self.graph
        combine = self.taf.semiring.combine
        edge_weight = self.taf.mask_edge_weight
        cand_lambda = graph.cand_lambda
        cand_chi = graph.cand_chi
        total = self.taf.mask_vertex_weight(cand_lambda[cand_id], cand_chi[cand_id])
        for subproblem in graph.cand_subs[cand_id]:
            best = INFINITY
            for solver in graph.sub_solvers[subproblem]:
                solver_weight = self.best_candidate_weight(solver)
                if solver_weight == INFINITY:
                    continue
                edge = edge_weight(
                    cand_lambda[cand_id],
                    cand_chi[cand_id],
                    cand_lambda[solver],
                    cand_chi[solver],
                )
                value = combine(solver_weight, edge)
                if value < best:
                    best = value
            if best == INFINITY:
                self._memo[cand_id] = INFINITY
                return INFINITY
            total = combine(total, best)
        self._memo[cand_id] = total
        return total

    def best_subproblem_weight(self, sub_id: int) -> Number:
        """Minimum over all candidates solving the subproblem."""
        best = INFINITY
        for solver in self.graph.sub_solvers[sub_id]:
            value = self.best_candidate_weight(solver)
            if value < best:
                best = value
        return best


def minimum_weight_recursive(
    hypergraph: Hypergraph,
    k: int,
    taf: TreeAggregationFunction,
    graph: Optional[CandidatesGraph] = None,
) -> Number:
    """The minimum TAF weight over ``kNFD_H``, computed by the top-down
    recursion of threshold-k-decomp (``∞`` if ``kNFD_H = ∅``)."""
    graph = _checked_graph(graph, hypergraph, k)
    solver = _ThresholdSolver(graph, taf)
    old_limit = sys.getrecursionlimit()
    # Recursion depth is bounded by the number of vertices (the component
    # shrinks strictly along any branch); leave generous headroom.
    sys.setrecursionlimit(max(old_limit, 10 * hypergraph.num_vertices() + 1000))
    try:
        return solver.best_subproblem_weight(graph.ROOT_SUBPROBLEM_ID)
    finally:
        sys.setrecursionlimit(old_limit)


def threshold_k_decomp(
    hypergraph: Hypergraph,
    k: int,
    taf: TreeAggregationFunction,
    threshold: Number,
    graph: Optional[CandidatesGraph] = None,
) -> bool:
    """Decide whether some ``HD ∈ kNFD_H`` has ``F^{⊕,v,e}(HD) ≤ threshold``.

    This is the decision problem of Theorem 5.1.  The answer is ``False``
    both when every decomposition is heavier than the threshold and when no
    width-``k`` normal-form decomposition exists at all.
    """
    return minimum_weight_recursive(hypergraph, k, taf, graph=graph) <= threshold
