"""Unweighted normal-form decomposition (k-decomp) and hypertree width.

Definition 7.2 of the paper obtains ``k-decomp`` from ``minimal-k-decomp`` by
replacing the minimum-weight selections with arbitrary selections; its runs
produce exactly the normal-form decompositions of width at most ``k``
(Theorems 7.3 and 7.6).  We realise the same idea by running
``minimal-k-decomp`` with the width TAF: the result is not only *some*
width-``≤ k`` NF decomposition, it is one of optimal width, which is usually
what callers want.

``hypertree_width`` searches for the smallest ``k`` with ``kNFD_H ≠ ∅``,
which by Theorem 2.3 equals the hypertree width ``hw(H)``.
"""

from __future__ import annotations

from typing import Optional

from repro.decomposition.candidates import CandidatesGraph
from repro.decomposition.hypertree import HypertreeDecomposition
from repro.decomposition.minimal import (
    TieBreaker,
    _checked_graph,
    evaluate_candidates_graph,
    minimal_k_decomp,
)
from repro.exceptions import DecompositionError, NoDecompositionExistsError
from repro.hypergraph.acyclicity import is_acyclic
from repro.hypergraph.hypergraph import Hypergraph
from repro.weights.library import width_taf
from repro.weights.semiring import INFINITY


def k_decomp(
    hypergraph: Hypergraph,
    k: int,
    tie_breaker: Optional[TieBreaker] = None,
) -> HypertreeDecomposition:
    """A normal-form hypertree decomposition of width at most ``k``.

    Raises :class:`NoDecompositionExistsError` when ``hw(H) > k``.
    The returned decomposition has the minimum width achievable within the
    bound (the width TAF is used for the internal bookkeeping).
    """
    return minimal_k_decomp(hypergraph, k, width_taf(), tie_breaker=tie_breaker)


def has_width_at_most(
    hypergraph: Hypergraph, k: int, graph: Optional[CandidatesGraph] = None
) -> bool:
    """Decide ``hw(H) ≤ k`` (equivalently ``kNFD_H ≠ ∅``)."""
    graph = _checked_graph(graph, hypergraph, k)
    result = evaluate_candidates_graph(graph, width_taf())
    return result.minimum_weight() < INFINITY


def hypertree_width(hypergraph: Hypergraph, max_k: Optional[int] = None) -> int:
    """The hypertree width ``hw(H)``.

    The search starts at 1 (acyclic hypergraphs are recognised directly via
    the GYO reduction, which is much cheaper than building a candidates
    graph) and increases ``k`` until a decomposition exists, building one
    fresh candidates graph per attempted ``k`` (only the current one stays
    alive, so peak memory is one graph).  ``max_k`` caps the search; the
    default cap is the number of hyperedges, which always suffices because
    the single node labelled with all edges is a valid decomposition.
    """
    if hypergraph.num_edges() == 0:
        raise DecompositionError("hypertree width of an edgeless hypergraph is undefined")
    if is_acyclic(hypergraph):
        return 1
    cap = max_k if max_k is not None else hypergraph.num_edges()
    for k in range(2, cap + 1):
        if has_width_at_most(hypergraph, k):
            return k
    raise NoDecompositionExistsError(
        cap, f"hypertree width exceeds the search cap {cap}"
    )


def optimal_decomposition(
    hypergraph: Hypergraph, max_k: Optional[int] = None
) -> HypertreeDecomposition:
    """A minimum-width normal-form hypertree decomposition of ``H``."""
    width = hypertree_width(hypergraph, max_k=max_k)
    return k_decomp(hypergraph, width)
