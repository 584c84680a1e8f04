"""The query-cost TAF ``cost_H(Q)`` of Example 4.3.

For a conjunctive query ``Q`` over a database with catalog statistics, the
TAF ``F^{+, v*, e*}`` weighs a decomposition node ``p`` by the estimated cost
``v*(p)`` of evaluating ``E(p) = Π_{χ(p)} ⋈_{h ∈ λ(p)} rel(h)`` and a tree
edge ``(p, p')`` by the estimated cost ``e*(p, p')`` of the semijoin
``E(p) ⋉ E(p')``.  Minimal decompositions w.r.t. this TAF are the paper's
"optimal query plans" (relative to the cost model and the class
``kNFD_{H(Q)}``).

The estimates come from :class:`repro.db.costmodel.CardinalityEstimator`,
i.e. only from relation cardinalities and attribute selectivities -- never
from the data itself -- exactly like a DBMS optimiser.  ``cost_H(Q)`` is
*not* smooth in the paper's sense (its arithmetic is not logspace), and the
flag on the returned TAF records that.
"""

from __future__ import annotations

from typing import Optional

from repro.db.costmodel import CardinalityEstimator
from repro.db.statistics import CatalogStatistics
from repro.decomposition.hypertree import DecompositionNode
from repro.query.conjunctive import ConjunctiveQuery
from repro.weights.semiring import SUM_MIN
from repro.weights.taf import TreeAggregationFunction, _memoised


class QueryCostTAF(TreeAggregationFunction):
    """``cost_H(Q)``: the TAF whose minimal decompositions are optimal query
    plans under the textbook cost model.

    The instance keeps the estimator around (``.estimator``) so planners and
    experiments can report per-node estimates (the ``$``-labels of Figs. 6
    and 7).
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        statistics: CatalogStatistics,
        estimator: Optional[CardinalityEstimator] = None,
    ) -> None:
        self.query = query
        self.statistics = statistics
        self.estimator = estimator or CardinalityEstimator(query, statistics)
        # Per-(λ, χ) memos: the candidates graph evaluates the TAF once per
        # candidate, and many candidates share their labels.  Keys are the
        # label frozensets themselves (interned by the bitset core, with
        # cached hashes), so a hit costs two dict lookups and no sorting.
        self._cost_for_labels = _memoised(
            self.estimator.node_expression_cost, sorted, sorted
        )
        self._estimate_for_labels = _memoised(
            self.estimator.projection_cardinality, sorted, sorted
        )
        # Bind once so both parts are the *same* object and the evaluation
        # phase computes each candidate's |E(p)| estimate a single time.
        estimate_part = self.node_estimate
        super().__init__(
            semiring=SUM_MIN,
            vertex_weight=self._vertex_cost,
            edge_weight=self._edge_cost,
            name=f"cost_H({query.name})",
            smooth=False,
            # e*(p, p') = |E(p)| + |E(p')| is separable, which lets the
            # planner use the fast evaluation path.
            edge_parent_part=estimate_part,
            edge_child_part=estimate_part,
        )

    # ------------------------------------------------------------------
    def _vertex_cost(self, node: DecompositionNode) -> float:
        """``v*(p)``: estimated cost of evaluating ``E(p)``."""
        return self._cost_for_labels(node.lambda_edges, node.chi)

    def _edge_cost(self, parent: DecompositionNode, child: DecompositionNode) -> float:
        """``e*(p, p')``: estimated cost of the semijoin ``E(p) ⋉ E(p')``."""
        return self.estimator.semijoin_cost(
            sorted(parent.lambda_edges),
            sorted(parent.chi),
            sorted(child.lambda_edges),
            sorted(child.chi),
        )

    # ------------------------------------------------------------------
    def node_estimate(self, node: DecompositionNode) -> float:
        """The estimated output cardinality of ``E(p)`` (used for reporting)."""
        return self._estimate_for_labels(node.lambda_edges, node.chi)

    # ------------------------------------------------------------------
    def _native_mask_forms(self, bitset):
        """Native mask forms (the planner's evaluation fold is dominated by
        these calls, so they skip the generic node lift): a mask-keyed memo
        over the label-keyed one -- each distinct mask pair is translated
        once, each distinct label pair estimated once, and the label memos
        survive rebinding to another bitset.  ``e*(p, p') = |E(p)| +
        |E(p')|`` stays separable through one shared part function."""
        cost = _memoised(
            self._cost_for_labels, bitset.edge_names, bitset.vertex_names
        )
        estimate = _memoised(
            self._estimate_for_labels, bitset.edge_names, bitset.vertex_names
        )
        return cost, None, estimate, estimate


def query_cost_taf(
    query: ConjunctiveQuery, statistics: CatalogStatistics
) -> QueryCostTAF:
    """Convenience constructor matching the paper's notation."""
    return QueryCostTAF(query, statistics)
