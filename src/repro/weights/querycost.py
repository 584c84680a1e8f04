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

The TAF has two forms of ``v*`` and ``|E(p)|``.  The name forms
(``vertex_weight``, ``node_estimate``; ``weigh`` uses them) are the
authoritative definition: the cost model speaks in atom and variable names.
The mask forms the decomposition algorithms call are native: they take a
node's λ edge mask and χ vertex mask, get each λ's χ-independent terms once
from the estimator (:meth:`CardinalityEstimator.lambda_terms`, which the
name forms go through too) and compute a χ's projection cap from bits,
without translating χ to names.  The two forms are equal float for float,
which ``tests/test_search_plane_vectorized.py`` pins by Hypothesis against a
name-only twin.

The planner's evaluation phase weighs every distinct (λ, χ) label of the
candidates graph in one call of the batch form (``mask_label_weights``).
With numpy it computes the projection caps as columns -- one running
product per label, multiplied bit by bit in ascending vertex order -- and
gives the same floats as the per-label forms; without numpy it is those
forms, mapped over the labels.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.bitset import iter_bits
from repro.db.costmodel import CardinalityEstimator, capped_size
from repro.db.statistics import CatalogStatistics
from repro.decomposition.hypertree import DecompositionNode
from repro.query.conjunctive import ConjunctiveQuery
from repro.weights.semiring import SUM_MIN
from repro.weights.taf import TreeAggregationFunction, _memoised

try:  # The column batch needs numpy; the per-label forms are the fallback.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1


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
        # Per-(λ, χ) memos of the name forms (``weigh``, ``node_estimate``,
        # the generic lift).  Keys are the label frozensets themselves
        # (interned by the bitset core, with cached hashes), so a hit costs
        # two dict lookups and no sorting.
        self._cost_for_labels = _memoised(
            self.estimator.node_expression_cost, sorted, sorted
        )
        self._estimate_for_labels = _memoised(
            self.estimator.projection_cardinality, sorted, sorted
        )
        # Bind once so both parts are the *same* object and the evaluation
        # phase computes each label's |E(p)| estimate a single time.
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
        """``v*`` and ``|E(p)|`` computed from masks (the planner's
        evaluation fold is dominated by these calls, so they skip the
        generic node lift and never translate χ to names), and with numpy
        their column batch over many labels.

        Per λ mask the estimator's :meth:`~CardinalityEstimator.lambda_terms`
        gives the base cost, the join size and the domain sizes, re-keyed by
        vertex bit; per (λ, χ) the cap is the product of the domain sizes
        over χ's bits in ascending order, which is sorted-name order (the
        bitset interns vertices sorted), so every float equals the name
        form's.  ``e*(p, p') = |E(p)| + |E(p')|`` stays separable through
        one shared part function."""
        lambda_terms = self.estimator.lambda_terms
        edge_names = bitset.edge_names
        vertex_bit = bitset.vertices.bit
        terms_by_lambda: dict = {}
        domains_by_bit: dict = {}
        estimates: dict = {}

        def terms_of(lambda_mask: int):
            terms = terms_by_lambda.get(lambda_mask)
            if terms is None:
                terms = terms_by_lambda[lambda_mask] = lambda_terms(
                    sorted(edge_names(lambda_mask))
                )
            return terms

        def estimate(lambda_mask: int, chi_mask: int) -> float:
            key = (lambda_mask, chi_mask)
            found = estimates.get(key)
            if found is None:
                _, join_size, domains = terms_of(lambda_mask)
                domain_of = domains_by_bit.get(lambda_mask)
                if domain_of is None:
                    domain_of = domains_by_bit[lambda_mask] = {
                        vertex_bit(v): size for v, size in domains.items()
                    }
                found = estimates[key] = capped_size(
                    join_size, [domain_of.get(bit, 1.0) for bit in iter_bits(chi_mask)]
                )
            return found

        def cost(lambda_mask: int, chi_mask: int) -> float:
            return terms_of(lambda_mask)[0] + estimate(lambda_mask, chi_mask)

        label_weights = None
        if np is not None:
            vertex_index = bitset.vertices.index_of
            num_vertices = len(bitset.vertices)

            def label_weights(label_lambda, label_chi):
                return _column_label_weights(
                    label_lambda, label_chi, terms_of, vertex_index, num_vertices
                )

        return cost, None, estimate, estimate, label_weights


def _column_label_weights(
    label_lambda: Sequence[int],
    label_chi: Sequence[int],
    terms_of,
    vertex_index,
    num_vertices: int,
) -> Tuple[List[float], List[float], List[float]]:
    """``(v*, |E(p)|, |E(p)|)`` of every label, as the per-label forms
    compute them, with the projection caps computed as columns.

    The distinct λ masks are asked for their terms in first-occurrence
    order over the labels -- the order in which mapping ``v*`` over the
    labels asks them, so the estimator memoises the same joins in the same
    order.  Each label's cap starts at 1.0 and is multiplied, for every
    vertex bit in ascending order, by its λ's domain size where χ has the
    bit; skipping a bit multiplies by 1.0, which is exact, so every cap
    equals :func:`capped_size`'s left-to-right product.  One column of N
    domain sizes is gathered per bit, never an N × V matrix.  χ masks wider
    than one 64-bit word are split into words."""
    slot_of = {mask: slot for slot, mask in enumerate(dict.fromkeys(label_lambda))}
    terms = [terms_of(mask) for mask in slot_of]
    domains = np.ones((num_vertices, len(terms)))  # vertex index × λ slot
    for slot, (_, _, by_name) in enumerate(terms):
        for variable, size in by_name.items():
            domains[vertex_index(variable), slot] = size
    slots = np.fromiter(
        map(slot_of.__getitem__, label_lambda), dtype=np.intp, count=len(label_lambda)
    )
    cap = np.ones(len(label_chi))
    union = 0
    for chi_mask in label_chi:
        union |= chi_mask
    for offset in range(0, union.bit_length(), _WORD_BITS):
        word_union = (union >> offset) & _WORD_MASK
        if not word_union:
            continue
        words = np.fromiter(
            ((chi_mask >> offset) & _WORD_MASK for chi_mask in label_chi),
            dtype=np.uint64,
            count=len(label_chi),
        )
        for bit in iter_bits(word_union):
            has = (words & np.uint64(bit)) != 0
            column = domains[offset + bit.bit_length() - 1][slots]
            np.multiply(cap, column, out=cap, where=has)
    join = np.array([t[1] for t in terms])[slots]
    estimate = np.maximum(np.minimum(join, cap), 1.0)
    base = np.array([t[0] for t in terms])[slots]
    estimates = estimate.tolist()
    return (base + estimate).tolist(), estimates, estimates


def query_cost_taf(
    query: ConjunctiveQuery, statistics: CatalogStatistics
) -> QueryCostTAF:
    """Convenience constructor matching the paper's notation."""
    return QueryCostTAF(query, statistics)
