"""Tree aggregation functions (Definition 4.1).

A TAF over a semiring ``⟨R+, ⊕, min, ⊥, ∞⟩`` is

``F^{⊕,v,e}_H(HD) = ⊕_{p ∈ N} ( v_H(p) ⊕ ⊕_{(p,p') ∈ E} e_H(p, p') )``

where ``v_H`` scores decomposition nodes and ``e_H`` scores tree edges
(parent, child).  Unlike general HWFs, TAFs look at the tree only through
node scores and parent/child edge scores, which is exactly the locality the
candidates-graph algorithm (minimal-k-decomp) exploits.

The class also records whether the TAF is *smooth* (logspace-evaluable,
Section 5); smoothness has no operational effect in a RAM implementation but
the flag is carried through so experiments can report which complexity regime
(LOGCFL vs P) each weighting function falls into.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.decomposition.hypertree import DecompositionNode, HypertreeDecomposition
from repro.weights.semiring import SUM_MIN, Number, Semiring

VertexWeight = Callable[[DecompositionNode], Number]
EdgeWeight = Callable[[DecompositionNode, DecompositionNode], Number]

#: Mask-space counterparts: receive a node's ``λ`` edge mask and ``χ``
#: vertex mask (two ints) instead of a string-labelled node; the edge form
#: receives ``(parent λ, parent χ, child λ, child χ)``.
MaskVertexWeight = Callable[[int, int], Number]
MaskEdgeWeight = Callable[[int, int, int, int], Number]

#: The label-batch form: receives the ``λ`` masks and the ``χ`` masks of
#: many labels (two equally long sequences) and returns their vertex
#: weights, edge parent parts and edge child parts as lists (the parts are
#: ``None`` for a TAF without a separable edge weight; one shared part
#: function gives one list object).
MaskLabelWeights = Callable[
    [Sequence[int], Sequence[int]],
    Tuple[List[Number], Optional[List[Number]], Optional[List[Number]]],
]


def zero_vertex_weight(node: DecompositionNode) -> Number:
    """The constant-⊥ vertex weight (``⊥ = 0`` for the built-in semirings)."""
    return 0.0


def zero_edge_weight(parent: DecompositionNode, child: DecompositionNode) -> Number:
    """The constant-⊥ edge weight."""
    return 0.0


def _memoised(function, first_of, second_of):
    """``function(first_of(a), second_of(b))`` memoised per ``(a, b)``: the
    one memo layer behind every lowered mask form (and the query-cost TAF's
    label-keyed estimates)."""
    memo: dict = {}

    def lookup(a, b):
        key = (a, b)
        cached = memo.get(key)
        if cached is None:
            cached = memo[key] = function(first_of(a), second_of(b))
        return cached

    return lookup


def _mapped_over_labels(
    vertex: MaskVertexWeight,
    parent_part: Optional[MaskVertexWeight],
    child_part: Optional[MaskVertexWeight],
) -> MaskLabelWeights:
    """The default label batch: each per-label form mapped over the labels,
    the vertex weight first; a shared part function is mapped once."""

    def label_weights(label_lambda, label_chi):
        vertices = list(map(vertex, label_lambda, label_chi))
        if parent_part is None:
            return vertices, None, None
        parents = list(map(parent_part, label_lambda, label_chi))
        if child_part is parent_part:
            return vertices, parents, parents
        return vertices, parents, list(map(child_part, label_lambda, label_chi))

    return label_weights


class TreeAggregationFunction:
    """A concrete TAF ``F^{⊕,v,e}``.

    Parameters
    ----------
    semiring:
        The ``⟨R+, ⊕, min, ⊥, ∞⟩`` structure to aggregate with.
    vertex_weight:
        ``v_H``; receives a :class:`DecompositionNode`.
    edge_weight:
        ``e_H``; receives the parent node then the child node.  Defaults to
        the constant ``⊥`` (which turns the TAF into a vertex aggregation
        function when ``⊕ = +``).
    name:
        Identifier used in reports.
    smooth:
        Whether the TAF is smooth in the sense of Section 5 (its value and
        both component functions are logspace computable).  Purely
        informational.
    edge_parent_part / edge_child_part:
        Optional *separable* form of the edge weight:
        ``e(p, p') = edge_parent_part(p) ⊕ edge_child_part(p')``.
        When both are supplied, minimal-k-decomp's evaluation phase uses a
        much cheaper update (the parent contribution factors out of the
        minimisation over child candidates, which is sound because ``min``
        distributes over ``⊕`` in the semiring).  All of the paper's TAFs --
        including ``cost_H(Q)``, whose ``e*(p, p')`` is the sum of the two
        nodes' estimated sizes -- are separable; the generic path is kept for
        arbitrary user-supplied edge weights.
    mask_vertex_weight / mask_edge_weight / mask_edge_parent_part /
    mask_edge_child_part:
        Optional native mask-space counterparts of the weight functions,
        receiving a node's ``λ`` edge mask and ``χ`` vertex mask as plain
        ints (the edge form receives parent λ/χ then child λ/χ) instead of
        string-labelled nodes.  They must agree with their string
        counterparts; the structural TAFs in :mod:`repro.weights.library`
        supply both.  The decomposition algorithms only ever call mask
        forms: :meth:`bind_mask_space` lowers whatever is missing, and adds
        the label-batch form ``mask_label_weights`` the evaluation phase
        weighs a graph's labels with.
    """

    def __init__(
        self,
        semiring: Semiring = SUM_MIN,
        vertex_weight: VertexWeight = zero_vertex_weight,
        edge_weight: EdgeWeight = zero_edge_weight,
        name: str = "taf",
        smooth: bool = True,
        edge_parent_part: Optional[VertexWeight] = None,
        edge_child_part: Optional[VertexWeight] = None,
        mask_vertex_weight: Optional[MaskVertexWeight] = None,
        mask_edge_weight: Optional[MaskEdgeWeight] = None,
        mask_edge_parent_part: Optional[MaskVertexWeight] = None,
        mask_edge_child_part: Optional[MaskVertexWeight] = None,
    ) -> None:
        self.semiring = semiring
        self.vertex_weight = vertex_weight
        self.edge_weight = edge_weight
        self.name = name
        self.smooth = smooth
        self.edge_parent_part = edge_parent_part
        self.edge_child_part = edge_child_part
        self.mask_vertex_weight = mask_vertex_weight
        self.mask_edge_weight = mask_edge_weight
        self.mask_edge_parent_part = mask_edge_parent_part
        self.mask_edge_child_part = mask_edge_child_part
        if (
            edge_weight is zero_edge_weight
            and edge_parent_part is None
            and edge_child_part is None
        ):
            # The constant-⊥ edge weight is trivially separable.
            neutral = semiring.neutral
            self.edge_parent_part = self.edge_child_part = lambda node: neutral
            if mask_edge_parent_part is None and mask_edge_child_part is None:
                self.mask_edge_parent_part = self.mask_edge_child_part = (
                    lambda lambda_mask, chi_mask: neutral
                )
        self._supplied_mask_forms = (
            self.mask_vertex_weight,
            self.mask_edge_weight,
            self.mask_edge_parent_part,
            self.mask_edge_child_part,
            None,
        )
        self.mask_label_weights: Optional[MaskLabelWeights] = None
        self._mask_bitset = None

    @property
    def has_separable_edge(self) -> bool:
        """True when the separable form of the edge weight is available."""
        return self.edge_parent_part is not None and self.edge_child_part is not None

    # ------------------------------------------------------------------
    def bind_mask_space(self, bitset) -> None:
        """Lower the TAF to the mask space of ``bitset`` (the
        :class:`~repro.core.bitset_hypergraph.BitsetHypergraph` of the
        hypergraph being decomposed): afterwards ``mask_vertex_weight``,
        ``mask_edge_weight`` and -- for a separable TAF -- both mask edge
        parts are callable.

        A form supplied natively is kept (and an edge weight with native
        parts is their ``⊕``); a missing one is the lift of its name form
        over one ``DecompositionNode(-1, λ names, χ names)`` per distinct
        ``(λ mask, χ mask)`` pair (``v_H`` / ``e_H`` of Definition 4.1 see a
        node only through its labels).  The label-batch form
        ``mask_label_weights(label_lambda, label_chi)`` is a subclass's
        native batch when it has one, otherwise the per-label mask forms
        mapped over the labels.  The decomposition algorithms call this on
        entry, so they never build node views themselves.  Binding again to
        the same bitset is a no-op (memos stay warm across a k-sweep);
        binding to another one rebuilds the non-native forms.
        """
        if self._mask_bitset is bitset:
            return
        self._mask_bitset = bitset
        node_of = _memoised(
            lambda lambda_edges, chi: DecompositionNode(-1, lambda_edges, chi),
            bitset.edge_names,
            bitset.vertex_names,
        )

        def lift(name_form: VertexWeight) -> MaskVertexWeight:
            return lambda lambda_mask, chi_mask: name_form(
                node_of(lambda_mask, chi_mask)
            )

        vertex, edge, parent_part, child_part, label_weights = (
            self._native_mask_forms(bitset)
        )
        self.mask_vertex_weight = vertex or lift(self.vertex_weight)
        if edge is not None:
            self.mask_edge_weight = edge
        elif parent_part is not None and child_part is not None:
            combine = self.semiring.combine
            self.mask_edge_weight = lambda pl, pc, cl, cc: combine(
                parent_part(pl, pc), child_part(cl, cc)
            )
        else:
            name_edge = self.edge_weight
            self.mask_edge_weight = lambda pl, pc, cl, cc: name_edge(
                node_of(pl, pc), node_of(cl, cc)
            )
        if self.has_separable_edge:
            parent_part = parent_part or lift(self.edge_parent_part)
            if child_part is None:
                # One shared part function stays one object, so the
                # evaluation computes it once per candidate, not twice.
                child_part = (
                    parent_part
                    if self.edge_child_part is self.edge_parent_part
                    else lift(self.edge_child_part)
                )
            self.mask_edge_parent_part = parent_part
            self.mask_edge_child_part = child_part
            parts = (parent_part, child_part)
        else:
            parts = (None, None)
        self.mask_label_weights = label_weights or _mapped_over_labels(
            self.mask_vertex_weight, *parts
        )

    def _native_mask_forms(self, bitset):
        """The ``(vertex, edge, parent part, child part, label batch)`` mask
        forms this TAF supplies itself for ``bitset``; ``None`` entries are
        lifted (the batch is mapped from the per-label forms)."""
        return self._supplied_mask_forms

    # ------------------------------------------------------------------
    def node_contribution(
        self, decomposition: HypertreeDecomposition, node_id: int
    ) -> Number:
        """``v(p) ⊕ ⊕_{children p'} e(p, p')`` for one node."""
        node = decomposition.node(node_id)
        value = self.vertex_weight(node)
        for child_id in decomposition.children(node_id):
            child = decomposition.node(child_id)
            value = self.semiring.combine(value, self.edge_weight(node, child))
        return value

    def weigh(self, decomposition: HypertreeDecomposition) -> Number:
        """Evaluate the TAF on a whole decomposition (the direct definition,
        independent of any decomposition algorithm -- used to cross-check
        minimal-k-decomp's bookkeeping)."""
        contributions = (
            self.node_contribution(decomposition, node_id)
            for node_id in decomposition.node_ids()
        )
        return self.semiring.combine_all(contributions)

    def __call__(self, decomposition: HypertreeDecomposition) -> Number:
        return self.weigh(decomposition)

    # ------------------------------------------------------------------
    def validate_semiring(self, samples=(0.0, 1.0, 2.5, 7.0)) -> None:
        """Check the semiring laws on sample values; raises on violation."""
        self.semiring.verify(list(samples))

    def __repr__(self) -> str:
        return (
            f"TreeAggregationFunction(name={self.name!r}, "
            f"semiring={self.semiring.name}, smooth={self.smooth})"
        )


def from_vertex_function(
    vertex_weight: VertexWeight, name: str = "vertex-taf"
) -> TreeAggregationFunction:
    """Lift a per-node scoring function into a TAF over the sum semiring,
    i.e. the TAF equivalent of a vertex aggregation function."""
    return TreeAggregationFunction(
        semiring=SUM_MIN,
        vertex_weight=vertex_weight,
        edge_weight=zero_edge_weight,
        name=name,
    )


def from_edge_function(
    edge_weight: EdgeWeight,
    semiring: Semiring = SUM_MIN,
    name: str = "edge-taf",
) -> TreeAggregationFunction:
    """A TAF that only scores tree edges (e.g. separator-based functions)."""
    return TreeAggregationFunction(
        semiring=semiring,
        vertex_weight=zero_vertex_weight,
        edge_weight=edge_weight,
        name=name,
    )
