"""minimal-k-decomp (Fig. 2): weighted, normal-form hypertree decompositions.

Given a hypergraph ``H``, a width bound ``k`` and a tree aggregation function
``F^{⊕,v,e}``, the algorithm returns an ``[F, kNFD_H]``-minimal hypertree
decomposition -- a decomposition in normal form of width at most ``k`` whose
weight is minimal among all such decompositions -- or reports *failure* when
``kNFD_H = ∅`` (i.e. ``hw(H) > k``).

The implementation follows the paper closely:

1. build the candidates graph (:class:`repro.decomposition.candidates.CandidatesGraph`);
2. *evaluate* it bottom-up: process subproblems in increasing component size
   (which realises the extraction condition ``incoming(q) ⊆ weighted``),
   either pruning candidates whose subproblem is unsolvable or folding the
   best child weight into each candidate via
   ``weight(p') := weight(p') ⊕ min_p (weight(p) ⊕ e(p', p))``;
3. *select* a decomposition top-down (``Select-hypertree``), choosing a
   minimum-weight candidate for every subproblem.

Both phases run on the graph's dense-id arrays -- weights live in a plain
list indexed by candidate id, arcs are id tuples -- and see the TAF only
through its mask forms (:meth:`TreeAggregationFunction.bind_mask_space`);
string-labelled :class:`DecompositionNode` views are materialised for the
emitted decomposition only.

``v_H`` and ``e_H`` of Definition 4.1 see a node only through its labels,
and candidates repeat a label many times over (3-24x on the benchmark's
fifteen planning cases).  The evaluation therefore weighs every distinct
``(λ, χ)`` label of the graph (``label_lambda`` / ``label_chi``) in one
call of the TAF's label batch (``mask_label_weights``, which the lowering
provides: a TAF's native batch, or its per-label mask forms mapped over
the labels) and gathers the results into the per-candidate lists the fold
loops over (through ``cand_label``); the fold itself runs over candidate
ids.  Selection asks the per-label mask forms, and the threshold recursion
(:mod:`repro.decomposition.threshold`) keeps calling the TAF per candidate:
it is the independent cross-check of this phase.

Ties during selection are broken by a pluggable :class:`TieBreaker`; with the
``"random"`` policy every minimal decomposition can be produced by some run,
which is the completeness half of Theorem 4.4 and is exercised by the tests.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.decomposition.candidates import (
    Candidate,
    CandidatesGraph,
    Subproblem,
)
from repro.decomposition.hypertree import (
    DecompositionNode,
    HypertreeDecomposition,
    NodeId,
)
from repro.exceptions import DecompositionError, NoDecompositionExistsError
from repro.hypergraph.hypergraph import Hypergraph
from repro.weights.semiring import INFINITY, Number
from repro.weights.taf import TreeAggregationFunction


class TieBreaker:
    """Chooses among equally weighted candidates during ``Select-hypertree``.

    ``"first"`` (deterministic, default) picks the smallest candidate under a
    canonical ordering; ``"random"`` picks uniformly at random, realising the
    non-deterministically complete selection the paper assumes for the
    completeness statement of Theorem 4.4.
    """

    def __init__(self, policy: str = "first", seed: Optional[int] = None) -> None:
        if policy not in {"first", "random"}:
            raise DecompositionError(f"unknown tie-breaking policy {policy!r}")
        self.policy = policy
        self._rng = random.Random(seed)

    def choose(self, tied: Sequence[Candidate], key=None) -> Candidate:
        """Pick one of ``tied``; ``key`` overrides the canonical ordering
        (the selection phase passes a key that translates dense candidate
        ids back to the historical (λ names, component names) order)."""
        if self.policy == "first" or len(tied) == 1:
            # ``min`` is the first element of the stable sort, without the
            # O(n log n) sort inside the selection hot loop.
            return min(tied, key=key or _candidate_sort_key)
        # The random policy keeps sorting so a given seed selects the same
        # sequence of decompositions it always did.
        return self._rng.choice(sorted(tied, key=key or _candidate_sort_key))


def _candidate_sort_key(candidate):
    if isinstance(candidate, int):
        # Dense candidate ids follow the canonical construction order.
        return candidate
    kvertex, component = candidate
    return (tuple(sorted(kvertex)), tuple(sorted(component)))


class EvaluationResult:
    """The outcome of the candidates-graph evaluation phase.

    The authoritative state is id-indexed: ``weight_by_id[i]`` is the final
    weight of candidate ``i`` (meaningful only when the candidate survived),
    ``removed[i]`` flags pruned candidates, and ``survivors_by_sub[q]``
    holds the surviving candidate ids of subproblem ``q``.  The historical
    frozenset-keyed views ``weights`` / ``survivors`` are translated lazily
    on first access.
    """

    __slots__ = (
        "graph",
        "weight_by_id",
        "removed",
        "survivors_by_sub",
        "_weights",
        "_survivors",
    )

    def __init__(
        self,
        graph: CandidatesGraph,
        weight_by_id: List[Number],
        removed: bytearray,
        survivors_by_sub: List[Tuple[int, ...]],
    ) -> None:
        self.graph = graph
        self.weight_by_id = weight_by_id
        self.removed = removed
        self.survivors_by_sub = survivors_by_sub
        self._weights: Optional[Dict[Candidate, Number]] = None
        self._survivors: Optional[Dict[Subproblem, Tuple[Candidate, ...]]] = None

    @property
    def weights(self) -> Dict[Candidate, Number]:
        if self._weights is None:
            public = self.graph.public_candidate
            self._weights = {
                public(cand_id): weight
                for cand_id, weight in enumerate(self.weight_by_id)
                if not self.removed[cand_id]
            }
        return self._weights

    @property
    def survivors(self) -> Dict[Subproblem, Tuple[Candidate, ...]]:
        if self._survivors is None:
            graph = self.graph
            public = graph.public_candidate
            self._survivors = {
                graph.public_subproblem(sub_id): tuple(public(c) for c in alive)
                for sub_id, alive in enumerate(self.survivors_by_sub)
            }
        return self._survivors

    @property
    def root_survivor_ids(self) -> Tuple[int, ...]:
        return self.survivors_by_sub[self.graph.ROOT_SUBPROBLEM_ID]

    @property
    def root_candidates(self) -> Tuple[Candidate, ...]:
        public = self.graph.public_candidate
        return tuple(public(c) for c in self.root_survivor_ids)

    def minimum_weight(self) -> Number:
        """The weight of the minimal decomposition (``∞`` if none exists)."""
        candidates = self.root_survivor_ids
        if not candidates:
            return INFINITY
        weights = self.weight_by_id
        return min(weights[c] for c in candidates)


def evaluate_candidates_graph(
    graph: CandidatesGraph, taf: TreeAggregationFunction
) -> EvaluationResult:
    """The *Evaluate the Candidates Graph* phase of Fig. 2.

    Candidates start with ``weight(p) = v_H(p)``; processing a solvable
    subproblem ``q`` folds ``min_{p ∈ incoming(q)} (weight(p) ⊕ e(p', p))``
    into every candidate ``p'`` that has ``q`` as a subproblem; an
    unsolvable subproblem removes those candidates instead.

    The whole phase runs on candidate ids and the TAF's mask forms (lowered
    once, on entry, against the graph's bitset).
    """
    taf.bind_mask_space(graph.bitset)
    combine = taf.semiring.combine
    cand_lambda = graph.cand_lambda
    cand_chi = graph.cand_chi
    # ``v_H`` and the separable parts see a node only through its labels:
    # weigh every distinct (λ, χ) label in one batch, then gather per
    # candidate.
    cand_label = graph.cand_label
    vertex_by_label, parent_by_label, child_by_label = taf.mask_label_weights(
        graph.label_lambda, graph.label_chi
    )

    def per_candidate(by_label: List[Number]) -> List[Number]:
        return list(map(by_label.__getitem__, cand_label))

    weights = per_candidate(vertex_by_label)

    # The separable path is gated on the *string* parts (the authoritative
    # definition of the TAF).
    separable = taf.has_separable_edge
    if separable:
        parent_parts = per_candidate(parent_by_label)
        # A single shared part function (e.g. cost_H(Q)'s |E(p)|) gives one
        # list, gathered once.
        child_parts = (
            parent_parts
            if child_by_label is parent_by_label
            else per_candidate(child_by_label)
        )
    else:
        edge_weight = taf.mask_edge_weight

    removed = bytearray(graph.num_candidates)
    survivors_by_sub: List[Tuple[int, ...]] = [()] * graph.num_subproblems
    sub_solvers = graph.sub_solvers
    sub_dependents = graph.sub_dependents
    # Until the first removal every solver is alive, and the survivor
    # tuple is the solver tuple itself.
    any_removed = False

    for sub_id in graph.sub_order:
        if any_removed:
            alive = tuple(c for c in sub_solvers[sub_id] if not removed[c])
        else:
            alive = sub_solvers[sub_id]
        survivors_by_sub[sub_id] = alive
        if not alive:
            # No way to solve this subproblem: every candidate that depends on
            # it is removed from the graph.
            for cand_id in sub_dependents[sub_id]:
                removed[cand_id] = 1
            any_removed = True
            continue
        # Fold the best solver of ``subproblem`` into each candidate that has
        # it as a subproblem.
        if separable:
            # e(p, p') = parent_part(p) ⊕ child_part(p'); since min
            # distributes over ⊕, the minimisation over solvers can be done
            # once per subproblem and the parent contribution folded in per
            # dependent.
            best_child = INFINITY
            for solver in alive:
                value = combine(weights[solver], child_parts[solver])
                if value < best_child:
                    best_child = value
            for cand_id in sub_dependents[sub_id]:
                if removed[cand_id]:
                    continue
                weights[cand_id] = combine(
                    weights[cand_id], combine(parent_parts[cand_id], best_child)
                )
            continue
        for cand_id in sub_dependents[sub_id]:
            if removed[cand_id]:
                continue
            parent_lambda = cand_lambda[cand_id]
            parent_chi = cand_chi[cand_id]
            best = INFINITY
            for solver in alive:
                value = combine(
                    weights[solver],
                    edge_weight(
                        parent_lambda, parent_chi, cand_lambda[solver], cand_chi[solver]
                    ),
                )
                if value < best:
                    best = value
            weights[cand_id] = combine(weights[cand_id], best)

    # Every survivor list is final when recorded: a candidate is removed
    # only while one of its own subproblems is processed, and those are
    # components strictly inside the one it solves, so ``sub_order``
    # settles it before any list that holds it is recorded.
    return EvaluationResult(
        graph=graph,
        weight_by_id=weights,
        removed=removed,
        survivors_by_sub=survivors_by_sub,
    )


def _select_hypertree(
    result: EvaluationResult,
    taf: TreeAggregationFunction,
    tie_breaker: TieBreaker,
) -> HypertreeDecomposition:
    """The *Select-hypertree* phase: extract one minimal decomposition."""
    graph = result.graph
    taf.bind_mask_space(graph.bitset)
    semiring = taf.semiring
    weights = result.weight_by_id

    root_survivors = result.root_survivor_ids
    if not root_survivors:
        raise NoDecompositionExistsError(graph.k)

    # Tie-breaking uses the historical canonical order -- sorted λ names,
    # then sorted component names -- so the "first" policy selects the same
    # decomposition the frozenset implementation did (numeric mask order
    # would differ).  Only tied candidates are ever translated.
    edge_names = graph.bitset.edge_names
    vertex_names = graph.bitset.vertex_names

    def canonical_key(cand_id: int):
        return (
            tuple(sorted(edge_names(graph.cand_lambda[cand_id]))),
            tuple(sorted(vertex_names(graph.cand_comp[cand_id]))),
        )

    best_root_weight = min(weights[c] for c in root_survivors)
    tied_roots = [c for c in root_survivors if weights[c] == best_root_weight]
    root_id_choice = tie_breaker.choose(tied_roots, key=canonical_key)

    nodes: Dict[NodeId, DecompositionNode] = {}
    children: Dict[NodeId, List[NodeId]] = {}
    next_id = 0

    edge_weight = taf.mask_edge_weight
    cand_lambda = graph.cand_lambda
    cand_chi = graph.cand_chi

    def materialise(candidate: int) -> NodeId:
        nonlocal next_id
        node_id = next_id
        next_id += 1
        nodes[node_id] = graph.node_view(candidate, node_id)
        children[node_id] = []
        for subproblem in graph.cand_subs[candidate]:
            alive = result.survivors_by_sub[subproblem]
            if not alive:
                raise DecompositionError(
                    "internal error: selected candidate has an unsolvable subproblem"
                )
            scored = [
                (
                    semiring.combine(
                        weights[solver],
                        edge_weight(
                            cand_lambda[candidate],
                            cand_chi[candidate],
                            cand_lambda[solver],
                            cand_chi[solver],
                        ),
                    ),
                    solver,
                )
                for solver in alive
            ]
            best_value = min(score for score, _ in scored)
            tied = [solver for score, solver in scored if score == best_value]
            chosen = tie_breaker.choose(tied, key=canonical_key)
            child_id = materialise(chosen)
            children[node_id].append(child_id)
        return node_id

    root_node = materialise(root_id_choice)
    return HypertreeDecomposition(
        hypergraph=graph.hypergraph,
        root=root_node,
        children=children,
        nodes=nodes,
    )


def minimal_k_decomp(
    hypergraph: Hypergraph,
    k: int,
    taf: TreeAggregationFunction,
    tie_breaker: Optional[TieBreaker] = None,
    graph: Optional[CandidatesGraph] = None,
) -> HypertreeDecomposition:
    """Compute an ``[F^{⊕,v,e}, kNFD_H]``-minimal hypertree decomposition.

    Parameters
    ----------
    hypergraph:
        The hypergraph to decompose (assumed connected, as in the paper).
    k:
        The width bound.
    taf:
        The tree aggregation function to minimise.
    tie_breaker:
        Optional tie-breaking policy for the selection phase.
    graph:
        An already-built candidates graph to reuse (e.g. when evaluating
        several TAFs over the same hypergraph and ``k``).

    Raises
    ------
    NoDecompositionExistsError
        If the hypergraph has no normal-form decomposition of width ``≤ k``,
        i.e. ``hw(H) > k`` (the algorithm's *failure* output).
    """
    graph = _checked_graph(graph, hypergraph, k)
    result = evaluate_candidates_graph(graph, taf)
    return _select_hypertree(result, taf, tie_breaker or TieBreaker())


def minimum_weight(
    hypergraph: Hypergraph,
    k: int,
    taf: TreeAggregationFunction,
    graph: Optional[CandidatesGraph] = None,
) -> Number:
    """The weight of the minimal decomposition without materialising it
    (``∞`` when no width-``k`` NF decomposition exists)."""
    graph = _checked_graph(graph, hypergraph, k)
    return evaluate_candidates_graph(graph, taf).minimum_weight()


def _checked_graph(
    graph: Optional[CandidatesGraph], hypergraph: Hypergraph, k: int
) -> CandidatesGraph:
    """Build the candidates graph, or validate a caller-supplied one.

    A reused graph for the wrong hypergraph or bound would silently produce
    a decomposition of the *graph's* hypergraph; fail loudly instead.
    """
    if graph is None:
        return CandidatesGraph(hypergraph, k)
    if graph.k != k or graph.hypergraph != hypergraph:
        raise DecompositionError(
            "the supplied candidates graph was built for a different "
            f"hypergraph or width bound (graph: k={graph.k}, "
            f"{graph.hypergraph!r}; requested: k={k}, {hypergraph!r})"
        )
    return graph
