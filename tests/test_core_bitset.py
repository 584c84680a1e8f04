"""Equivalence of the bitset core with the frozenset reference semantics.

The bitset refactor (``repro.core``) reimplements [V]-components, k-vertex
enumeration and the candidates-graph construction on integer masks.  These
tests pin the refactor to the original frozenset-of-names semantics:

* a frozenset *reference implementation* of components (the pre-bitset
  algorithm, kept verbatim here) must agree with :func:`components` on
  random hypergraphs and random separators;
* :func:`k_vertices` must agree with direct enumeration over name
  combinations;
* the :class:`CandidatesGraph` node sets and arcs must agree with a naive
  reconstruction from the paper's definitions (Fig. 2), restricted to the
  live candidates (those that solve some subproblem), and its evaluation
  with a fold over the unpruned reconstruction;
* the graph's internal keys must be plain ints (mask pairs / dense ids) --
  the inner loops allocate no per-test frozensets -- and evaluation over the
  mask path must reproduce the brute-force minimum over the enumerated
  decompositions (the acceptance equivalence), while the mask component
  computation must not be slower than the frozenset reference (the
  acceptance timing check, with a generous margin against CI noise).
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import Dict, FrozenSet, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.decomposition.candidates import CandidatesGraph, k_vertices
from repro.decomposition.enumerate import enumerate_nf_decompositions
from repro.decomposition.hypertree import DecompositionNode
from repro.decomposition.minimal import evaluate_candidates_graph, minimum_weight
from repro.hypergraph.components import components
from repro.hypergraph.generators import random_hypergraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.weights.library import (
    largest_chi_taf,
    lexicographic_separator_taf,
    lexicographic_taf,
    node_count_taf,
    separator_taf,
    width_taf,
)
from repro.weights.semiring import INFINITY


# ----------------------------------------------------------------------
# The frozenset reference implementation of [V]-components (the pre-bitset
# algorithm, kept verbatim as the semantic anchor).
# ----------------------------------------------------------------------
def reference_components(
    hypergraph: Hypergraph, separator
) -> Tuple[FrozenSet[str], ...]:
    sep = frozenset(separator)
    remaining = hypergraph.vertices - sep
    if not remaining:
        return tuple()
    unvisited = set(remaining)
    comps: List[FrozenSet[str]] = []
    reduced_edges: List[FrozenSet[str]] = []
    vertex_to_reduced: Dict[str, List[int]] = {v: [] for v in remaining}
    for name in hypergraph.edge_names:
        reduced = hypergraph.edge_vertices(name) - sep
        if reduced:
            idx = len(reduced_edges)
            reduced_edges.append(reduced)
            for v in reduced:
                vertex_to_reduced[v].append(idx)
    while unvisited:
        start = unvisited.pop()
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for idx in vertex_to_reduced[v]:
                for u in reduced_edges[idx]:
                    if u not in comp:
                        comp.add(u)
                        frontier.append(u)
        unvisited -= comp
        comps.append(frozenset(comp))
    comps.sort(key=lambda c: min(c))
    return tuple(comps)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
small_hypergraph_strategy = st.builds(
    random_hypergraph,
    num_vertices=st.integers(min_value=2, max_value=9),
    num_edges=st.integers(min_value=1, max_value=8),
    rank=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)

hypergraph_and_separator = st.tuples(
    small_hypergraph_strategy, st.randoms(use_true_random=False)
).map(
    lambda pair: (
        pair[0],
        frozenset(
            pair[1].sample(
                sorted(pair[0].vertices),
                pair[1].randint(0, len(pair[0].vertices)),
            )
        ),
    )
)


# ----------------------------------------------------------------------
# components()
# ----------------------------------------------------------------------
class TestComponentEquivalence:
    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    @given(case=hypergraph_and_separator)
    def test_components_match_reference(self, case):
        hypergraph, separator = case
        assert components(hypergraph, separator) == reference_components(
            hypergraph, separator
        )

    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(hypergraph=small_hypergraph_strategy)
    def test_edge_separators_match_reference(self, hypergraph):
        # Separators of the form var(S), exactly as the candidates graph
        # produces them.
        for name in hypergraph.edge_names:
            separator = hypergraph.edge_vertices(name)
            assert components(hypergraph, separator) == reference_components(
                hypergraph, separator
            )


# ----------------------------------------------------------------------
# k_vertices()
# ----------------------------------------------------------------------
class TestKVertexEquivalence:
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(
        hypergraph=small_hypergraph_strategy,
        k=st.integers(min_value=1, max_value=4),
    )
    def test_k_vertices_match_reference(self, hypergraph, k):
        names = hypergraph.edge_names
        reference = [
            frozenset(combo)
            for size in range(1, min(k, len(names)) + 1)
            for combo in combinations(names, size)
        ]
        produced = list(k_vertices(hypergraph, k))
        assert produced == reference


# ----------------------------------------------------------------------
# CandidatesGraph: nodes and arcs against the paper's definitions
# ----------------------------------------------------------------------
def naive_candidates_graph(hypergraph: Hypergraph, k: int):
    """Fig. 2's build phase, written with frozensets straight from the
    definitions (quadratic scans, no indexing)."""
    kvs = [
        frozenset(combo)
        for size in range(1, min(k, hypergraph.num_edges()) + 1)
        for combo in combinations(hypergraph.edge_names, size)
    ]
    var = {kv: hypergraph.var(kv) for kv in kvs}
    subproblems = [(frozenset(), frozenset(hypergraph.vertices))]
    for kv in kvs:
        for comp in reference_components(hypergraph, var[kv]):
            subproblems.append((kv, comp))
    seen_components = {comp for _, comp in subproblems}

    candidates = {}
    for comp in seen_components:
        frontier = hypergraph.vertices_of_edges_touching(comp)
        for kv in kvs:
            if not var[kv] & comp:
                continue
            if any(not (hypergraph.edge_vertices(h) & frontier) for h in kv):
                continue
            subs = frozenset(
                (kv, sub)
                for sub in reference_components(hypergraph, var[kv])
                if sub <= comp
            )
            candidates[(kv, comp)] = {
                "chi": frontier & var[kv],
                "subproblems": subs,
            }

    solvers = {}
    for r_kv, comp in subproblems:
        frontier = hypergraph.vertices_of_edges_touching(comp)
        boundary = frontier & (var[r_kv] if r_kv else frozenset())
        solvers[(r_kv, comp)] = frozenset(
            (s_kv, s_comp)
            for (s_kv, s_comp) in candidates
            if s_comp == comp and boundary <= var[s_kv]
        )
    return subproblems, candidates, solvers


class TestCandidatesGraphEquivalence:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        hypergraph=st.builds(
            random_hypergraph,
            num_vertices=st.integers(min_value=2, max_value=6),
            num_edges=st.integers(min_value=1, max_value=5),
            rank=st.integers(min_value=2, max_value=3),
            seed=st.integers(min_value=0, max_value=10_000),
        ),
        k=st.integers(min_value=1, max_value=3),
    )
    def test_nodes_and_arcs_match_naive_reference(self, hypergraph, k):
        graph = CandidatesGraph(hypergraph, k)
        subproblems, candidates, solvers = naive_candidates_graph(hypergraph, k)
        # The graph keeps only the live candidates of the unpruned N_sol:
        # those that solve at least one subproblem.
        live = frozenset().union(*solvers.values())

        # Ids translated to names here, at the test's boundary.
        subs = [graph.public_subproblem(q) for q in range(graph.num_subproblems)]
        cands = [graph.public_candidate(i) for i in range(graph.num_candidates)]
        assert sorted(map(sorted_pair, subs)) == sorted(map(sorted_pair, subproblems))
        assert len(cands) == len(set(cands))
        assert set(cands) == live
        for cand_id, key in enumerate(cands):
            assert graph.node_view(cand_id, 0).chi == candidates[key]["chi"]
            assert frozenset(subs[q] for q in graph.cand_subs[cand_id]) == (
                candidates[key]["subproblems"]
            )
        # No solver arc is lost: every subproblem keeps the unpruned
        # reference's whole solver set.
        for sub_id, solved_by in enumerate(graph.sub_solvers):
            assert frozenset(cands[c] for c in solved_by) == solvers[subs[sub_id]]


def sorted_pair(node):
    kv, comp = node
    return (tuple(sorted(kv)), tuple(sorted(comp)))


# ----------------------------------------------------------------------
# Evaluation over the pruned graph against a fold over the unpruned one
# ----------------------------------------------------------------------
LIBRARY_TAFS = (
    lambda h: width_taf(),
    lexicographic_taf,
    lambda h: separator_taf(),
    lexicographic_separator_taf,
    lambda h: node_count_taf(),
    lambda h: largest_chi_taf(),
)


def naive_evaluation(hypergraph: Hypergraph, k: int, taf):
    """Fig. 2's evaluation phase over :func:`naive_candidates_graph`'s
    unpruned N_sol, on the TAF's name forms: a candidate's weight is
    ``v(p)`` combined, per subproblem, with the best ``weight(s) ⊕ e(p, s)``
    over its surviving solvers ``s``; a candidate with a subproblem no
    survivor solves is removed (``None``).  Returns the minimum weight and
    each subproblem's survivors as ``(λ, χ, component)`` triples."""
    subproblems, candidates, solvers = naive_candidates_graph(hypergraph, k)
    combine = taf.semiring.combine
    node = {
        key: DecompositionNode(-1, key[0], info["chi"], key[1])
        for key, info in candidates.items()
    }
    weight = {}

    def fold(cand):
        if cand not in weight:
            total = taf.vertex_weight(node[cand])
            for sub in candidates[cand]["subproblems"]:
                options = [
                    combine(fold(s), taf.edge_weight(node[cand], node[s]))
                    for s in solvers[sub]
                    if fold(s) is not None
                ]
                if not options:
                    total = None
                    break
                total = combine(total, min(options))
            weight[cand] = total
        return weight[cand]

    survivors = {
        sub: frozenset(
            (s[0], candidates[s]["chi"], s[1])
            for s in solvers[sub]
            if fold(s) is not None
        )
        for sub in subproblems
    }
    root = (frozenset(), frozenset(hypergraph.vertices))
    roots = [weight[s] for s in solvers[root] if weight[s] is not None]
    return (min(roots) if roots else INFINITY), survivors


class TestPrunedEvaluation:
    """Pruning N_sol to its live candidates cannot change a weight, a
    survivor or the selection: the threshold recursion and the enumeration
    walk the same pruned graph, so the oracle here folds the unpruned one."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        hypergraph=st.builds(
            random_hypergraph,
            num_vertices=st.integers(min_value=2, max_value=6),
            num_edges=st.integers(min_value=1, max_value=5),
            rank=st.integers(min_value=2, max_value=3),
            seed=st.integers(min_value=0, max_value=10_000),
            connected=st.booleans(),
        ),
        k=st.integers(min_value=1, max_value=3),
        taf_index=st.integers(min_value=0, max_value=len(LIBRARY_TAFS) - 1),
        vectorized=st.booleans(),
    )
    def test_fold_matches_unpruned_reference(
        self, hypergraph, k, taf_index, vectorized
    ):
        taf = LIBRARY_TAFS[taf_index](hypergraph)
        expected_minimum, expected_survivors = naive_evaluation(hypergraph, k, taf)

        graph = CandidatesGraph(hypergraph, k, vectorized=vectorized)
        result = evaluate_candidates_graph(graph, taf)
        assert float.hex(float(result.minimum_weight())) == float.hex(
            float(expected_minimum)
        )
        # Every candidate is settled before a survivor list holding it is
        # recorded, so no recorded survivor is ever removed later.
        assert not any(
            result.removed[c] for alive in result.survivors_by_sub for c in alive
        )

        def triple(cand_id):
            node = graph.node_view(cand_id, 0)
            return (node.lambda_edges, node.chi, node.component)

        survivors = {
            graph.public_subproblem(q): frozenset(map(triple, alive))
            for q, alive in enumerate(result.survivors_by_sub)
        }
        assert survivors == expected_survivors
        assert {
            sub: frozenset((kv, comp) for kv, _, comp in alive)
            for sub, alive in expected_survivors.items()
        } == {sub: frozenset(alive) for sub, alive in result.survivors.items()}


# ----------------------------------------------------------------------
# Acceptance: masks-only inner loops, equivalence, timing
# ----------------------------------------------------------------------
class TestMaskOnlyInnerLoops:
    def test_graph_internals_are_integer_masks(self):
        hypergraph = random_hypergraph(num_vertices=10, num_edges=8, seed=7)
        graph = CandidatesGraph(hypergraph, 2)
        assert graph.num_candidates > 0
        # Node identities are (edge mask, vertex mask) int pairs...
        assert all(
            isinstance(kv, int) and isinstance(comp, int)
            for kv, comp in graph.cand_keys
        )
        assert all(
            isinstance(kv, int) and isinstance(comp, int)
            for kv, comp in graph.sub_keys
        )
        # ...and the per-candidate labels and arcs are ints / id tuples, so
        # the candidate-filter loops never touch a frozenset.
        assert all(isinstance(chi, int) for chi in graph.cand_chi)
        assert all(
            isinstance(sub_id, int)
            for subs in graph.cand_subs
            for sub_id in subs
        )
        assert all(
            isinstance(cand_id, int)
            for solved_by in graph.sub_solvers
            for cand_id in solved_by
        )

    def test_mask_evaluation_matches_bruteforce_minimum(self):
        hypergraph = random_hypergraph(num_vertices=7, num_edges=6, seed=11)
        taf = lexicographic_taf(hypergraph)
        algorithmic = minimum_weight(hypergraph, 2, taf)
        enumerated = list(enumerate_nf_decompositions(hypergraph, 2, limit=None))
        assert enumerated
        brute = min(taf.weigh(hd) for hd in enumerated)
        assert algorithmic == pytest.approx(brute)

    def test_bitset_components_not_slower_than_reference(self):
        # The timing half of the acceptance check.  The bitset path is
        # typically ~10x faster; asserting parity (with slack for CI noise)
        # guards against a regression that silently reroutes components()
        # through per-test frozenset algebra again.
        hypergraph = random_hypergraph(num_vertices=60, num_edges=50, rank=4, seed=3)
        separators = [hypergraph.edge_vertices(name) for name in hypergraph.edge_names]

        def time_one(function) -> float:
            best = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                for separator in separators:
                    function(hypergraph, separator)
                best = min(best, time.perf_counter() - started)
            return best

        reference_seconds = time_one(reference_components)
        # Fresh view per timing pass would be fairer still, but the memo is
        # part of the design; clear it so the comparison is cold.
        hypergraph.bitset().components.cache_clear()
        bitset_seconds = time_one(
            lambda h, s: h.bitset()._components_uncached(
                h.bitset().vertex_mask(s)
            )
        )
        assert bitset_seconds <= reference_seconds * 1.5
