"""Tests for minimal-k-decomp (Theorem 4.4): soundness, minimality,
completeness of the tie-breaking, and failure behaviour."""

import pytest

from repro.decomposition.candidates import CandidatesGraph
from repro.decomposition.enumerate import enumerate_nf_decompositions
from repro.decomposition.kdecomp import k_decomp
from repro.decomposition.minimal import (
    TieBreaker,
    evaluate_candidates_graph,
    minimal_k_decomp,
    minimum_weight,
)
from repro.decomposition.normal_form import is_normal_form
from repro.exceptions import DecompositionError, NoDecompositionExistsError
from repro.hypergraph.generators import (
    clique_hypergraph,
    cycle_hypergraph,
    grid_hypergraph,
    path_hypergraph,
)
from repro.weights.library import (
    lexicographic_separator_taf,
    lexicographic_taf,
    node_count_taf,
    separator_taf,
    width_taf,
)
from repro.weights.semiring import INFINITY


SMALL_HYPERGRAPHS = {
    "path(3)": path_hypergraph(3),
    "cycle(4)": cycle_hypergraph(4),
    "cycle(5)": cycle_hypergraph(5),
    "grid(2x2)": grid_hypergraph(2, 2),
}


class TestSoundness:
    @pytest.mark.parametrize("name", sorted(SMALL_HYPERGRAPHS))
    def test_output_is_valid_nf_decomposition(self, name):
        hypergraph = SMALL_HYPERGRAPHS[name]
        hd = minimal_k_decomp(hypergraph, 2, lexicographic_taf(hypergraph))
        assert hd.is_valid()
        assert is_normal_form(hd)
        assert hd.width <= 2

    def test_q0_with_all_structural_tafs(self, q0_hypergraph):
        for taf in (
            width_taf(),
            lexicographic_taf(q0_hypergraph),
            node_count_taf(),
            separator_taf(),
            lexicographic_separator_taf(q0_hypergraph),
        ):
            hd = minimal_k_decomp(q0_hypergraph, 2, taf)
            assert hd.is_valid(), taf.name
            assert is_normal_form(hd), taf.name

    def test_failure_when_width_too_small(self, q0_hypergraph):
        with pytest.raises(NoDecompositionExistsError):
            minimal_k_decomp(q0_hypergraph, 1, width_taf())

    def test_failure_on_clique(self):
        # K5 as binary edges has hypertree width 3 > 2.
        with pytest.raises(NoDecompositionExistsError):
            minimal_k_decomp(clique_hypergraph(5), 2, width_taf())

    def test_acyclic_hypergraph_width_1(self):
        h = path_hypergraph(4)
        hd = minimal_k_decomp(h, 1, width_taf())
        assert hd.width == 1
        assert hd.is_valid()


class TestMinimality:
    @pytest.mark.parametrize("name", sorted(SMALL_HYPERGRAPHS))
    @pytest.mark.parametrize("taf_name", ["lex", "nodes", "sep"])
    def test_weight_matches_bruteforce_minimum(self, name, taf_name):
        hypergraph = SMALL_HYPERGRAPHS[name]
        taf = {
            "lex": lexicographic_taf(hypergraph),
            "nodes": node_count_taf(),
            "sep": lexicographic_separator_taf(hypergraph),
        }[taf_name]
        algorithmic = minimum_weight(hypergraph, 2, taf)
        enumerated = list(enumerate_nf_decompositions(hypergraph, 2, limit=None))
        assert enumerated, "enumeration must produce at least one decomposition"
        brute = min(taf.weigh(hd) for hd in enumerated)
        assert algorithmic == pytest.approx(brute)

    @pytest.mark.parametrize("name", sorted(SMALL_HYPERGRAPHS))
    def test_returned_decomposition_attains_reported_weight(self, name):
        hypergraph = SMALL_HYPERGRAPHS[name]
        taf = lexicographic_taf(hypergraph)
        hd = minimal_k_decomp(hypergraph, 2, taf)
        assert taf.weigh(hd) == pytest.approx(minimum_weight(hypergraph, 2, taf))

    def test_width_taf_gives_optimal_width(self, q0_hypergraph):
        # hw(Q0) = 2, so even with k = 4 the width TAF must return width 2.
        hd = minimal_k_decomp(q0_hypergraph, 3, width_taf())
        assert hd.width == 2

    def test_minimum_weight_infinite_when_undecomposable(self):
        assert minimum_weight(clique_hypergraph(5), 2, width_taf()) == INFINITY

    def test_separable_and_generic_paths_agree(self, q0_hypergraph):
        # The separator TAF has a non-separable edge weight (generic path);
        # compare against an equivalent TAF forced through the generic path
        # for a separable one.
        taf = lexicographic_taf(q0_hypergraph)
        generic = lexicographic_taf(q0_hypergraph)
        generic.edge_parent_part = None
        generic.edge_child_part = None
        assert not generic.has_separable_edge
        fast = minimum_weight(q0_hypergraph, 2, taf)
        slow = minimum_weight(q0_hypergraph, 2, generic)
        assert fast == pytest.approx(slow)


class TestEvaluation:
    def test_evaluation_result_reports_survivors(self, q0_hypergraph):
        graph = CandidatesGraph(q0_hypergraph, 2)
        result = evaluate_candidates_graph(graph, width_taf())
        assert result.root_candidates
        assert result.minimum_weight() == 2.0
        candidates = {graph.public_candidate(i) for i in range(graph.num_candidates)}
        for subproblem, survivors in result.survivors.items():
            for candidate in survivors:
                assert candidate in candidates

    def test_graph_reuse_across_tafs(self, q0_hypergraph):
        graph = CandidatesGraph(q0_hypergraph, 2)
        first = minimal_k_decomp(q0_hypergraph, 2, width_taf(), graph=graph)
        second = minimal_k_decomp(
            q0_hypergraph, 2, lexicographic_taf(q0_hypergraph), graph=graph
        )
        assert first.is_valid() and second.is_valid()


class TestTieBreaker:
    def test_invalid_policy_rejected(self):
        with pytest.raises(DecompositionError):
            TieBreaker("bogus")

    def test_first_policy_is_deterministic(self, q0_hypergraph):
        taf = lexicographic_taf(q0_hypergraph)
        a = minimal_k_decomp(q0_hypergraph, 2, taf, tie_breaker=TieBreaker("first"))
        b = minimal_k_decomp(q0_hypergraph, 2, taf, tie_breaker=TieBreaker("first"))
        assert a.describe() == b.describe()

    def test_random_policy_reaches_multiple_minima(self):
        # On a symmetric hypergraph (a square), several minimal decompositions
        # exist; random tie-breaking should find more than one across seeds
        # (the completeness statement of Theorem 4.4).
        hypergraph = cycle_hypergraph(4)
        taf = node_count_taf()
        seen = set()
        for seed in range(12):
            hd = minimal_k_decomp(
                hypergraph, 2, taf, tie_breaker=TieBreaker("random", seed=seed)
            )
            seen.add(hd.describe())
            assert taf.weigh(hd) == pytest.approx(minimum_weight(hypergraph, 2, taf))
        assert len(seen) > 1

    def test_k_decomp_is_minimal_width(self, q0_hypergraph):
        hd = k_decomp(q0_hypergraph, 4)
        assert hd.width == 2
