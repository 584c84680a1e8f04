"""Tests for k-vertices and the candidates graph (Fig. 2, build phase)."""

import pytest

from repro.decomposition.candidates import (
    CandidatesGraph,
    count_k_vertices,
    k_vertices,
)
from repro.exceptions import DecompositionError
from repro.hypergraph.generators import cycle_hypergraph, paper_q0_hypergraph
from repro.hypergraph.hypergraph import Hypergraph


def _subproblems(graph):
    return [graph.public_subproblem(q) for q in range(graph.num_subproblems)]


class TestKVertices:
    def test_k1_vertices_are_single_edges(self):
        h = cycle_hypergraph(4)
        assert set(k_vertices(h, 1)) == {frozenset({e}) for e in h.edge_names}

    def test_k2_count(self):
        h = cycle_hypergraph(4)
        assert len(k_vertices(h, 2)) == 4 + 6

    def test_k_larger_than_edge_count(self):
        h = Hypergraph({"e1": ["A"], "e2": ["A", "B"]})
        assert len(k_vertices(h, 5)) == 3  # {e1}, {e2}, {e1,e2}

    def test_invalid_k(self):
        with pytest.raises(DecompositionError):
            k_vertices(cycle_hypergraph(3), 0)

    def test_count_matches_paper_examples(self):
        # Section 4.2: (n=5, k=3) -> 25 vs 125; (n=10, k=4) -> 385 vs 10000.
        assert count_k_vertices(5, 3) == 25
        assert count_k_vertices(10, 4) == 385

    def test_count_matches_enumeration(self):
        h = paper_q0_hypergraph()
        for k in (1, 2, 3):
            assert len(k_vertices(h, k)) == count_k_vertices(h.num_edges(), k)


class TestCandidatesGraph:
    def test_root_subproblem_present(self):
        h = cycle_hypergraph(4)
        graph = CandidatesGraph(h, 2)
        assert graph.root_subproblem == (frozenset(), frozenset(h.vertices))
        assert graph.root_subproblem in _subproblems(graph)
        root = graph.public_subproblem(graph.ROOT_SUBPROBLEM_ID)
        assert root == graph.root_subproblem

    def test_candidate_labels_follow_paper(self):
        h = cycle_hypergraph(4)
        graph = CandidatesGraph(h, 2)
        for cand_id in range(graph.num_candidates):
            kvertex, component = graph.public_candidate(cand_id)
            node = graph.node_view(cand_id, 0)
            assert node.lambda_edges == kvertex
            frontier = graph.component_frontier(component)
            assert node.chi == frontier & graph.var_of(kvertex)
            # Definition of N_sol: λ must intersect the component and every
            # edge must meet the component's frontier.
            assert graph.var_of(kvertex) & component
            for edge in kvertex:
                assert h.edge_vertices(edge) & frontier

    def test_solver_arcs_respect_connectedness_condition(self):
        h = cycle_hypergraph(5)
        graph = CandidatesGraph(h, 2)
        for sub_id, solvers in enumerate(graph.sub_solvers):
            r_kvertex, component = graph.public_subproblem(sub_id)
            boundary = graph.component_frontier(component) & graph.var_of(r_kvertex)
            for s_kvertex, s_component in map(graph.public_candidate, solvers):
                assert s_component == component
                assert boundary <= graph.var_of(s_kvertex)

    def test_subproblems_of_candidates_are_contained_components(self):
        h = paper_q0_hypergraph()
        graph = CandidatesGraph(h, 2)
        for cand_id, subs in enumerate(graph.cand_subs):
            kvertex, component = graph.public_candidate(cand_id)
            for sub_kvertex, sub_component in map(graph.public_subproblem, subs):
                assert sub_kvertex == kvertex
                assert sub_component < component

    def test_dependents_reverse_index(self):
        h = cycle_hypergraph(4)
        graph = CandidatesGraph(h, 2)
        for cand_id, subs in enumerate(graph.cand_subs):
            for sub_id in subs:
                assert cand_id in graph.sub_dependents[sub_id]

    def test_root_candidates_exist_for_decomposable_hypergraph(self):
        h = cycle_hypergraph(4)
        graph = CandidatesGraph(h, 2)
        assert graph.sub_solvers[graph.ROOT_SUBPROBLEM_ID]

    def test_processing_order_is_by_component_size(self):
        h = paper_q0_hypergraph()
        graph = CandidatesGraph(h, 2)
        sizes = [len(graph.public_subproblem(q)[1]) for q in graph.sub_order]
        assert sizes == sorted(sizes)

    def test_size_report(self):
        h = cycle_hypergraph(4)
        graph = CandidatesGraph(h, 2)
        report = graph.size_report()
        assert report["k_vertices"] == 10
        assert report["subproblems"] == len(set(_subproblems(graph)))
        assert report["candidates"] == len(
            {graph.public_candidate(i) for i in range(graph.num_candidates)}
        )
        assert "CandidatesGraph" in repr(graph)

    def test_edgeless_hypergraph_rejected(self):
        with pytest.raises(DecompositionError):
            CandidatesGraph(Hypergraph({}), 2)
