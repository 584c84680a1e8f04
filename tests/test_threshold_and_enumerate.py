"""Tests for threshold-k-decomp and the exhaustive NF enumeration."""

import pytest

from repro.decomposition.enumerate import (
    count_nf_decompositions,
    enumerate_nf_decompositions,
)
from repro.decomposition.candidates import CandidatesGraph
from repro.decomposition.kdecomp import has_width_at_most, hypertree_width
from repro.decomposition.minimal import minimum_weight
from repro.decomposition.normal_form import is_normal_form
from repro.decomposition.threshold import minimum_weight_recursive, threshold_k_decomp
from repro.exceptions import DecompositionError
from repro.hypergraph.generators import (
    clique_hypergraph,
    cycle_hypergraph,
    grid_hypergraph,
    path_hypergraph,
)
from repro.weights.library import lexicographic_taf, node_count_taf, width_taf


class TestThreshold:
    @pytest.mark.parametrize(
        "hypergraph_factory",
        [lambda: path_hypergraph(3), lambda: cycle_hypergraph(4), lambda: cycle_hypergraph(5)],
    )
    def test_recursive_and_bottom_up_minimum_agree(self, hypergraph_factory):
        hypergraph = hypergraph_factory()
        taf = lexicographic_taf(hypergraph)
        assert minimum_weight_recursive(hypergraph, 2, taf) == pytest.approx(
            minimum_weight(hypergraph, 2, taf)
        )

    def test_agreement_on_q0(self, q0_hypergraph):
        taf = node_count_taf()
        assert minimum_weight_recursive(q0_hypergraph, 2, taf) == pytest.approx(
            minimum_weight(q0_hypergraph, 2, taf)
        )

    def test_threshold_decision_boundaries(self):
        hypergraph = cycle_hypergraph(4)
        taf = node_count_taf()
        best = minimum_weight(hypergraph, 2, taf)
        assert threshold_k_decomp(hypergraph, 2, taf, best)
        assert threshold_k_decomp(hypergraph, 2, taf, best + 5)
        assert not threshold_k_decomp(hypergraph, 2, taf, best - 1)

    def test_threshold_false_when_no_decomposition(self):
        assert not threshold_k_decomp(clique_hypergraph(5), 2, width_taf(), 10**9)

    def test_width_threshold_matches_hypertree_width(self, q0_hypergraph):
        # With the width TAF, "weight <= t" is exactly "hw <= t" (within kNFD).
        width = hypertree_width(q0_hypergraph)
        assert threshold_k_decomp(q0_hypergraph, 3, width_taf(), width)
        assert not threshold_k_decomp(q0_hypergraph, 3, width_taf(), width - 1)


class TestSuppliedGraphIsChecked:
    """A ``graph=`` built for another hypergraph or bound used to be answered
    for *that* graph (hw(cycle6) = 2, yet the k = 1 graph said "no")."""

    WRONG_GRAPHS = {
        "wrong_bound": lambda: CandidatesGraph(cycle_hypergraph(6), 1),
        "wrong_hypergraph": lambda: CandidatesGraph(path_hypergraph(3), 2),
    }

    @pytest.fixture(params=sorted(WRONG_GRAPHS))
    def wrong_graph(self, request):
        return self.WRONG_GRAPHS[request.param]()

    def test_threshold_k_decomp(self, wrong_graph):
        hypergraph = cycle_hypergraph(6)
        assert threshold_k_decomp(hypergraph, 2, width_taf(), 2.0)
        with pytest.raises(DecompositionError, match="built for a different"):
            threshold_k_decomp(hypergraph, 2, width_taf(), 2.0, graph=wrong_graph)

    def test_minimum_weight_recursive(self, wrong_graph):
        with pytest.raises(DecompositionError, match="built for a different"):
            minimum_weight_recursive(
                cycle_hypergraph(6), 2, width_taf(), graph=wrong_graph
            )

    def test_has_width_at_most(self, wrong_graph):
        with pytest.raises(DecompositionError, match="built for a different"):
            has_width_at_most(cycle_hypergraph(6), 2, graph=wrong_graph)

    def test_enumerate_nf_decompositions(self, wrong_graph):
        with pytest.raises(DecompositionError, match="built for a different"):
            next(enumerate_nf_decompositions(cycle_hypergraph(6), 2, graph=wrong_graph))

    def test_matching_graph_is_reused(self):
        hypergraph = cycle_hypergraph(6)
        graph = CandidatesGraph(hypergraph, 2)
        assert threshold_k_decomp(hypergraph, 2, width_taf(), 2.0, graph=graph)
        assert has_width_at_most(hypergraph, 2, graph=graph)
        assert next(enumerate_nf_decompositions(hypergraph, 2, graph=graph)).is_valid()


class TestEnumeration:
    def test_every_enumerated_decomposition_is_valid_nf(self):
        hypergraph = cycle_hypergraph(4)
        decompositions = list(enumerate_nf_decompositions(hypergraph, 2, limit=None))
        assert decompositions
        for hd in decompositions:
            assert hd.is_valid()
            assert is_normal_form(hd)
            assert hd.width <= 2

    def test_enumeration_contains_no_duplicates(self):
        hypergraph = cycle_hypergraph(4)

        def canonical(hd, node_id):
            node = hd.node(node_id)
            children = tuple(
                sorted(canonical(hd, child) for child in hd.children(node_id))
            )
            return (
                tuple(sorted(node.lambda_edges)),
                tuple(sorted(node.chi)),
                children,
            )

        seen = set()
        for hd in enumerate_nf_decompositions(hypergraph, 2, limit=None):
            key = canonical(hd, hd.root)
            assert key not in seen
            seen.add(key)

    def test_count_respects_limit(self):
        hypergraph = grid_hypergraph(2, 2)
        limited = count_nf_decompositions(hypergraph, 2, limit=5)
        assert limited <= 5

    def test_empty_enumeration_when_width_too_small(self, q0_hypergraph):
        assert count_nf_decompositions(q0_hypergraph, 1, limit=10) == 0

    def test_acyclic_hypergraph_has_width1_decompositions(self):
        hypergraph = path_hypergraph(3)
        decompositions = list(enumerate_nf_decompositions(hypergraph, 1, limit=None))
        assert decompositions
        assert all(hd.width == 1 for hd in decompositions)

    def test_enumeration_minimum_matches_algorithm(self):
        hypergraph = grid_hypergraph(2, 2)
        taf = lexicographic_taf(hypergraph)
        enumerated = list(enumerate_nf_decompositions(hypergraph, 2, limit=None))
        brute = min(taf.weigh(hd) for hd in enumerated)
        assert minimum_weight(hypergraph, 2, taf) == pytest.approx(brute)
