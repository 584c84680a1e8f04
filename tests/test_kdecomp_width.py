"""Tests for hypertree width computation and the unweighted k-decomp wrapper."""

import pytest

from repro.decomposition.kdecomp import (
    has_width_at_most,
    hypertree_width,
    k_decomp,
    optimal_decomposition,
)
from repro.exceptions import DecompositionError, NoDecompositionExistsError
from repro.hypergraph.generators import (
    clique_hypergraph,
    cycle_hypergraph,
    grid_hypergraph,
    path_hypergraph,
    star_hypergraph,
)
from repro.hypergraph.hypergraph import Hypergraph


class TestHypertreeWidth:
    def test_acyclic_hypergraphs_have_width_1(self):
        assert hypertree_width(path_hypergraph(4)) == 1
        assert hypertree_width(star_hypergraph(5)) == 1
        assert hypertree_width(Hypergraph({"e": ["A", "B", "C"]})) == 1

    def test_cycles_have_width_2(self):
        for length in (3, 4, 5, 6, 8):
            assert hypertree_width(cycle_hypergraph(length)) == 2

    def test_q0_width_2(self, q0_hypergraph):
        assert hypertree_width(q0_hypergraph) == 2

    def test_grid_width_2(self):
        assert hypertree_width(grid_hypergraph(2, 3)) == 2

    def test_clique_widths(self):
        # K4 over binary edges: hw = 2; K5: hw = 3 (⌈n/2⌉ marshals needed).
        assert hypertree_width(clique_hypergraph(4)) == 2
        assert hypertree_width(clique_hypergraph(5)) == 3

    def test_width_search_cap(self):
        with pytest.raises(NoDecompositionExistsError):
            hypertree_width(clique_hypergraph(5), max_k=2)

    def test_edgeless_hypergraph_rejected(self):
        with pytest.raises(DecompositionError):
            hypertree_width(Hypergraph({}))


class TestHasWidthAtMost:
    def test_decision_consistency(self, q0_hypergraph):
        assert not has_width_at_most(q0_hypergraph, 1)
        assert has_width_at_most(q0_hypergraph, 2)
        assert has_width_at_most(q0_hypergraph, 3)

    def test_single_edge(self):
        assert has_width_at_most(Hypergraph({"e": ["A", "B"]}), 1)


class TestKDecomp:
    def test_k_decomp_failure(self, q0_hypergraph):
        with pytest.raises(NoDecompositionExistsError):
            k_decomp(q0_hypergraph, 1)

    def test_k_decomp_produces_valid_decomposition(self, q0_hypergraph):
        hd = k_decomp(q0_hypergraph, 2)
        assert hd.is_valid()
        assert hd.width == 2

    def test_optimal_decomposition(self, q0_hypergraph):
        hd = optimal_decomposition(q0_hypergraph)
        assert hd.width == hypertree_width(q0_hypergraph)
        assert hd.is_valid()

    def test_optimal_decomposition_of_acyclic(self):
        hd = optimal_decomposition(path_hypergraph(5))
        assert hd.width == 1
        assert hd.is_valid()
