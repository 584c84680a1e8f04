"""Tests for semirings, HWFs, vertex aggregation functions and TAFs."""

import pytest

from repro.decomposition.hypertree import DecompositionNode
from repro.decomposition.kdecomp import k_decomp
from repro.exceptions import WeightingError
from repro.hypergraph.generators import cycle_hypergraph, paper_q0_hypergraph
from repro.weights.hwf import (
    CallableHWF,
    VertexAggregationFunction,
    node_count_hwf,
    width_hwf,
)
from repro.weights.library import (
    largest_chi_taf,
    lexicographic_separator_taf,
    lexicographic_taf,
    lexicographic_weight_of_histogram,
    node_count_taf,
    separator_taf,
    width_taf,
)
from repro.weights.semiring import INFINITY, MAX_MIN, SUM_MIN, Semiring, named_semiring
from repro.weights.taf import (
    TreeAggregationFunction,
    from_edge_function,
    from_vertex_function,
)


class TestSemiring:
    def test_builtin_semirings_satisfy_laws(self):
        samples = [0.0, 1.0, 2.5, 7.0, 100.0]
        SUM_MIN.verify(samples)
        MAX_MIN.verify(samples)

    def test_combine_all_and_select(self):
        assert SUM_MIN.combine_all([1, 2, 3]) == 6
        assert MAX_MIN.combine_all([1, 5, 3]) == 5
        assert SUM_MIN.combine_all([]) == 0
        assert SUM_MIN.select([3, 1, 2]) == 1
        assert SUM_MIN.select([]) == INFINITY

    def test_named_semiring(self):
        assert named_semiring("sum-min") is SUM_MIN
        assert named_semiring("max") is MAX_MIN
        with pytest.raises(WeightingError):
            named_semiring("frobnicate")

    def test_broken_semiring_detected(self):
        broken = Semiring(name="minus", combine=lambda a, b: a - b, neutral=0.0)
        with pytest.raises(WeightingError):
            broken.verify([1.0, 2.0, 3.0])


class TestHWF:
    def test_width_hwf(self, q0_hypergraph):
        hd = k_decomp(q0_hypergraph, 2)
        assert width_hwf().weigh(hd) == 2.0
        assert node_count_hwf()(hd) == float(hd.num_nodes())

    def test_callable_hwf_wraps_function(self, q0_hypergraph):
        hd = k_decomp(q0_hypergraph, 2)
        hwf = CallableHWF(lambda d: 42.0, name="const")
        assert hwf.weigh(hd) == 42.0
        assert "const" in repr(hwf)

    def test_vertex_aggregation_function(self, q0_hypergraph):
        hd = k_decomp(q0_hypergraph, 2)
        vaf = VertexAggregationFunction(lambda node: float(len(node.lambda_edges)))
        assert vaf(hd) == sum(len(n.lambda_edges) for n in hd.nodes())

    def test_vertex_aggregation_equals_sum_taf(self, q0_hypergraph):
        hd = k_decomp(q0_hypergraph, 2)
        score = lambda node: float(len(node.chi))
        vaf = VertexAggregationFunction(score)
        taf = from_vertex_function(score)
        assert vaf(hd) == pytest.approx(taf.weigh(hd))


class TestTAF:
    def test_zero_taf_weighs_zero(self, q0_hypergraph):
        hd = k_decomp(q0_hypergraph, 2)
        taf = TreeAggregationFunction()
        assert taf.weigh(hd) == 0.0
        assert taf.has_separable_edge  # zero edge weight is trivially separable

    def test_edge_only_taf(self, q0_hypergraph):
        hd = k_decomp(q0_hypergraph, 2)
        taf = from_edge_function(lambda parent, child: 1.0)
        # One contribution per tree edge.
        assert taf.weigh(hd) == float(hd.num_nodes() - 1)
        assert not taf.has_separable_edge

    def test_node_contribution(self, q0_hypergraph):
        hd = k_decomp(q0_hypergraph, 2)
        taf = node_count_taf()
        for node_id in hd.node_ids():
            assert taf.node_contribution(hd, node_id) == 1.0

    def test_max_semiring_taf(self, q0_hypergraph):
        hd = k_decomp(q0_hypergraph, 2)
        assert width_taf().weigh(hd) == float(hd.width)

    def test_validate_semiring(self):
        width_taf().validate_semiring()

    def test_repr(self):
        assert "width" in repr(width_taf())


class TestLibrary:
    def test_lexicographic_taf_matches_histogram_formula(self, q0_hypergraph):
        hd = k_decomp(q0_hypergraph, 2)
        taf = lexicographic_taf(q0_hypergraph)
        expected = lexicographic_weight_of_histogram(hd.width_histogram(), q0_hypergraph)
        assert taf.weigh(hd) == pytest.approx(expected)

    def test_lexicographic_base_is_edge_count_plus_one(self):
        h = cycle_hypergraph(4)
        node = DecompositionNode(0, frozenset({"c0", "c1"}), frozenset({"X0"}))
        assert lexicographic_taf(h).vertex_weight(node) == (h.num_edges() + 1) ** 1

    def test_separator_taf(self):
        h = cycle_hypergraph(4)
        hd = k_decomp(h, 2)
        weight = separator_taf().weigh(hd)
        max_separator = max(
            (
                len(hd.node(p).chi & hd.node(c).chi)
                for p, c in hd.tree_edges()
            ),
            default=0,
        )
        assert weight == float(max_separator)

    def test_lexicographic_separator_taf_orders_by_largest_separator(self, q0_hypergraph):
        hd = k_decomp(q0_hypergraph, 2)
        taf = lexicographic_separator_taf(q0_hypergraph)
        assert taf.weigh(hd) >= 0.0

    def test_largest_chi_taf(self, q0_hypergraph):
        hd = k_decomp(q0_hypergraph, 2)
        assert largest_chi_taf().weigh(hd) == float(
            max(len(node.chi) for node in hd.nodes())
        )

    def test_node_count_taf(self, q0_hypergraph):
        hd = k_decomp(q0_hypergraph, 2)
        assert node_count_taf().weigh(hd) == float(hd.num_nodes())

    def test_example_31_weights(self):
        # Example 3.1: B = 9; a decomposition with 4 width-1 and 3 width-2
        # nodes weighs 4 + 3·9 = 31, one with 6 width-1 and 1 width-2 weighs 15.
        h = paper_q0_hypergraph()
        assert lexicographic_weight_of_histogram({1: 4, 2: 3}, h) == 31
        assert lexicographic_weight_of_histogram({1: 6, 2: 1}, h) == 15
