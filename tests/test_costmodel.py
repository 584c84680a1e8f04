"""Tests for the cardinality estimator and the query-cost TAF (Example 4.3)."""

import itertools
import math

import pytest

from repro.db.costmodel import CardinalityEstimator, capped_size
from repro.db.statistics import CatalogStatistics
from repro.decomposition.hypertree import DecompositionNode
from repro.decomposition.kdecomp import k_decomp
from repro.exceptions import DatabaseError
from repro.query.conjunctive import build_query
from repro.query.examples import q1
from repro.weights.querycost import QueryCostTAF, query_cost_taf
from repro.workloads.paper_queries import fig5_statistics


@pytest.fixture
def simple_stats():
    return CatalogStatistics.from_declared(
        {"r": 1000, "s": 500},
        {"r": {"X": 100, "Y": 20}, "s": {"Y": 10, "Z": 50}},
    )


@pytest.fixture
def simple_query():
    return build_query([("r", ["X", "Y"]), ("s", ["Y", "Z"])], name="simple")


class TestCardinalityEstimator:
    def test_profile_lookup(self, simple_query, simple_stats):
        estimator = CardinalityEstimator(simple_query, simple_stats)
        profile = estimator.profile("r")
        assert profile.cardinality == 1000
        assert profile.selectivity("X") == 100
        assert profile.selectivity("unknown") == 1000
        with pytest.raises(DatabaseError):
            estimator.profile("nope")

    def test_unknown_atom_rejected_by_every_estimate(self, simple_query, simple_stats):
        estimator = CardinalityEstimator(simple_query, simple_stats)
        with pytest.raises(DatabaseError, match="unknown atom 'nope'"):
            estimator.join_cardinality(["r", "nope"])
        with pytest.raises(DatabaseError, match="unknown atom 'nope'"):
            estimator.lambda_terms(["nope", "s"])

    def test_one_tuple_floor_never_binds(self):
        # capped_size's max(..., 1.0) cannot change an estimate: a zero
        # cardinality and a zero distinct count are floored at one, so
        # every join is >= 1, every domain size is >= 1, and so the capped
        # size is >= 1 before the floor.
        query = build_query(
            [("r", ["X", "Y"]), ("s", ["Y", "Z"]), ("t", ["Z", "X"])], name="zeros"
        )
        statistics = CatalogStatistics.from_declared(
            {"r": 0, "s": 5, "t": 3},
            {"r": {"X": 0, "Y": 0}, "s": {"Y": 0, "Z": 2}, "t": {"Z": 3, "X": 0}},
        )
        estimator = CardinalityEstimator(query, statistics)
        for size in (1, 2, 3):
            for atoms in itertools.combinations(["r", "s", "t"], size):
                _, join, domains = estimator.lambda_terms(atoms)
                assert join == estimator.join_cardinality(atoms) >= 1.0
                assert min(domains.values()) >= 1.0
                for width in range(len(domains) + 1):
                    for chi in itertools.combinations(sorted(domains), width):
                        sizes = [domains[v] for v in chi]
                        unfloored = min(join, math.prod(sizes))
                        assert unfloored >= 1.0
                        assert capped_size(join, sizes) == unfloored

    def test_missing_statistics_rejected(self, simple_query):
        with pytest.raises(DatabaseError):
            CardinalityEstimator(simple_query, CatalogStatistics())

    def test_single_atom_join_cardinality(self, simple_query, simple_stats):
        estimator = CardinalityEstimator(simple_query, simple_stats)
        assert estimator.join_cardinality(["r"]) == 1000
        assert estimator.join_cardinality([]) == 1.0

    def test_two_way_join_uses_containment_rule(self, simple_query, simple_stats):
        estimator = CardinalityEstimator(simple_query, simple_stats)
        # |r ⋈ s| = |r|·|s| / max(V(r,Y), V(s,Y)) = 1000·500 / 20.
        assert estimator.join_cardinality(["r", "s"]) == pytest.approx(25000)

    def test_join_cardinality_is_order_insensitive(self, simple_query, simple_stats):
        estimator = CardinalityEstimator(simple_query, simple_stats)
        assert estimator.join_cardinality(["r", "s"]) == estimator.join_cardinality(["s", "r"])

    def test_domain_size_is_minimum_over_atoms(self, simple_query, simple_stats):
        estimator = CardinalityEstimator(simple_query, simple_stats)
        assert estimator.domain_size("Y", ["r", "s"]) == 10
        assert estimator.domain_size("X", ["r"]) == 100

    def test_projection_capped_by_domain_product(self, simple_query, simple_stats):
        estimator = CardinalityEstimator(simple_query, simple_stats)
        projected = estimator.projection_cardinality(["r", "s"], ["Y"])
        assert projected <= 10

    def test_node_expression_cost_positive_and_monotone(self, simple_query, simple_stats):
        estimator = CardinalityEstimator(simple_query, simple_stats)
        single = estimator.node_expression_cost(["r"], ["X", "Y"])
        double = estimator.node_expression_cost(["r", "s"], ["X", "Y", "Z"])
        assert single > 0
        assert double > single

    def test_semijoin_cost_is_sum_of_sides(self, simple_query, simple_stats):
        estimator = CardinalityEstimator(simple_query, simple_stats)
        cost = estimator.semijoin_cost(["r"], ["X", "Y"], ["s"], ["Y", "Z"])
        left = estimator.projection_cardinality(["r"], ["X", "Y"])
        right = estimator.projection_cardinality(["s"], ["Y", "Z"])
        assert cost == pytest.approx(left + right)

    def test_estimates_are_cached(self, simple_query, simple_stats):
        estimator = CardinalityEstimator(simple_query, simple_stats)
        first = estimator.join_cardinality(["r", "s"])
        assert estimator._join_cache  # populated
        assert estimator.join_cardinality(["s", "r"]) == first


class TestQueryCostTAF:
    def test_taf_is_sum_semiring_and_not_smooth(self):
        taf = query_cost_taf(q1(), fig5_statistics())
        assert isinstance(taf, QueryCostTAF)
        assert taf.semiring.name == "sum-min"
        assert not taf.smooth
        assert taf.has_separable_edge

    def test_vertex_cost_grows_with_lambda(self):
        taf = query_cost_taf(q1(), fig5_statistics())
        small = DecompositionNode(0, frozenset({"d"}), frozenset({"X", "Z"}))
        large = DecompositionNode(1, frozenset({"a", "b"}), frozenset({"S"}))
        assert taf.vertex_weight(large) > taf.vertex_weight(small)

    def test_edge_cost_is_separable(self):
        taf = query_cost_taf(q1(), fig5_statistics())
        parent = DecompositionNode(0, frozenset({"a"}), frozenset({"S", "X"}))
        child = DecompositionNode(1, frozenset({"d"}), frozenset({"X", "Z"}))
        assert taf.edge_weight(parent, child) == pytest.approx(
            taf.edge_parent_part(parent) + taf.edge_child_part(child)
        )

    def test_taf_weighs_decomposition_of_q1(self):
        query = q1()
        taf = query_cost_taf(query, fig5_statistics())
        hd = k_decomp(query.hypergraph(), 2)
        weight = taf.weigh(hd)
        assert weight > 0
        # Direct evaluation and per-node accounting agree.
        total = sum(taf.node_contribution(hd, node_id) for node_id in hd.node_ids())
        assert weight == pytest.approx(total)

    def test_node_estimate_reports_projection_cardinality(self):
        taf = query_cost_taf(q1(), fig5_statistics())
        node = DecompositionNode(0, frozenset({"d"}), frozenset({"X", "Z"}))
        assert taf.node_estimate(node) <= 18 * 7
        assert taf.node_estimate(node) >= 1
