"""Tests for the workload generators and the paper's benchmark setup."""

import pytest

from repro.decomposition.kdecomp import hypertree_width
from repro.exceptions import QueryError
from repro.hypergraph.acyclicity import is_acyclic
from repro.query.examples import q1, q2, q3
from repro.workloads.paper_queries import (
    FIG5_CARDINALITIES,
    FIG5_SELECTIVITIES,
    PAPER_Q1_ESTIMATED_COSTS,
    fig5_database,
    fig5_statistics,
    fig8_database,
    fig8_statistics,
)
from repro.workloads.synthetic import (
    chain_query,
    cycle_query,
    random_cyclic_query,
    scalability_suite,
    snowflake_query,
    star_query,
    workload_database,
)


class TestSyntheticQueries:
    def test_chain_query_is_acyclic(self):
        query = chain_query(6)
        assert len(query.atoms) == 6
        assert is_acyclic(query.hypergraph())
        assert hypertree_width(query.hypergraph()) == 1

    def test_chain_query_with_padding_variables(self):
        query = chain_query(3, arity=4)
        assert all(a.arity == 4 for a in query.atoms)
        assert is_acyclic(query.hypergraph())

    def test_star_query(self):
        query = star_query(5)
        assert len(query.atoms) == 5
        assert "H" in query.variables
        assert is_acyclic(query.hypergraph())

    def test_cycle_query_width_2(self):
        for length in (3, 5, 8):
            query = cycle_query(length)
            assert len(query.atoms) == length
            assert hypertree_width(query.hypergraph()) == 2

    def test_snowflake_query(self):
        query = snowflake_query(3, 2)
        assert len(query.atoms) == 6
        assert is_acyclic(query.hypergraph())

    def test_random_cyclic_query_connected(self):
        for seed in range(4):
            query = random_cyclic_query(6, 7, seed=seed)
            assert query.hypergraph().is_connected()
            assert len(query.atoms) == 6

    def test_generator_argument_validation(self):
        with pytest.raises(QueryError):
            chain_query(0)
        with pytest.raises(QueryError):
            cycle_query(2)
        with pytest.raises(QueryError):
            star_query(0)
        with pytest.raises(QueryError):
            snowflake_query(0, 1)

    def test_scalability_suite(self):
        suite = scalability_suite(max_atoms=8, step=2)
        assert "chain_4" in suite and "cycle_8" in suite
        assert all(q.hypergraph().is_connected() for q in suite.values())

    def test_workload_database_matches_query(self):
        query = cycle_query(4)
        db = workload_database(query, tuples_per_relation=40, domain_size=6, seed=1)
        for atom in query.atoms:
            assert db.relation(atom.predicate).cardinality == 40


class TestPaperWorkload:
    def test_fig5_statistics_complete(self):
        stats = fig5_statistics()
        for name in FIG5_CARDINALITIES:
            assert stats.cardinality(name) == FIG5_CARDINALITIES[name]
            for attribute, value in FIG5_SELECTIVITIES[name].items():
                assert stats.selectivity(name, attribute) == value

    def test_fig5_database_scaled(self):
        db = fig5_database(seed=1, scale=0.02)
        assert db.relation("a").cardinality == round(4606 * 0.02)
        assert db.statistics.has_table("j")

    def test_fig8_statistics_for_q1_keep_fig5_selectivities(self):
        stats = fig8_statistics(q1(), tuples_per_relation=777)
        assert stats.cardinality("a") == 777
        assert stats.selectivity("a", "X") == 24

    def test_fig8_statistics_for_q2_flat_profile(self):
        stats = fig8_statistics(q2(), tuples_per_relation=100, selectivity=9)
        assert stats.cardinality("r1") == 100
        assert stats.selectivity("r1", "A") == 9

    def test_fig8_database_generation(self):
        db = fig8_database(q2(), tuples_per_relation=60, selectivity=10, seed=2)
        assert db.relation("r3").cardinality == 60
        assert db.relation("r3").distinct_count("C") == 10

    def test_paper_estimated_costs_shape(self):
        costs = PAPER_Q1_ESTIMATED_COSTS
        assert costs[2] > costs[3] > costs[4] == costs[5]

    def test_q3_has_output_variables(self):
        assert len(q3().output_variables) == 4
