"""Tests for Yannakakis' algorithm and the hypertree-plan executor.

The central correctness property: for *any* complete hypertree decomposition,
executing the hypertree plan returns exactly the same answer as the naive
join of all atoms.
"""

import pytest

from repro.db.algebra import EvaluationBudgetExceeded
from repro.db.executor import (
    build_tree_query,
    execute_hypertree_plan,
    naive_join_evaluation,
)
from repro.db.relation import Relation
from repro.db.yannakakis import TreeQuery, evaluate, evaluate_boolean, semijoin_reduce
from repro.decomposition.kdecomp import optimal_decomposition
from repro.decomposition.normal_form import complete_decomposition
from repro.db.generator import uniform_database
from repro.exceptions import DatabaseError
from repro.query.conjunctive import build_query
from repro.workloads.synthetic import cycle_query, chain_query


@pytest.fixture
def path_tree(tiny_database):
    """The tree query for r(X,Y) - s(Y,Z) - t(Z,W) rooted at s."""
    query = build_query([("r", ["X", "Y"]), ("s", ["Y", "Z"]), ("t", ["Z", "W"])])
    bound = tiny_database.bind_query(query)
    return TreeQuery(
        root="s",
        children={"s": ("r", "t"), "r": (), "t": ()},
        relations=bound,
    ), query


class TestYannakakis:
    def test_semijoin_reduce_removes_dangling_tuples(self, path_tree, tiny_database):
        tree, _ = path_tree
        reduced = semijoin_reduce(tree)
        # After full reduction every remaining tuple participates in a result:
        # r-(3,30) has no partner in s, s-(20,300) has no partner in t.
        assert (3, 30) not in reduced.relations["r"].rows
        assert (20, 300) not in reduced.relations["s"].rows

    def test_boolean_evaluation(self, path_tree):
        tree, _ = path_tree
        assert evaluate_boolean(tree)

    def test_boolean_false_on_empty_join(self, tiny_database):
        query = build_query([("r", ["X", "Y"]), ("s", ["Y", "Z"])])
        bound = tiny_database.bind_query(query)
        # Make s unmatchable.
        bound["s"] = Relation("s", ["Y", "Z"], [(999, 1)])
        tree = TreeQuery(root="r", children={"r": ("s",), "s": ()}, relations=bound)
        assert not evaluate_boolean(tree)

    def test_full_evaluation_matches_naive_join(self, path_tree, tiny_database):
        tree, query = path_tree
        answer = evaluate(tree, ["X", "W"])
        naive = naive_join_evaluation(
            build_query(
                [("r", ["X", "Y"]), ("s", ["Y", "Z"]), ("t", ["Z", "W"])],
                output_variables=["X", "W"],
            ),
            tiny_database,
        )
        assert answer.same_tuples(naive.relation)

    def test_evaluate_all_variables_by_default(self, path_tree):
        tree, _ = path_tree
        answer = evaluate(tree, [])
        assert set(answer.attributes) == {"X", "Y", "Z", "W"}

    def test_inconsistent_tree_rejected(self, tiny_database):
        tree = TreeQuery(root="r", children={"r": ("s",)}, relations={})
        with pytest.raises(DatabaseError):
            semijoin_reduce(tree)


class TestHypertreePlanExecution:
    def _decomposition_for(self, query):
        return complete_decomposition(optimal_decomposition(query.hypergraph()))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_boolean_cycle_query_matches_naive(self, seed):
        query = cycle_query(5)
        database = uniform_database(query, tuples_per_relation=30, domain_size=4, seed=seed)
        decomposition = self._decomposition_for(query)
        plan_result = execute_hypertree_plan(query, database, decomposition)
        naive_result = naive_join_evaluation(query, database)
        assert plan_result.boolean == naive_result.boolean

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_non_boolean_query_matches_naive(self, seed):
        query = build_query(
            [("r0", ["X0", "X1"]), ("r1", ["X1", "X2"]), ("r2", ["X2", "X3"]), ("r3", ["X3", "X0"])],
            output_variables=["X0", "X2"],
            name="cycle_out",
        )
        database = uniform_database(query, tuples_per_relation=25, domain_size=4, seed=seed)
        decomposition = self._decomposition_for(query)
        plan_result = execute_hypertree_plan(query, database, decomposition)
        naive_result = naive_join_evaluation(query, database)
        assert plan_result.relation.same_tuples(naive_result.relation)

    def test_q0_boolean_matches_naive(self, q0_query):
        database = uniform_database(q0_query, tuples_per_relation=40, domain_size=4, seed=7)
        decomposition = self._decomposition_for(q0_query)
        plan_result = execute_hypertree_plan(q0_query, database, decomposition)
        naive_result = naive_join_evaluation(q0_query, database)
        assert plan_result.boolean == naive_result.boolean

    def test_incomplete_decomposition_rejected(self, q0_query):
        database = uniform_database(q0_query, tuples_per_relation=10, domain_size=3, seed=0)
        decomposition = optimal_decomposition(q0_query.hypergraph())
        if not decomposition.is_complete():
            with pytest.raises(DatabaseError):
                execute_hypertree_plan(q0_query, database, decomposition)

    def test_build_tree_query_projects_to_chi(self, q0_query):
        database = uniform_database(q0_query, tuples_per_relation=10, domain_size=3, seed=0)
        decomposition = complete_decomposition(optimal_decomposition(q0_query.hypergraph()))
        tree = build_tree_query(q0_query, database, decomposition)
        for node in decomposition.nodes():
            assert set(tree.relations[node.node_id].attributes) <= set(node.chi)

    def test_unknown_edge_in_decomposition_rejected(self, tiny_database):
        query = build_query([("r", ["X", "Y"])])
        other = build_query([("zzz", ["X", "Y"])])
        decomposition = optimal_decomposition(other.hypergraph())
        with pytest.raises(DatabaseError):
            build_tree_query(query, tiny_database, decomposition)

    def test_budget_is_enforced(self):
        query = chain_query(4)
        database = uniform_database(query, tuples_per_relation=200, domain_size=2, seed=0)
        with pytest.raises(EvaluationBudgetExceeded):
            naive_join_evaluation(query, database, budget=100)


class TestNaiveJoin:
    def test_order_must_cover_all_atoms(self, tiny_database):
        query = build_query([("r", ["X", "Y"]), ("s", ["Y", "Z"])])
        with pytest.raises(DatabaseError):
            naive_join_evaluation(query, tiny_database, order=("r",))
        with pytest.raises(DatabaseError):
            naive_join_evaluation(query, tiny_database, order=("r", "nope"))

    def test_boolean_answer(self, tiny_database):
        query = build_query([("r", ["X", "Y"]), ("s", ["Y", "Z"])])
        result = naive_join_evaluation(query, tiny_database)
        assert result.boolean is True
        assert result.cardinality == 1

    def test_projection_to_output_variables(self, tiny_database):
        query = build_query(
            [("r", ["X", "Y"]), ("s", ["Y", "Z"])], output_variables=["X"]
        )
        result = naive_join_evaluation(query, tiny_database)
        assert result.relation.attributes == ("X",)
        assert result.cardinality == result.relation.distinct_cardinality()
