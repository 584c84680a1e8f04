"""Tests for Yannakakis' algorithm and the hypertree-plan executor.

The central correctness property: for *any* complete hypertree decomposition,
executing the hypertree plan returns exactly the same answer as the naive
join of all atoms.  Every plan runs through the one door,
:func:`repro.db.executor.execute_plan`; the semijoin passes are also driven
step by step (:func:`repro.db.yannakakis.reduction_steps` in insertion
order, the serial algorithm) where a test inspects the reduced relations.
"""

import re

import pytest

from repro.db.algebra import EvaluationBudgetExceeded
from repro.db.database import Database
from repro.db.executor import execute_plan
from repro.db.plan_ir import JoinNode, ScanNode, hypertree_plan_ir, join_order_plan_ir
from repro.db.relation import Relation
from repro.db.yannakakis import TreeQuery, fold_plan, reduction_steps
from repro.decomposition.hypertree import HypertreeDecomposition
from repro.decomposition.kdecomp import optimal_decomposition
from repro.decomposition.normal_form import complete_decomposition
from repro.db.generator import uniform_database
from repro.exceptions import DatabaseError
from repro.planner.plans import HypertreePlan
from repro.query.conjunctive import build_query, parse_query
from repro.workloads.synthetic import cycle_query, chain_query

PATH_BODY = [("r", ["X", "Y"]), ("s", ["Y", "Z"]), ("t", ["Z", "W"])]


@pytest.fixture
def path_tree(tiny_database):
    """The tree query for r(X,Y) - s(Y,Z) - t(Z,W) rooted at s."""
    query = build_query(PATH_BODY)
    bound = tiny_database.bind_query(query)
    return TreeQuery(
        root="s",
        children={"s": ("r", "t"), "r": (), "t": ()},
        relations=bound,
    ), query


def _path_decomposition(query):
    """The same join tree as ``path_tree`` as a decomposition: one node per
    atom (λ = the atom, χ = its variables), rooted at s."""
    return HypertreeDecomposition.build(
        query.hypergraph(),
        {0: [1, 2], 1: [], 2: []},
        {0: ["s"], 1: ["r"], 2: ["t"]},
        {0: ["Y", "Z"], 1: ["X", "Y"], 2: ["Z", "W"]},
    )


def _reduced(tree, full=True):
    """The semijoin program run serially: every step in insertion order."""
    relations = dict(tree.relations)
    for step in reduction_steps(tree, relations, full=full).values():
        step()
    return relations


class TestYannakakis:
    def test_semijoin_passes_remove_dangling_tuples(self, path_tree):
        tree, _ = path_tree
        reduced = _reduced(tree)
        # After full reduction every remaining tuple participates in a result:
        # r-(3,30) has no partner in s, s-(20,300) has no partner in t.
        assert (3, 30) not in reduced["r"].rows
        assert (20, 300) not in reduced["s"].rows

    def test_boolean_evaluation(self, tiny_database):
        query = build_query(PATH_BODY)
        plan = hypertree_plan_ir(query, _path_decomposition(query))
        assert execute_plan(plan, tiny_database).boolean is True

    def test_boolean_false_on_empty_join(self, tiny_database):
        query = build_query([("r", ["X", "Y"]), ("s", ["Y", "Z"])])
        # Make s unmatchable.
        database = Database(
            relations={
                "r": tiny_database.relation("r"),
                "s": Relation("s", ["y", "z"], [(999, 1)]),
            }
        )
        decomposition = HypertreeDecomposition.build(
            query.hypergraph(), {0: [1], 1: []}, {0: ["r"], 1: ["s"]},
            {0: ["X", "Y"], 1: ["Y", "Z"]},
        )
        result = execute_plan(hypertree_plan_ir(query, decomposition), database)
        assert result.boolean is False

    def test_full_evaluation_matches_naive_join(self, tiny_database):
        query = build_query(PATH_BODY, output_variables=["X", "W"])
        plan = hypertree_plan_ir(query, _path_decomposition(query))
        answer = execute_plan(plan, tiny_database)
        naive = execute_plan(join_order_plan_ir(query), tiny_database)
        assert answer.relation.same_tuples(naive.relation)

    def test_evaluate_all_variables_by_default(self, path_tree):
        tree, _ = path_tree
        assert set(fold_plan(tree, []).wanted) == {"X", "Y", "Z", "W"}

    def test_inconsistent_tree_rejected(self):
        tree = TreeQuery(root="r", children={"r": ("s",)}, relations={})
        with pytest.raises(DatabaseError):
            tree.validate()


class TestHypertreePlanExecution:
    def _decomposition_for(self, query):
        return complete_decomposition(optimal_decomposition(query.hypergraph()))

    def _structural(self, query, database, decomposition):
        return execute_plan(hypertree_plan_ir(query, decomposition), database)

    def _naive(self, query, database):
        return execute_plan(join_order_plan_ir(query), database)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_boolean_cycle_query_matches_naive(self, seed):
        query = cycle_query(5)
        database = uniform_database(query, tuples_per_relation=30, domain_size=4, seed=seed)
        decomposition = self._decomposition_for(query)
        plan_result = self._structural(query, database, decomposition)
        naive_result = self._naive(query, database)
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
        plan_result = self._structural(query, database, decomposition)
        naive_result = self._naive(query, database)
        assert plan_result.relation.same_tuples(naive_result.relation)

    def test_q0_boolean_matches_naive(self, q0_query):
        database = uniform_database(q0_query, tuples_per_relation=40, domain_size=4, seed=7)
        decomposition = self._decomposition_for(q0_query)
        plan_result = self._structural(q0_query, database, decomposition)
        naive_result = self._naive(q0_query, database)
        assert plan_result.boolean == naive_result.boolean

    @pytest.mark.parametrize("case", ["q0", "rst", "other_hypergraph"])
    def test_incomplete_decomposition_rejected(self, case, q0_query):
        # Valid on Def. 2.1's four conditions but not complete for the
        # query, so the lowering refuses it on every path.  The "rst" plan's
        # one node λ={r, s} leaves t in no λ: executed anyway it answered
        # 109 rows where the join-order oracle answers 76.  The same node
        # built over the hypergraph of r and s alone is complete for that
        # hypergraph, and t is still in no λ.
        if case == "q0":
            query = q0_query
            decomposition = optimal_decomposition(query.hypergraph())
            database = uniform_database(query, tuples_per_relation=10, domain_size=3, seed=0)
            uncovered = list(decomposition.not_strongly_covered())
            assert uncovered
        else:
            query = parse_query("ans(A,B,C) :- r(A,B), s(B,C), t(A,B).")
            hypergraph = query.hypergraph()
            if case == "other_hypergraph":
                hypergraph = parse_query("ans(A,B,C) :- r(A,B), s(B,C).").hypergraph()
            decomposition = HypertreeDecomposition.build(
                hypergraph, {0: []}, {0: ["r", "s"]}, {0: ["A", "B", "C"]}
            )
            database = uniform_database(query, 40, 6, seed=1)
            uncovered = ["t"]
        decomposition.validate()
        message = re.escape(f"no node strongly covers {uncovered}")
        with pytest.raises(DatabaseError, match=message):
            hypertree_plan_ir(query, decomposition)
        plan = HypertreePlan(query, decomposition, 0.0, 2)
        with pytest.raises(DatabaseError, match=message):
            execute_plan(plan.to_ir(), database)

    def test_lowering_projects_each_node_to_chi(self, q0_query):
        # E(p) = Π_χ(p) ⋈_λ(p): the executor's one E(p) is the lowering's
        # ProjectNode(JoinNode(smallest_first=True)) over λ's scans.
        database = uniform_database(q0_query, tuples_per_relation=10, domain_size=3, seed=0)
        decomposition = complete_decomposition(optimal_decomposition(q0_query.hypergraph()))
        plan = hypertree_plan_ir(q0_query, decomposition)
        expressions = dict(plan.root.expressions)
        for node in decomposition.nodes():
            expression = expressions[node.node_id]
            assert expression.attributes == tuple(sorted(node.chi))
            assert expression.input == JoinNode(
                tuple(ScanNode(e) for e in sorted(node.lambda_edges)),
                smallest_first=True,
            )
        assert execute_plan(plan, database).boolean is not None

    def test_unknown_edge_in_decomposition_rejected(self):
        query = build_query([("r", ["X", "Y"])])
        other = build_query([("zzz", ["X", "Y"])])
        decomposition = optimal_decomposition(other.hypergraph())
        with pytest.raises(DatabaseError, match="not an atom"):
            hypertree_plan_ir(query, decomposition)

    def test_budget_is_enforced(self):
        query = chain_query(4)
        database = uniform_database(query, tuples_per_relation=200, domain_size=2, seed=0)
        with pytest.raises(EvaluationBudgetExceeded):
            execute_plan(join_order_plan_ir(query), database, budget=100)


class TestNaiveJoin:
    def test_order_must_cover_all_atoms(self):
        query = build_query([("r", ["X", "Y"]), ("s", ["Y", "Z"])])
        with pytest.raises(DatabaseError):
            join_order_plan_ir(query, ("r",))
        with pytest.raises(DatabaseError):
            join_order_plan_ir(query, ("r", "nope"))

    def test_boolean_answer(self, tiny_database):
        query = build_query([("r", ["X", "Y"]), ("s", ["Y", "Z"])])
        result = execute_plan(join_order_plan_ir(query), tiny_database)
        assert result.boolean is True
        assert result.cardinality == 1

    def test_projection_to_output_variables(self, tiny_database):
        query = build_query(
            [("r", ["X", "Y"]), ("s", ["Y", "Z"])], output_variables=["X"]
        )
        result = execute_plan(join_order_plan_ir(query), tiny_database)
        assert result.relation.attributes == ("X",)
        assert result.cardinality == result.relation.distinct_cardinality()
