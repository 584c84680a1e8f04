"""Correctness of planner output for non-Boolean queries.

The fresh-variable completeness construction (Section 6) adds internal
variables during planning; these tests pin down that the executed plan still
returns exactly the original query's answer relation, for both completion
modes and against the naive join as ground truth.
"""

import pytest

from repro.db.executor import execute_plan
from repro.db.generator import uniform_database
from repro.db.plan_ir import join_order_plan_ir
from repro.planner.cost_k_decomp import cost_k_decomp
from repro.query.conjunctive import build_query
from repro.query.examples import q3


@pytest.fixture
def output_query():
    # A cyclic query with output variables (a small analogue of Q3).
    return build_query(
        [
            ("r1", ["A", "B", "M"]),
            ("r2", ["B", "C"]),
            ("r3", ["C", "D"]),
            ("r4", ["D", "A"]),
        ],
        output_variables=["A", "C", "M"],
        name="small_q3",
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("completion", ["fresh", "post"])
def test_plan_answer_equals_naive_join(output_query, seed, completion):
    database = uniform_database(output_query, tuples_per_relation=30, domain_size=4, seed=seed)
    plan = cost_k_decomp(output_query, database.statistics, 2, completion=completion)
    structural = execute_plan(plan.to_ir(), database)
    naive = execute_plan(join_order_plan_ir(output_query), database)
    assert structural.relation is not None
    assert set(structural.relation.attributes) == set(output_query.output_variables)
    assert structural.relation.same_tuples(naive.relation)


def test_answer_contains_no_fresh_variables(output_query):
    database = uniform_database(output_query, tuples_per_relation=20, domain_size=3, seed=5)
    plan = cost_k_decomp(output_query, database.statistics, 2, completion="fresh")
    result = execute_plan(plan.to_ir(), database)
    assert all(not attr.startswith("_Fresh_") for attr in result.relation.attributes)
    for node in plan.decomposition.nodes():
        assert all(not v.startswith("_Fresh_") for v in node.chi)


@pytest.mark.slow
def test_q3_answer_consistent_across_k():
    query = q3()
    database = uniform_database(query, tuples_per_relation=60, domain_size=12, seed=2)
    answers = set()
    for k in (2, 3):
        plan = cost_k_decomp(query, database.statistics, k)
        result = execute_plan(plan.to_ir(), database)
        answers.add(frozenset(result.relation.rows))
    assert len(answers) == 1
