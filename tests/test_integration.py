"""End-to-end integration tests across the whole stack."""

import pytest

from repro.db.executor import execute_plan
from repro.db.generator import uniform_database
from repro.decomposition.kdecomp import hypertree_width
from repro.decomposition.minimal import minimal_k_decomp
from repro.decomposition.normal_form import is_normal_form
from repro.planner.baseline import baseline_plan
from repro.planner.compare import compare_planners
from repro.planner.cost_k_decomp import cost_k_decomp
from repro.query.conjunctive import parse_query
from repro.query.examples import q1
from repro.weights.querycost import query_cost_taf
from repro.workloads.paper_queries import fig5_statistics, fig8_database
from repro.workloads.synthetic import cycle_query, workload_database


class TestPublicAPI:
    def test_top_level_imports(self):
        import repro

        assert repro.__version__
        assert callable(repro.minimal_k_decomp)
        assert callable(repro.cost_k_decomp)
        assert callable(repro.hypertree_width)
        assert callable(repro.parse_query)

    def test_parse_decompose_and_weigh(self):
        query = parse_query(
            "ans <- r(A,B), s(B,C), t(C,D), u(D,A)", name="ring"
        )
        hypergraph = query.hypergraph()
        assert hypertree_width(hypergraph) == 2
        statistics = uniform_database(
            query, tuples_per_relation=30, domain_size=5, seed=0
        ).statistics
        taf = query_cost_taf(query, statistics)
        hd = minimal_k_decomp(hypergraph, 2, taf)
        assert hd.is_valid()
        assert is_normal_form(hd)
        assert taf.weigh(hd) > 0


@pytest.mark.slow
class TestEndToEndPipeline:
    def test_q1_pipeline_with_fig5_statistics(self):
        # Plan Q1 from the published statistics alone (no data needed).
        plans = {k: cost_k_decomp(q1(), fig5_statistics(), k) for k in (2, 3)}
        assert plans[2].estimated_cost >= plans[3].estimated_cost
        for plan in plans.values():
            assert plan.decomposition.is_complete()

    def test_q1_execution_agrees_between_planners(self):
        query = q1()
        # The sparse input answers False, the dense one True: the planners
        # must agree on a satisfiable Q1 too.
        for tuples, seed, satisfiable in ((80, 4, False), (400, 0, True)):
            database = fig8_database(query, tuples_per_relation=tuples, seed=seed)
            report = compare_planners(
                query, database, k_values=(2, 3), budget=3_000_000
            )
            assert 2 in report.structural and 3 in report.structural
            # All plans that completed within budget agree on the answer.
            answers = {
                m.answer_cardinality
                for m in [report.baseline, *report.structural.values()]
                if not m.budget_exceeded
            }
            assert answers == {int(satisfiable)}

    def test_cyclic_workload_structural_advantage(self):
        query = cycle_query(8)
        database = workload_database(
            query, tuples_per_relation=100, domain_size=25, seed=3
        )
        report = compare_planners(query, database, k_values=(2, 3), budget=4_000_000)
        # The structural plans do strictly less work than the left-deep plan,
        # and more freedom (larger k) never hurts the minimal plan's work by
        # more than noise.
        assert report.work_ratio(2) > 1.0
        assert report.work_ratio(3) > 1.0

    def test_baseline_and_structural_plans_execute_same_answer_counts(self):
        query = cycle_query(6)
        database = workload_database(
            query, tuples_per_relation=60, domain_size=10, seed=9
        )
        structural = execute_plan(
            cost_k_decomp(query, database.statistics, 2).to_ir(), database
        )
        baseline = execute_plan(
            baseline_plan(query, database.statistics).to_ir(), database
        )
        assert structural.boolean == baseline.boolean
