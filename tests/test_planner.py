"""Tests for the planners: cost-k-decomp, the left-deep baseline and the
comparison harness."""

import pytest

import repro.planner.compare as compare_module
from repro.db.executor import execute_plan
from repro.db.generator import uniform_database
from repro.db.serving import prewarm
from repro.db.statistics import CatalogStatistics
from repro.exceptions import PlanningError
from repro.planner.baseline import SystemROptimizer, baseline_plan
from repro.planner.compare import compare_planners, measure_baseline
from repro.planner.cost_k_decomp import best_plan_over_k, cost_k_decomp
from repro.planner.plans import HypertreePlan, JoinOrderPlan
from repro.query.examples import q1, q2
from repro.workloads.paper_queries import fig5_statistics, fig8_database
from repro.workloads.synthetic import cycle_query, workload_database


def _no_execution(*args, **kwargs):
    raise AssertionError("a plan was executed")


@pytest.fixture
def cycle5_setup():
    query = cycle_query(5)
    database = uniform_database(query, tuples_per_relation=60, domain_size=6, seed=5)
    return query, database


class TestCostKDecomp:
    def test_plan_for_q1_with_fig5_statistics(self):
        plan = cost_k_decomp(q1(), fig5_statistics(), k=2)
        assert isinstance(plan, HypertreePlan)
        assert plan.width == 2
        assert plan.estimated_cost > 0
        assert plan.k == 2
        assert plan.planning_seconds >= 0
        assert plan.node_estimates
        assert "Hypertree plan" in plan.describe()

    def test_fresh_completion_produces_complete_decomposition(self):
        plan = cost_k_decomp(q1(), fig5_statistics(), k=2, completion="fresh")
        # After stripping the fresh variables the decomposition is complete
        # w.r.t. the original query hypergraph.
        assert plan.decomposition.is_complete()
        assert plan.decomposition.hypergraph == q1().hypergraph()

    def test_post_completion_also_complete(self):
        plan = cost_k_decomp(q1(), fig5_statistics(), k=2, completion="post")
        assert plan.decomposition.is_complete()

    @pytest.mark.parametrize("mode", ["bogus", "none"])
    def test_invalid_completion_mode(self, mode):
        with pytest.raises(PlanningError):
            cost_k_decomp(q1(), fig5_statistics(), k=2, completion=mode)

    @pytest.mark.parametrize("mode", ["bogus", "none"])
    @pytest.mark.parametrize("entry", ["best_plan_over_k", "compare_planners", "prewarm"])
    def test_sweeps_refuse_an_unknown_completion_mode(self, entry, mode, monkeypatch):
        # A sweep skips the bounds no plan exists for; an unknown mode is
        # not such a bound, and prewarm must not fall back to the baseline.
        # compare_planners refuses before it executes any plan.
        monkeypatch.setattr(compare_module, "_execute_and_measure", _no_execution)
        sweeps = {
            "best_plan_over_k": lambda: best_plan_over_k(
                q1(), fig5_statistics(), (2, 3), completion=mode
            ),
            "compare_planners": lambda: compare_planners(
                q1(), fig8_database(q1(), 50), k_values=(2, 3), completion=mode
            ),
            "prewarm": lambda: prewarm(
                fig8_database(q1(), 50), [q1()], k_values=(2,), completion=mode
            ),
        }
        with pytest.raises(PlanningError, match=f"unknown completion mode '{mode}'"):
            sweeps[entry]()

    def test_compare_planners_executes_nothing_when_no_k_admits_a_plan(
        self, monkeypatch
    ):
        monkeypatch.setattr(compare_module, "_execute_and_measure", _no_execution)
        with pytest.raises(PlanningError, match="no plan found"):
            compare_planners(q1(), fig8_database(q1(), 50), k_values=(1,))

    def test_prewarm_falls_back_only_when_no_k_admits_a_plan(self):
        database = fig8_database(q1(), 50)
        [fallback] = prewarm(database, [q1()], k_values=(1,))
        [structural] = prewarm(database, [q1()], k_values=(1, 2))
        assert fallback["plan"]["kind"] == "join_order"
        assert structural["plan"]["kind"] == "hypertree"

    def test_width_bound_too_small(self):
        with pytest.raises(PlanningError):
            cost_k_decomp(q1(), fig5_statistics(), k=1)

    def test_estimated_cost_non_increasing_in_k(self):
        statistics = fig5_statistics()
        costs = [
            cost_k_decomp(q1(), statistics, k).estimated_cost for k in (2, 3, 4)
        ]
        assert costs[0] >= costs[1] >= costs[2]

    def test_best_plan_over_k_skips_infeasible(self):
        plans = best_plan_over_k(q1(), fig5_statistics(), k_values=(1, 2, 3))
        assert 1 not in plans
        assert set(plans) == {2, 3}

    def test_best_plan_over_k_all_infeasible(self):
        with pytest.raises(PlanningError):
            best_plan_over_k(q1(), fig5_statistics(), k_values=(1,))

    @pytest.mark.parametrize("completion", ["fresh", "post"])
    def test_plans_of_one_query_share_its_hypergraph(self, completion):
        # The query memoises H(Q), so a kept plan holds no private copy of
        # it; the memo is no dataclass field, so equality, hashing and repr
        # of the query do not see it.
        query, untouched = q1(), q1()
        first = cost_k_decomp(query, fig5_statistics(), 2, completion=completion)
        second = cost_k_decomp(query, fig5_statistics(), 3, completion=completion)
        assert first.decomposition.hypergraph is query.hypergraph()
        assert second.decomposition.hypergraph is first.decomposition.hypergraph
        assert query == untouched and hash(query) == hash(untouched)
        assert repr(query) == repr(untouched)
        assert untouched.hypergraph() is not query.hypergraph()
        assert untouched.hypergraph() == query.hypergraph()

    def test_plan_execution_matches_baseline_answer(self, cycle5_setup):
        query, database = cycle5_setup
        plan = cost_k_decomp(query, database.statistics, k=2)
        structural = execute_plan(plan.to_ir(), database)
        naive = execute_plan(
            baseline_plan(query, database.statistics).to_ir(), database
        )
        assert structural.boolean == naive.boolean


class TestBaseline:
    def test_baseline_plan_uses_every_atom_once(self):
        plan = baseline_plan(q1(), fig5_statistics())
        assert isinstance(plan, JoinOrderPlan)
        assert sorted(plan.order) == sorted(a.name for a in q1().atoms)
        assert plan.estimated_cost > 0
        assert "Left-deep plan" in plan.describe()

    def test_exhaustive_beats_or_matches_greedy(self):
        query = q2()
        statistics = fig8_database(query, tuples_per_relation=50).statistics
        exhaustive = SystemROptimizer(query, statistics).optimize()
        greedy_optimizer = SystemROptimizer(query, statistics, exhaustive_limit=0)
        greedy = greedy_optimizer.optimize()
        assert exhaustive.estimated_cost <= greedy.estimated_cost + 1e-6

    def test_baseline_avoids_cartesian_products_when_possible(self):
        query = cycle_query(6)
        statistics = CatalogStatistics.from_declared(
            {a.predicate: 100 for a in query.atoms},
            {a.predicate: {v: 10 for v in a.variables} for a in query.atoms},
        )
        plan = baseline_plan(query, statistics)
        # Every prefix after the first atom shares a variable with the prefix.
        seen_vars = set(query.atom_by_name(plan.order[0]).variables)
        for name in plan.order[1:]:
            atom_vars = set(query.atom_by_name(name).variables)
            assert seen_vars & atom_vars
            seen_vars |= atom_vars

    def test_baseline_execution_answers_query(self, cycle5_setup):
        query, database = cycle5_setup
        plan = baseline_plan(query, database.statistics)
        result = execute_plan(plan.to_ir(), database)
        assert result.boolean in (True, False)


class TestComparison:
    def test_compare_planners_produces_report(self, cycle5_setup):
        query, database = cycle5_setup
        report = compare_planners(query, database, k_values=(2,), budget=2_000_000)
        assert report.query_name == query.name
        assert 2 in report.structural
        assert report.work_ratio(2) > 0
        assert report.time_ratio(2) > 0
        rows = report.rows()
        assert rows[0]["plan"] == "baseline(left-deep)"
        assert any("cost-2-decomp" == row["plan"] for row in rows)
        assert "Comparison" in report.describe()

    def test_structural_plans_beat_baseline_on_cyclic_workload(self):
        # The paper's headline effect: on a long cyclic query with dense data
        # the structural plan does far less work than the left-deep plan.
        query = cycle_query(8)
        database = workload_database(query, tuples_per_relation=120, domain_size=30, seed=11)
        report = compare_planners(query, database, k_values=(2,), budget=4_000_000)
        assert report.work_ratio(2) > 1.5

    def test_measure_functions(self, cycle5_setup):
        query, database = cycle5_setup
        base = measure_baseline(query, database, budget=2_000_000)
        report = compare_planners(query, database, k_values=(2,), budget=2_000_000)
        structural = report.structural[2]
        assert base.evaluation_work > 0
        assert report.baseline.evaluation_work == base.evaluation_work
        assert structural.width == 2
        assert structural.as_row()["plan"] == "cost-2-decomp"

    def test_budget_exceeded_is_reported_not_raised(self):
        query = cycle_query(7)
        database = workload_database(query, tuples_per_relation=150, domain_size=5, seed=2)
        measurement = measure_baseline(query, database, budget=5_000)
        assert measurement.budget_exceeded
        assert measurement.answer_cardinality == -1
        assert measurement.evaluation_work >= 5_000

    def test_no_structural_plan_possible(self, cycle5_setup):
        query, database = cycle5_setup
        with pytest.raises(PlanningError):
            compare_planners(query, database, k_values=(1,))
