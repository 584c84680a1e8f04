"""Head-to-head comparison harness: cost-k-decomp vs the quantitative-only
baseline.

This is the measurement core behind the Fig. 8 experiments: for a query, a
database and a set of width bounds, it

1. plans the query with cost-k-decomp for every requested ``k``,
2. plans it with the baseline left-deep optimiser and executes that plan,
   then executes the structural plans,
3. reports, per plan, the planning time, the estimated cost, the evaluation
   work (tuples read + emitted, the hardware-independent proxy), the
   wall-clock evaluation time, and the baseline/structural ratios the paper
   plots.

Correctness is also cross-checked: every structural plan must return exactly
the same answer as the baseline plan.

:func:`measure_baseline` and :func:`compare_planners` accept a
``plan_cache`` -- a :class:`repro.db.storage.PlanCache` -- and hand it to
the planners (:func:`~repro.planner.baseline.baseline_plan`,
:func:`~repro.planner.cost_k_decomp.best_plan_over_k`): a hit replays the
stored winner with ``planning_seconds == 0.0``, any statistics change is a
miss (see :func:`repro.planner.plans.cached_plan`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.db.database import Database
from repro.db.executor import execute_plan
from repro.db.storage import PlanCache
from repro.exceptions import PlanningError
from repro.planner.baseline import baseline_plan
from repro.planner.cost_k_decomp import best_plan_over_k
from repro.query.conjunctive import ConjunctiveQuery


@dataclass
class PlanMeasurement:
    """One executed plan and its measurements.

    ``budget_exceeded`` marks runs that hit the evaluation-work budget (a
    query timeout); for those, ``evaluation_work`` is the work done before
    the abort, i.e. a lower bound, and ``answer_cardinality`` is -1.
    """

    label: str
    planning_seconds: float
    evaluation_seconds: float
    estimated_cost: float
    evaluation_work: int
    answer_cardinality: int
    width: Optional[int] = None
    budget_exceeded: bool = False
    #: Name of the weighting function the planner minimised ("-" for the
    #: quantitative-only baseline, which has none).
    weighting: str = "-"

    @property
    def total_seconds(self) -> float:
        return self.planning_seconds + self.evaluation_seconds

    def as_row(self) -> Dict[str, object]:
        return {
            "plan": self.label,
            "weighting": self.weighting,
            "width": self.width if self.width is not None else "-",
            "planning_s": round(self.planning_seconds, 4),
            "evaluation_s": round(self.evaluation_seconds, 4),
            "total_s": round(self.total_seconds, 4),
            "estimated_cost": round(self.estimated_cost, 1),
            "evaluation_work": self.evaluation_work,
            "answer_cardinality": self.answer_cardinality,
            "budget_exceeded": self.budget_exceeded,
        }


@dataclass
class ComparisonReport:
    """The full comparison for one query/database pair."""

    query_name: str
    baseline: PlanMeasurement
    structural: Dict[int, PlanMeasurement] = field(default_factory=dict)

    def work_ratio(self, k: int) -> float:
        """Baseline work / structural work for bound ``k`` (the quantity the
        Fig. 8(A) bars report, using work instead of seconds)."""
        measurement = self.structural[k]
        return self.baseline.evaluation_work / max(measurement.evaluation_work, 1)

    def time_ratio(self, k: int, include_planning: bool = True) -> float:
        measurement = self.structural[k]
        denominator = (
            measurement.total_seconds if include_planning else measurement.evaluation_seconds
        )
        numerator = (
            self.baseline.total_seconds if include_planning else self.baseline.evaluation_seconds
        )
        return numerator / max(denominator, 1e-9)

    def rows(self) -> List[Dict[str, object]]:
        rows = [self.baseline.as_row()]
        for k in sorted(self.structural):
            row = self.structural[k].as_row()
            row["work_ratio_vs_baseline"] = round(self.work_ratio(k), 2)
            rows.append(row)
        return rows

    def describe(self) -> str:
        lines = [f"Comparison for {self.query_name}"]
        for row in self.rows():
            pieces = ", ".join(f"{key}={value}" for key, value in row.items())
            lines.append(f"  {pieces}")
        return "\n".join(lines)


def _execute_and_measure(
    plan, database: Database, label: str, budget: Optional[int], width=None,
    weighting: str = "-",
) -> PlanMeasurement:
    from repro.db.algebra import EvaluationBudgetExceeded

    # Both plan shapes lower to the shared plan-node IR and execute on the
    # identical kernels, which is what makes the work counters comparable.
    plan_ir = plan.to_ir()
    started = time.perf_counter()
    try:
        result = execute_plan(plan_ir, database, budget=budget)
        work, cardinality = result.stats.total_work, result.cardinality
    except EvaluationBudgetExceeded as exc:
        work, cardinality = exc.work_so_far, -1
    return PlanMeasurement(
        label=label,
        planning_seconds=plan.planning_seconds,
        evaluation_seconds=time.perf_counter() - started,
        estimated_cost=plan.estimated_cost,
        evaluation_work=work,
        answer_cardinality=cardinality,
        width=width,
        budget_exceeded=cardinality < 0,
        weighting=weighting,
    )


def measure_baseline(
    query: ConjunctiveQuery, database: Database, budget: Optional[int] = None,
    plan_cache: Optional[PlanCache] = None,
) -> PlanMeasurement:
    """Plan with the left-deep optimiser (or replay the cached order) and
    execute."""
    plan = baseline_plan(query, database.statistics, plan_cache=plan_cache)
    return _execute_and_measure(plan, database, "baseline(left-deep)", budget)


def compare_planners(
    query: ConjunctiveQuery,
    database: Database,
    k_values: Sequence[int] = (2, 3, 4, 5),
    completion: str = "fresh",
    check_answers: bool = True,
    budget: Optional[int] = 20_000_000,
    plan_cache: Optional[PlanCache] = None,
) -> ComparisonReport:
    """Run the full comparison for one query over one database.

    ``budget`` caps the evaluation work of every plan (default 20M tuples,
    roughly tens of seconds of pure-Python evaluation); a plan that exceeds
    it is reported with ``budget_exceeded=True`` and its work-so-far as a
    lower bound, mirroring a query timeout in a real system.  Every plan
    executes under ``execute_plan``'s defaults (one thread, 64 MiB emit
    chunks); work counters and answers are identical at any setting, so
    the comparison stays fair.  ``plan_cache`` makes the whole sweep
    persistent: with unchanged statistics a repeated comparison replays
    every winning plan with zero planning time.  The structural plans are
    planned first, so a sweep that cannot plan (an unknown ``completion``,
    or every ``k`` below the hypertree width) raises ``PlanningError``
    before any plan executes.
    """
    plans = best_plan_over_k(
        query, database.statistics, k_values, completion=completion,
        plan_cache=plan_cache,
    )
    baseline_measurement = measure_baseline(
        query, database, budget=budget, plan_cache=plan_cache,
    )
    report = ComparisonReport(query_name=query.name, baseline=baseline_measurement)
    for k, plan in plans.items():
        measurement = _execute_and_measure(
            plan, database, f"cost-{k}-decomp", budget, width=plan.width,
            weighting=plan.weighting,
        )
        report.structural[k] = measurement
        answers_comparable = (
            not measurement.budget_exceeded and not baseline_measurement.budget_exceeded
        )
        if (
            check_answers
            and answers_comparable
            and measurement.answer_cardinality != baseline_measurement.answer_cardinality
        ):
            raise PlanningError(
                f"answer mismatch for {query.name} at k={k}: structural plan returned "
                f"{measurement.answer_cardinality} tuples, baseline "
                f"{baseline_measurement.answer_cardinality}"
            )
    return report
