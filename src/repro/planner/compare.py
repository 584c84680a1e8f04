"""Head-to-head comparison harness: cost-k-decomp vs the quantitative-only
baseline.

This is the measurement core behind the Fig. 8 experiments: for a query, a
database and a set of width bounds, it

1. plans the query with the baseline left-deep optimiser and executes the
   plan,
2. plans it with cost-k-decomp for every requested ``k`` and executes those
   plans,
3. reports, per plan, the planning time, the estimated cost, the evaluation
   work (tuples read + emitted, the hardware-independent proxy), the
   wall-clock evaluation time, and the baseline/structural ratios the paper
   plots.

Correctness is also cross-checked: every structural plan must return exactly
the same answer as the baseline plan.

Every ``measure_*`` entry point (and :func:`compare_planners`) accepts a
``plan_cache`` -- a :class:`repro.db.storage.PlanCache` -- keyed by (query
fingerprint, statistics digest, k, planner knobs).  On a hit the winning
plan is rebuilt from its stored payload and ``planning_seconds`` is
reported as ``0.0`` (planning was genuinely skipped); on a miss the planner
runs and the result is stored.  Any statistics change alters the digest,
so stale plans can never be replayed against refreshed catalogs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.db.database import Database
from repro.db.storage import (
    PlanCache,
    decomposition_from_payload,
    decomposition_to_payload,
    query_fingerprint,
    statistics_digest,
)
from repro.exceptions import PlanningError, StorageFormatError
from repro.planner.baseline import baseline_plan
from repro.planner.cost_k_decomp import (
    CostPlanningFamily,
    cost_k_decomp,
    planning_family,
)
from repro.planner.plans import HypertreePlan, JoinOrderPlan
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
        result = plan_ir.execute(database, budget=budget)
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


def _baseline_cache_key(query: ConjunctiveQuery, statistics) -> Dict[str, object]:
    return {
        "kind": "join_order",
        "query": query_fingerprint(query),
        "statistics": statistics_digest(statistics),
    }


def _structural_cache_key(
    query: ConjunctiveQuery, statistics, k: int, completion: str
) -> Dict[str, object]:
    return {
        "kind": "hypertree",
        "query": query_fingerprint(query),
        "statistics": statistics_digest(statistics),
        "k": int(k),
        "completion": completion,
    }


def _cached_baseline_plan(
    query: ConjunctiveQuery, statistics, plan_cache: Optional[PlanCache]
) -> JoinOrderPlan:
    """The baseline plan, through the plan cache when one is given (a hit
    skips the optimiser's join-order search and reports zero planning
    time)."""
    if plan_cache is None:
        return baseline_plan(query, statistics)
    key = _baseline_cache_key(query, statistics)
    payload = plan_cache.lookup(key)
    if payload is not None:
        try:
            return JoinOrderPlan(
                query=query,
                order=tuple(str(name) for name in payload["order"]),
                estimated_cost=float(payload["estimated_cost"]),
                planning_seconds=0.0,
            )
        except (KeyError, TypeError, ValueError):
            pass  # corrupt entry: replan and overwrite below
    plan = baseline_plan(query, statistics)
    plan_cache.store(
        key, {"order": list(plan.order), "estimated_cost": plan.estimated_cost}
    )
    return plan


def _cached_structural_plan(
    query: ConjunctiveQuery,
    statistics,
    k: int,
    completion: str,
    family_factory,
    plan_cache: Optional[PlanCache],
) -> HypertreePlan:
    """cost-k-decomp through the plan cache: a hit rebuilds the stored
    winning decomposition (``planning_seconds == 0.0``); a miss plans and
    stores.  Only successful plans are cached -- a ``PlanningError`` (k
    below the hypertree width) is recomputed each time.  ``family_factory``
    produces the (shared) :class:`CostPlanningFamily` and is only called on
    the planning path, so a fully warm sweep builds no planner state at
    all."""
    if plan_cache is None:
        return cost_k_decomp(
            query, statistics, k, completion=completion, family=family_factory()
        )
    key = _structural_cache_key(query, statistics, k, completion)
    payload = plan_cache.lookup(key)
    if payload is not None:
        try:
            decomposition = decomposition_from_payload(
                query.hypergraph(), payload["decomposition"]
            )
            return HypertreePlan(
                query=query,
                decomposition=decomposition,
                estimated_cost=float(payload["estimated_cost"]),
                k=int(payload["k"]),
                node_estimates={
                    int(node_id): float(value)
                    for node_id, value in payload["node_estimates"].items()
                },
                planning_seconds=0.0,
                planned_query=None,
                weighting=str(payload["weighting"]),
            )
        except (KeyError, TypeError, ValueError, StorageFormatError):
            pass  # corrupt entry: replan and overwrite below
    plan = cost_k_decomp(
        query, statistics, k, completion=completion, family=family_factory()
    )
    plan_cache.store(
        key,
        {
            "decomposition": decomposition_to_payload(plan.decomposition),
            "estimated_cost": plan.estimated_cost,
            "k": plan.k,
            "node_estimates": {
                str(node_id): value
                for node_id, value in plan.node_estimates.items()
            },
            "weighting": plan.weighting,
        },
    )
    return plan


def measure_baseline(
    query: ConjunctiveQuery, database: Database, budget: Optional[int] = None,
    plan_cache: Optional[PlanCache] = None,
) -> PlanMeasurement:
    """Plan with the left-deep optimiser (or replay the cached order) and
    execute."""
    plan = _cached_baseline_plan(query, database.statistics, plan_cache)
    return _execute_and_measure(plan, database, "baseline(left-deep)", budget)


def measure_structural(
    query: ConjunctiveQuery,
    database: Database,
    k: int,
    completion: str = "fresh",
    budget: Optional[int] = None,
    family: Optional[CostPlanningFamily] = None,
    plan_cache: Optional[PlanCache] = None,
    _family_factory=None,
) -> PlanMeasurement:
    """Plan with cost-k-decomp for one ``k`` and execute.

    ``family`` (see :func:`repro.planner.cost_k_decomp.planning_family`)
    lets a k-sweep share incremental candidates graphs and warm cost-model
    memos; the per-``k`` planning time still includes that call's share of
    the incremental construction.  ``plan_cache`` short-circuits both: a
    hit replays the stored winning decomposition without touching the
    candidates graph at all.  ``_family_factory`` (internal; used by
    :func:`compare_planners`) lazily supplies the shared family so a fully
    cached sweep never builds one.
    """
    plan = _cached_structural_plan(
        query,
        database.statistics,
        k,
        completion,
        _family_factory if _family_factory is not None else (lambda: family),
        plan_cache,
    )
    return _execute_and_measure(
        plan, database, f"cost-{k}-decomp", budget, width=plan.width,
        weighting=plan.weighting,
    )


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
    executes under the database's ``threads``/``memory_budget_bytes``
    knobs; work counters and answers are identical at any setting, so the
    comparison stays fair.  ``plan_cache`` makes the whole sweep
    persistent: with unchanged statistics a repeated comparison replays
    every winning plan with zero planning time.
    """
    baseline_measurement = measure_baseline(
        query, database, budget=budget, plan_cache=plan_cache,
    )
    report = ComparisonReport(query_name=query.name, baseline=baseline_measurement)
    # The family is built lazily, on the first k the plan cache cannot
    # serve: a fully warm sweep does zero planner setup.
    shared: List[CostPlanningFamily] = []

    def family_factory() -> CostPlanningFamily:
        if not shared:
            shared.append(
                planning_family(query, database.statistics, completion=completion)
            )
        return shared[0]

    for k in k_values:
        try:
            measurement = measure_structural(
                query, database, k, completion=completion, budget=budget,
                plan_cache=plan_cache, _family_factory=family_factory,
            )
        except PlanningError:
            continue
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
    if not report.structural:
        raise PlanningError(
            f"no structural plan could be built for {query.name} with k in {list(k_values)}"
        )
    return report
