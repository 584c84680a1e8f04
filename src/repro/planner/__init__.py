"""Query planning: cost-k-decomp, the left-deep baseline and the comparison harness."""

from repro.planner.plans import HypertreePlan, JoinOrderPlan
from repro.planner.cost_k_decomp import best_plan_over_k, cost_k_decomp
from repro.planner.baseline import SystemROptimizer, baseline_plan
from repro.planner.compare import (
    ComparisonReport,
    PlanMeasurement,
    compare_planners,
    measure_baseline,
)

__all__ = [
    "HypertreePlan",
    "JoinOrderPlan",
    "best_plan_over_k",
    "cost_k_decomp",
    "SystemROptimizer",
    "baseline_plan",
    "ComparisonReport",
    "PlanMeasurement",
    "compare_planners",
    "measure_baseline",
]
