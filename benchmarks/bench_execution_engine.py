"""Execution-engine benchmarks: row engine vs columnar engine.

Each test
runs twice -- once on the row-based reference engine, once on the columnar
engine -- over *identical* data (same random stream), so every benchmark
session records an interleaved before/after pair:

* ``test_yannakakis_fig5_q1`` -- a fixed cost-3-decomp plan for Q1 over a
  Fig. 5-profile database, executed end to end (per-node expressions, both
  Yannakakis passes); planning is cached outside the timed region.
* ``test_fig8a_compare_sweep`` -- the full Fig. 8(A)-style planner
  comparison (baseline left-deep plan plus cost-k-decomp for k = 2..4),
  planned and executed.

Both also assert that the ``OperatorStats`` work counters are identical
across engines -- "evaluation work" is representation-blind, only the
seconds move.
"""

import pytest

from repro.planner.compare import compare_planners
from repro.planner.cost_k_decomp import cost_k_decomp
from repro.query.examples import q1
from repro.workloads.paper_queries import fig5_database, fig8_database

#: Cached plans (planning is identical for both engines and excluded from
#: the Yannakakis timing) and cross-engine stats snapshots.
_PLANS = {}
_SNAPSHOTS = {}

ENGINES = ("rows", "columnar")


def _q1_fig5_plan(k: int, scale: float):
    key = (k, scale)
    if key not in _PLANS:
        statistics = fig5_database(seed=0, scale=scale, columnar=True).statistics
        _PLANS[key] = cost_k_decomp(q1(), statistics, k, completion="fresh")
    return _PLANS[key]


def _assert_cross_engine(bucket: str, engine: str, snapshot):
    """Record this engine's counters; once both engines ran, they must be
    byte-identical."""
    seen = _SNAPSHOTS.setdefault(bucket, {})
    seen[engine] = snapshot
    if len(seen) == len(ENGINES):
        assert seen["rows"] == seen["columnar"], (
            f"{bucket}: work counters differ between engines"
        )


@pytest.mark.parametrize("engine", ENGINES)
def test_yannakakis_fig5_q1(benchmark, engine):
    """Yannakakis execution of a fixed Q1 hypertree plan, Fig. 5 profile."""
    scale = 0.2
    columnar = engine == "columnar"
    plan = _q1_fig5_plan(k=3, scale=scale)
    database = fig5_database(seed=0, scale=scale, columnar=columnar)
    plan_ir = plan.to_ir()

    result = benchmark.pedantic(
        lambda: plan_ir.execute(database, budget=50_000_000),
        rounds=1,
        iterations=1,
    )

    assert result.boolean is True
    snapshot = result.stats.snapshot()
    _assert_cross_engine("yannakakis_fig5_q1", engine, snapshot)


@pytest.mark.parametrize("engine", ENGINES)
def test_fig8a_compare_sweep(benchmark, engine):
    """Baseline vs cost-k-decomp (k = 2..4) for Q1: plan and execute both
    plan shapes on one engine."""
    columnar = engine == "columnar"
    database = fig8_database(
        q1(), tuples_per_relation=600, seed=3, columnar=columnar
    )

    report = benchmark.pedantic(
        lambda: compare_planners(
            q1(), database, k_values=(2, 3, 4), budget=20_000_000
        ),
        rounds=1,
        iterations=1,
    )

    assert not report.baseline.budget_exceeded
    assert len(report.structural) == 3
    works = {"baseline": report.baseline.evaluation_work}
    for k, measurement in report.structural.items():
        assert not measurement.budget_exceeded
        assert measurement.answer_cardinality == report.baseline.answer_cardinality
        works[f"k={k}"] = measurement.evaluation_work
    _assert_cross_engine("fig8a_compare_sweep", engine, works)
