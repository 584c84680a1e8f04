"""Parallel / memory-bounded execution-plane benchmarks.

Two interleaved measurement pairs, extending the engine trajectory of
``bench_execution_engine.py`` to the PR-4 knobs:

* ``test_yannakakis_memory_budget`` -- the fig5-scale Q1 Yannakakis
  execution, unbounded (the 64 MiB default emit chunks) vs a 256 KiB
  memory budget.  The work counters must be byte-identical (chunking only
  resizes the join's transient index arrays); recorded per mode are the
  wall seconds, the largest transient kernel batch
  (``OperatorStats.peak_transient_elements``) and the process peak RSS.
  The bounded run must cap the peak transient batch at least 4x below the
  unbounded one -- that is deterministic accounting, so it is asserted,
  while seconds are recorded for eyeballs only.
* ``test_parallel_snowflake_threads`` -- a multi-subtree data-warehouse
  snowflake query executed with 1 vs 4 threads.  Answers and counters must
  be identical.
"""

import pytest

from repro.planner.cost_k_decomp import cost_k_decomp
from repro.query.examples import q1
from repro.workloads.paper_queries import fig5_database
from repro.workloads.synthetic import snowflake_query, workload_database

#: Cached plans (planning is identical across modes and excluded from the
#: timed region) and cross-mode measurement buckets.
_PLANS = {}
_BUCKETS = {}

MEMORY_MODES = ("unbounded", "budget256k")
MEMORY_BUDGETS = {"unbounded": None, "budget256k": 256 * 1024}
THREAD_MODES = (1, 4)


def _q1_fig5_plan(k: int, scale: float):
    key = ("q1", k, scale)
    if key not in _PLANS:
        statistics = fig5_database(seed=0, scale=scale, columnar=True).statistics
        _PLANS[key] = cost_k_decomp(q1(), statistics, k, completion="fresh")
    return _PLANS[key]


def _snowflake_case():
    key = "snowflake"
    if key not in _PLANS:
        query = snowflake_query(4, 3, name="dw_snowflake")
        database = workload_database(
            query, tuples_per_relation=20_000, domain_size=400, seed=7
        )
        plan = cost_k_decomp(query, database.statistics, 2, completion="fresh")
        # One untimed warm-up run so neither thread mode pays the one-off
        # binding/decode caches in its timed region.
        plan.to_ir().execute(database, budget=50_000_000)
        _PLANS[key] = (query, database, plan)
    return _PLANS[key]


def _record_cross_mode(bucket: str, mode, snapshot) -> None:
    seen = _BUCKETS.setdefault(bucket, {})
    seen[mode] = snapshot
    return seen


@pytest.mark.parametrize("mode", MEMORY_MODES)
def test_yannakakis_memory_budget(benchmark, mode):
    """Fig5-scale Q1 Yannakakis: unbounded vs 256 KiB kernel budget."""
    scale = 0.2
    plan = _q1_fig5_plan(k=3, scale=scale)
    database = fig5_database(seed=0, scale=scale, columnar=True)
    plan_ir = plan.to_ir()
    memory_budget = MEMORY_BUDGETS[mode]

    result = benchmark.pedantic(
        lambda: plan_ir.execute(
            database, budget=50_000_000, memory_budget_bytes=memory_budget
        ),
        rounds=1,
        iterations=1,
    )

    assert result.boolean is True
    peak_transient = result.stats.peak_transient_elements
    seen = _record_cross_mode(
        "yannakakis_memory_budget",
        mode,
        {"snapshot": result.stats.snapshot(), "peak": peak_transient},
    )
    if len(seen) == len(MEMORY_MODES):
        unbounded, bounded = seen["unbounded"], seen["budget256k"]
        assert unbounded["snapshot"] == bounded["snapshot"], (
            "chunking must not change the work counters"
        )
        assert bounded["peak"] * 4 <= unbounded["peak"], (
            f"memory budget should cap peak transient allocation >=4x below "
            f"unbounded (got {unbounded['peak']:,} -> {bounded['peak']:,})"
        )


@pytest.mark.parametrize("threads", THREAD_MODES)
def test_parallel_snowflake_threads(benchmark, threads):
    """Multi-subtree snowflake execution, serial vs 4 worker threads."""
    query, database, plan = _snowflake_case()
    plan_ir = plan.to_ir()

    result = benchmark.pedantic(
        lambda: plan_ir.execute(database, budget=50_000_000, threads=threads),
        rounds=1,
        iterations=1,
    )

    assert result.boolean is True
    seen = _record_cross_mode(
        "parallel_snowflake", threads, result.stats.snapshot()
    )
    if len(seen) == len(THREAD_MODES):
        assert seen[1] == seen[4], "thread count must not change the counters"
