"""Storage-plane benchmarks: cold generation vs warm mmap open vs plan cache.

Two interleaved measurement groups -- shape checks only; storage
performance is measured by ``bench/``:

* ``test_cold_generate_vs_warm_open`` -- the full Fig. 5 profile
  (``scale=1.0``, the paper's published cardinalities, ~31k tuples over 9
  relations).  ``cold_generate`` is generation plus dictionary interning,
  exactly what every experiment sweep used to pay; ``warm_open`` reopens
  the saved directory, i.e. a JSON catalog read plus one ``np.memmap``
  per column.  The warm open must be at least 5x faster (asserted -- the
  observed margin is ~20x), and both databases must behave
  byte-identically: same decoded rows and, running the Q1 structural plan
  under a tight evaluation budget, the *exact same* budget-abort point
  (the columnar join computes its would-be emit count before
  materialising, so ``work_so_far`` at the abort is a precise engine
  fingerprint at a fraction of a full run's cost).
* ``test_plan_cache_cold_vs_warm`` -- a Q1 k-sweep through
  ``compare_planners`` with a persistent :class:`PlanCache` (on the
  scaled Fig. 5 database the other benches use): the cold run plans and
  stores, the warm run replays every winning plan and must report
  ``planning_seconds == 0.0`` for baseline and every ``k`` (the cache
  hit skips planning entirely).
* ``test_budgeted_execution_below_raw_footprint`` -- the scaled Fig. 5
  Q1 structural plan run to completion under a ``memory_budget_bytes``
  an order of magnitude *smaller than the raw int64 column footprint*
  (``CatalogStatistics.estimated_raw_bytes``): the budget sizes the
  join's emit chunks, which bound the output-sized transients, and the
  answer, row order and work counters stay byte-identical to the run
  under the default budget.
"""

import atexit
import shutil
import tempfile
import time
from pathlib import Path

import pytest

from repro.db.algebra import EvaluationBudgetExceeded
from repro.db.executor import execute_plan
from repro.db.generator import database_from_statistics
from repro.db.storage import PlanCache, open_database, save_database
from repro.planner.compare import compare_planners
from repro.planner.cost_k_decomp import cost_k_decomp
from repro.query.examples import q1
from repro.workloads.paper_queries import fig5_database, fig5_statistics

_SCRATCH = Path(tempfile.mkdtemp(prefix="repro-bench-storage-"))
atexit.register(shutil.rmtree, _SCRATCH, ignore_errors=True)
_STATE = {}
_BUCKETS = {}

OPEN_MODES = ("cold_generate", "warm_open")
PLAN_MODES = ("plan_cold", "plan_warm")

#: Tight budget for the abort-point fingerprint: reached long before the
#: ~51M-tuple full evaluation, but only after every relation has been
#: scanned and several joins have probed.
_ABORT_BUDGET = 2_000_000


def _generate_full_scale():
    return database_from_statistics(q1(), fig5_statistics(), seed=0, scale=1.0)


def _fig5_stored():
    """One cold-generated, saved copy of the full-scale Fig. 5 database
    plus the Q1 k=3 plan (untimed shared setup)."""
    if "fig5" not in _STATE:
        database = _generate_full_scale()
        save_database(database, _SCRATCH / "fig5-packed")
        plan = cost_k_decomp(q1(), database.statistics, 3, completion="fresh")
        _STATE["fig5"] = (database, plan)
    return _STATE["fig5"]


def _execution_fingerprint(plan, database):
    """``work_so_far`` at the budget abort -- byte-identical engines abort
    at the identical point with the identical counter."""
    try:
        execute_plan(plan.to_ir(), database, budget=_ABORT_BUDGET)
    except EvaluationBudgetExceeded as exc:
        return exc.work_so_far
    return -1  # full completion (would mean the budget was set too high)


@pytest.mark.parametrize("mode", OPEN_MODES)
def test_cold_generate_vs_warm_open(benchmark, mode):
    """Fig. 5 profile at scale 1.0: generation+interning vs mmap reopen."""
    _, plan = _fig5_stored()

    if mode == "cold_generate":
        action = _generate_full_scale
    else:
        action = lambda: open_database(_SCRATCH / "fig5-packed")

    started = time.perf_counter()
    database = benchmark.pedantic(action, rounds=1, iterations=1)
    open_seconds = time.perf_counter() - started

    seen = _BUCKETS.setdefault("open", {})
    seen[mode] = {
        "seconds": open_seconds,
        "rows": {
            name: database.relation(name).rows
            for name in database.relation_names()
        },
        "statistics": database.statistics.to_payload(),
        "abort_work": _execution_fingerprint(plan, database),
    }
    if len(seen) == len(OPEN_MODES):
        cold, warm = seen["cold_generate"], seen["warm_open"]
        assert cold["rows"] == warm["rows"], (
            "a reopened database must decode to identical rows in order"
        )
        assert cold["statistics"] == warm["statistics"]
        assert cold["abort_work"] == warm["abort_work"], (
            "both databases must reach the identical budget-abort point"
        )
        assert cold["seconds"] >= 5 * warm["seconds"], (
            f"warm open should be at least 5x faster than cold generation "
            f"({cold['seconds']:.4f}s vs {warm['seconds']:.4f}s)"
        )


@pytest.mark.parametrize("mode", PLAN_MODES)
def test_plan_cache_cold_vs_warm(benchmark, mode):
    """Scaled Fig. 5 Q1 k-sweep with a persistent plan cache: plan+store,
    then replay with zero planning time."""
    if "plan_db" not in _STATE:
        _STATE["plan_db"] = fig5_database(seed=0, scale=0.2)
    database = _STATE["plan_db"]
    cache = _STATE.setdefault("plan_cache", PlanCache(_SCRATCH / "plans"))
    query = q1()

    report = benchmark.pedantic(
        lambda: compare_planners(
            query,
            database,
            k_values=(2, 3),
            budget=20_000_000,
            plan_cache=cache,
        ),
        rounds=1,
        iterations=1,
    )

    planning_seconds = report.baseline.planning_seconds + sum(
        m.planning_seconds for m in report.structural.values()
    )
    seen = _BUCKETS.setdefault("plan", {})
    seen[mode] = {
        "work": {k: m.evaluation_work for k, m in report.structural.items()},
        "planning_seconds": planning_seconds,
    }
    if mode == "plan_warm":
        assert report.baseline.planning_seconds == 0.0
        for k, measurement in report.structural.items():
            assert measurement.planning_seconds == 0.0, (
                f"plan-cache hit must skip planning entirely (k={k})"
            )
    if len(seen) == len(PLAN_MODES):
        assert seen["plan_cold"]["work"] == seen["plan_warm"]["work"], (
            "replayed plans must do identical evaluation work"
        )
        assert (
            seen["plan_warm"]["planning_seconds"]
            < seen["plan_cold"]["planning_seconds"]
        )


def test_budgeted_execution_below_raw_footprint(benchmark):
    """Scaled Fig. 5 Q1 runs to completion under a memory budget an order
    of magnitude smaller than the raw int64 column footprint, with the
    answer and every work counter byte-identical to the unbudgeted run."""
    if "plan_db" not in _STATE:
        _STATE["plan_db"] = fig5_database(seed=0, scale=0.2)
    database = _STATE["plan_db"]
    raw_footprint = database.statistics.estimated_raw_bytes()
    budget_bytes = raw_footprint // 8
    assert budget_bytes < raw_footprint
    plan = cost_k_decomp(q1(), database.statistics, 3, completion="fresh")
    oracle = execute_plan(plan.to_ir(), database)

    bounded = benchmark.pedantic(
        lambda: execute_plan(
            plan.to_ir(), database, memory_budget_bytes=budget_bytes
        ),
        rounds=1,
        iterations=1,
    )

    assert bounded.cardinality == oracle.cardinality
    assert bounded.boolean == oracle.boolean
    if oracle.relation is not None:
        assert bounded.relation.rows == oracle.relation.rows
    assert bounded.stats.snapshot() == oracle.stats.snapshot()
    assert (
        bounded.stats.peak_transient_elements
        <= oracle.stats.peak_transient_elements
    )
    if oracle.stats.peak_transient_elements > budget_bytes // 8:
        # The unbudgeted transients would not have fit: the emit chunks
        # must actually have shrunk them.
        assert (
            bounded.stats.peak_transient_elements
            < oracle.stats.peak_transient_elements
        )
