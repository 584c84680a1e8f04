"""Observability as a write-only sidecar: tracing off vs metrics-only vs full
spans.

Two scenarios, both asserting the write-only-sidecar contract twice over:

* ``test_q1_execution_trace_overhead`` -- the fig5-scale Q1 hypertree plan
  executed with no recorder vs a live :class:`TraceRecorder` (full
  per-operator span recording).  Answers and ``OperatorStats`` must stay
  byte-identical, and spans must actually be recorded.
* ``test_pool_batch_observability_overhead`` -- a 16-request batch through
  a 2-worker :class:`ServingPool` at three observability levels:
  everything off (``metrics=False``), metrics-only (the default registry),
  and full span recording (``trace=`` recorder, which also makes workers
  record and ship kernel spans).  Responses must match the serial oracle
  at every level, and the pool-side spans must be present.

These are contract checks, not an overhead measurement: the traced runs of
``bench/run.py`` are the instrument for tracing overhead.
"""

from __future__ import annotations

import atexit
import shutil
import tempfile
from pathlib import Path

from repro.db.database import Database
from repro.db.serving import (
    ServingPool,
    execute_payload,
    prewarm,
    strip_provenance,
)
from repro.obs.trace import TraceRecorder
from repro.planner.cost_k_decomp import cost_k_decomp
from repro.query.examples import q1
from repro.workloads.paper_queries import fig5_database

_SCRATCH = Path(tempfile.mkdtemp(prefix="repro-bench-obs-"))
atexit.register(shutil.rmtree, _SCRATCH, ignore_errors=True)
_STATE = {}

#: Executor scenario: repetitions per measurement (amortises fixed costs).
_EXEC_REPEATS = 3
#: Pool scenario: requests per batch.
_POOL_REQUESTS = 16


def _q1_setup():
    if "q1" not in _STATE:
        database = fig5_database(seed=0, scale=0.2, columnar=True)
        plan = cost_k_decomp(q1(), database.statistics, 3, completion="fresh")
        _STATE["q1"] = (database, plan)
    return _STATE["q1"]


def _pool_setup():
    if "pool" not in _STATE:
        query = q1()
        database = fig5_database(seed=0, scale=0.2, columnar=True)
        store = _SCRATCH / "store"
        database.save(store)
        serving_db = Database.open(store)
        payloads = prewarm(serving_db, [query], k_values=(3,))
        batch = (payloads * _POOL_REQUESTS)[:_POOL_REQUESTS]
        oracle = [
            strip_provenance(execute_payload(payload, serving_db))
            for payload in batch
        ]
        _STATE["pool"] = (store, batch, oracle)
    return _STATE["pool"]


def test_q1_execution_trace_overhead(benchmark):
    """Full span recording on the Q1 hypertree plan: identical results."""
    database, plan = _q1_setup()
    ir = plan.to_ir()
    knobs = dict(budget=20_000_000)

    def run_off():
        return [ir.execute(database, **knobs) for _ in range(_EXEC_REPEATS)]

    off_results = benchmark.pedantic(run_off, rounds=1, iterations=1)

    recorder = TraceRecorder()
    traced_results = [
        ir.execute(database, trace=recorder, trace_id=f"req-{i}", **knobs)
        for i in range(_EXEC_REPEATS)
    ]

    for off, traced in zip(off_results, traced_results):
        assert traced.boolean == off.boolean
        if off.relation is not None:
            assert traced.relation.rows == off.relation.rows
        assert traced.stats.snapshot() == off.stats.snapshot()
    spans_per_run = len(recorder) / _EXEC_REPEATS
    assert spans_per_run >= 1, "tracing must actually record spans"


def test_pool_batch_observability_overhead(benchmark):
    """16 requests through a 2-worker pool at three observability levels;
    every level byte-identical to the serial oracle."""
    store, batch, oracle = _pool_setup()

    def run_pool(**options):
        with ServingPool(store, workers=2, **options) as pool:
            responses = pool.run(batch)
        assert [strip_provenance(r) for r in responses] == oracle
        return responses

    benchmark.pedantic(lambda: run_pool(metrics=False), rounds=1, iterations=1)
    run_pool()  # default: live metrics, no tracing
    recorder = TraceRecorder()
    traced_responses = run_pool(trace=recorder)

    assert all("trace" in r for r in traced_responses)
    span_names = {s.name for s in recorder.spans()}
    assert {"admission", "queue", "attempt", "execute"} <= span_names
