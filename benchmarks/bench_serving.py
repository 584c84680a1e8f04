"""Serving-plane benchmarks: sustained QPS, serial in-process vs the
multi-process worker pool.

Shape checks only -- serving performance is measured by ``bench/``
(``serve_rows``, ``serve_open``):

* ``test_sustained_qps`` -- the same warm plan-replay request batch served
  three ways: ``serial_1proc`` (the in-process oracle loop, no pool, no
  IPC), ``pool_2proc`` and ``pool_4proc`` (the :class:`ServingPool` with
  2 / 4 worker processes sharing the one stored copy via ``np.memmap``).
  Every pooled response must be byte-identical to the serial oracle's,
  every payload must replay at ``planning_seconds == 0.0``, and every
  worker must report **all** of its columns as mmap views of the store --
  shared pages, not pickled copies (asserted from the workers' own store
  reports, which also carry the catalog digest all workers must agree
  on).  Wall-clock speedup is reported, not gated: this container is
  single-CPU, so the pool pays IPC overhead without gaining cores;
  multi-core machines show the parallel effect.
* ``test_admission_under_pressure`` -- the same batch forced through a
  1-slice global memory budget: every request still completes (admission
  degrades to queuing, never to failure), responses stay byte-identical
  to the serial oracle under the same per-query budget.
* ``test_qps_under_worker_crashes`` -- the same batch served while a
  scripted :class:`~repro.db.faults.FaultPlan` kills a worker mid-request
  twice: responses stay byte-identical and the supervisor restarts both
  victims.
* ``test_daemon_qps`` -- the same batch driven through a
  :class:`~repro.db.daemon.ServingDaemon` over its Unix socket
  (``daemon_1client`` serially on one connection, ``daemon_4client``
  split across four concurrent connections): responses stay
  byte-identical over the wire.

Pooled responses carry a scheduling-dependent ``"serving"`` provenance
block (attempts/restarts); oracle comparisons strip it first.
"""

import atexit
import shutil
import tempfile
import time
from pathlib import Path

import pytest

from repro.db.database import Database
from repro.db.serving import (
    ServingPool,
    execute_payload,
    prewarm,
    strip_provenance,
)
from repro.db.storage import PlanCache
from repro.query.conjunctive import build_query
from repro.workloads.synthetic import workload_database

_SCRATCH = Path(tempfile.mkdtemp(prefix="repro-bench-serving-"))
atexit.register(shutil.rmtree, _SCRATCH, ignore_errors=True)
_STATE = {}
_BUCKETS = {}

SERVE_MODES = ("serial_1proc", "pool_2proc", "pool_4proc")
_WORKERS = {"serial_1proc": 0, "pool_2proc": 2, "pool_4proc": 4}

#: Requests per measured batch: the prewarmed query set, repeated.
_REPEAT = 8


def _serving_query():
    body = [(f"r{i}", [f"X{i}", f"X{(i + 1) % 6}"]) for i in range(6)]
    return build_query(body, output_variables=["X0", "X3"], name="cycle6")


def _setup():
    """One stored workload + twice-prewarmed payloads (the second prewarm
    replays the plan cache, so the served batch is pure plan replay)."""
    if "store" not in _STATE:
        query = _serving_query()
        database = workload_database(
            query, tuples_per_relation=400, domain_size=20, seed=13
        )
        store = _SCRATCH / "store"
        database.save(store)
        serving_db = Database.open(store)
        cache = PlanCache(_SCRATCH / "plans")
        prewarm(serving_db, [query], k_values=(2, 3), plan_cache=cache)
        payloads = prewarm(
            serving_db, [query], k_values=(2, 3), plan_cache=cache,
            answer="digest",
        )
        assert all(p["planning_seconds"] == 0.0 for p in payloads), (
            "steady-state serving must be pure plan replay"
        )
        batch = payloads * _REPEAT
        oracle = [execute_payload(p, serving_db) for p in batch]
        _STATE["store"] = (store, serving_db, batch, oracle)
    return _STATE["store"]


def _assert_mmap_shared(pool: ServingPool) -> int:
    """Every worker must hold every column as a read-only mmap view of the
    one stored copy -- the property that makes N processes ~1x memory."""
    digests = set()
    mmap_columns = 0
    for report in pool.worker_reports.values():
        digests.add(report["store_digest"])
        assert report["total_columns"] > 0
        assert report["mmap_columns"] == report["total_columns"], (
            f"worker {report['pid']} materialised "
            f"{report['total_columns'] - report['mmap_columns']} columns "
            "instead of mmap-sharing them"
        )
        mmap_columns += report["mmap_columns"]
    assert len(digests) == 1, "workers must open the identical store"
    return mmap_columns


@pytest.mark.parametrize("mode", SERVE_MODES)
def test_sustained_qps(benchmark, mode):
    """Warm plan-replay batch: in-process loop vs 2- and 4-worker pools."""
    store, serving_db, batch, oracle = _setup()
    workers = _WORKERS[mode]

    if workers == 0:
        def serve():
            return [execute_payload(payload, serving_db) for payload in batch]

        started = time.perf_counter()
        responses = benchmark.pedantic(serve, rounds=1, iterations=1)
        elapsed = time.perf_counter() - started
    else:
        with ServingPool(store, workers=workers) as pool:
            _assert_mmap_shared(pool)
            started = time.perf_counter()
            responses = benchmark.pedantic(
                lambda: pool.run(batch), rounds=1, iterations=1
            )
            elapsed = time.perf_counter() - started

    if workers:
        responses = [strip_provenance(r) for r in responses]
    assert responses == oracle, (
        f"{mode} responses must be byte-identical to the serial oracle"
    )
    qps = len(batch) / elapsed if elapsed > 0 else 0.0
    seen = _BUCKETS.setdefault("qps", {})
    seen[mode] = {"seconds": elapsed, "qps": qps}


def test_admission_under_pressure(benchmark):
    """A global budget of exactly one slice: requests serialise through
    admission (queuing, not failure) and answers stay byte-identical."""
    store, serving_db, batch, _ = _setup()
    slice_bytes = 1 << 18
    bounded = [dict(p, memory_budget_bytes=slice_bytes) for p in batch]
    oracle = [execute_payload(p, serving_db) for p in bounded]

    with ServingPool(
        store,
        workers=2,
        global_memory_budget_bytes=slice_bytes,
        default_memory_budget_bytes=slice_bytes,
    ) as pool:
        _assert_mmap_shared(pool)
        responses = benchmark.pedantic(
            lambda: pool.run(bounded), rounds=1, iterations=1
        )

    assert [strip_provenance(r) for r in responses] == oracle, (
        "budget-admitted responses must match the serial oracle under the "
        "same per-query budget"
    )


def test_qps_under_worker_crashes(benchmark):
    """The warm batch served while a scripted fault plan kills a worker
    mid-request twice: the supervisor requeues both crash-lost requests
    and respawns both victims, and responses stay byte-identical to the
    serial oracle."""
    store, serving_db, batch, oracle = _setup()
    kill_at = [len(batch) // 3, (2 * len(batch)) // 3]
    plan = [{"kind": "worker_exit", "request_index": rid} for rid in kill_at]

    with ServingPool(
        store, workers=2, max_worker_restarts=4, fault_plan=plan
    ) as pool:
        _assert_mmap_shared(pool)
        responses = benchmark.pedantic(
            lambda: pool.run(batch), rounds=1, iterations=1
        )
        restarts = pool.restarts
        degraded = pool.degraded

    assert [strip_provenance(r) for r in responses] == oracle, (
        "responses under injected worker crashes must match the serial "
        "oracle"
    )
    assert restarts >= 2, (
        f"both scripted kills must have fired and been absorbed "
        f"(restarts={restarts})"
    )
    assert degraded is None, "two restarts must fit a budget of four"


@pytest.mark.parametrize("clients", [1, 4])
def test_daemon_qps(benchmark, clients):
    """The warm batch through the socket daemon: the price of the
    length-prefixed JSON hop, serially and across concurrent clients."""
    from repro.db.daemon import DaemonClient, ServingDaemon

    store, serving_db, batch, oracle = _setup()
    sock = _SCRATCH / f"daemon-{clients}.sock"

    with ServingDaemon(store, f"unix:{sock}", workers=2) as daemon:
        if clients == 1:
            with DaemonClient(daemon.address) as client:
                responses = benchmark.pedantic(
                    lambda: [client.execute(p) for p in batch],
                    rounds=1, iterations=1,
                )
        else:
            shards = [batch[slot::clients] for slot in range(clients)]
            results = [None] * clients

            def drive(slot):
                with DaemonClient(daemon.address) as client:
                    results[slot] = [client.execute(p) for p in shards[slot]]

            def serve_concurrently():
                import threading

                threads = [
                    threading.Thread(target=drive, args=(slot,))
                    for slot in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                merged = [None] * len(batch)
                for slot, shard in enumerate(results):
                    merged[slot::clients] = shard
                return merged

            responses = benchmark.pedantic(
                serve_concurrently, rounds=1, iterations=1
            )
        # One thread counts a reply and then queues it, and answers health
        # too: whoever has read its response sees the counter.
        with DaemonClient(daemon.address) as client:
            health = client.health()
        assert health["counters"]["requests_served"] >= len(batch)

    assert [strip_provenance(r) for r in responses] == oracle, (
        "daemon responses must be byte-identical to the serial oracle"
    )
    assert health["restarts"] == 0
