#!/usr/bin/env python3
"""Chaos smoke: the serving daemon end to end, under injected faults.

Generates a small workload, stores it, then runs the real thing -- the
``repro db daemon`` CLI in a subprocess -- and throws the fault matrix at
it over its Unix socket:

* a scripted *worker kill* (``REPRO_SERVE_FAULTS``, picked up by the
  daemon's pool from the environment) fires on the first attempt of the
  victim request, forcing a supervised respawn;
* the victim client *hard-disconnects* mid-request (full frame written,
  then ``SO_LINGER`` close), so the daemon must abandon the in-flight
  request and release its admission slice;
* three concurrent healthy clients keep executing throughout -- every
  one of their responses must stay byte-identical to the serial
  in-process oracle;
* a ``health`` probe must report the restart and the abandoned request;
* a ``metrics`` probe must report latency quantiles and the pool's
  counters for the served batch;
* finally SIGTERM: the daemon must drain, exit 0, unlink its socket,
  leave no orphan worker processes, and export its ``--trace-out`` file
  as valid Chrome trace-event JSON carrying admission / queue / attempt
  spans for the traced requests.

CI wraps this in a hard timeout so a hung drain fails the job fast.
Run with::

    python examples/daemon_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.db.daemon import DaemonClient, DaemonDisconnected
from repro.db.database import Database
from repro.db.faults import FAULTS_ENV, FaultPlan
from repro.db.serving import execute_payload, strip_provenance
from repro.obs.export import validate_chrome_trace
from repro.query.conjunctive import build_query
from repro.workloads.synthetic import workload_database

#: Both seams of the fault plan: the daemon's pool kills the worker
#: serving request 1 -- the victim's execute; request 0 is the daemon's
#: start-up plan of its query set -- (first attempt only: the retry must
#: survive), and the client seam hard-disconnects connection 7 after
#: writing its first request in full.
DEFAULT_PLAN = [
    {"kind": "worker_exit", "request_index": 1, "attempt": 1},
    {"kind": "client_disconnect", "connection_id": 7, "request_index": 0},
]

VICTIM_CONNECTION_ID = 7


def main() -> None:
    os.environ.setdefault(FAULTS_ENV, json.dumps(DEFAULT_PLAN))
    plan = FaultPlan.from_env()
    print(f"fault plan ({FAULTS_ENV}): {os.environ[FAULTS_ENV]}")

    query = build_query(
        [(f"r{i}", [f"X{i}", f"X{(i + 1) % 5}"]) for i in range(5)],
        output_variables=["X0", "X2"],
        name="cycle5",
    )
    scratch = Path(tempfile.mkdtemp(prefix="repro-daemon-smoke-"))
    store = scratch / "store"
    workload_database(
        query, tuples_per_relation=150, domain_size=12, seed=9
    ).save(store)
    address = f"unix:{scratch / 'daemon.sock'}"
    trace_out = scratch / "trace.json"

    # The real CLI daemon in a subprocess: SIGTERM drain, orphan checks
    # and the environment fault wiring are all exercised for real.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "db", "daemon", str(store),
            "--address", address, "--workers", "2",
            "--query", "ans(X0,X2) :- r0(X0,X1), r1(X1,X2), r2(X2,X3), "
            "r3(X3,X4), r4(X4,X0).",
            "--max-worker-restarts", "4",
            "--trace-out", str(trace_out),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    try:
        ready = daemon.stdout.readline()
        assert "listening" in ready, f"daemon failed to start: {ready!r}"
        print(ready.rstrip())

        # The daemon prewarmed this payload set; the oracle runs locally.
        with DaemonClient(address) as probe:
            payloads = probe.plans()["payloads"]
        assert payloads, "daemon was started with a query set"
        serving_db = Database.open(store)
        oracle = {
            i: execute_payload(p, serving_db) for i, p in enumerate(payloads)
        }

        # Chaos: the victim's first (and only) request triggers both the
        # worker kill and the mid-request disconnect.
        victim = DaemonClient(
            address, connection_id=VICTIM_CONNECTION_ID, fault_plan=plan
        )
        try:
            victim.execute(dict(payloads[0]))
        except DaemonDisconnected as exc:
            print(f"victim: {exc}")
        else:
            raise AssertionError("the scripted disconnect did not fire")
        finally:
            victim.close()

        # Three healthy clients serve concurrently through the chaos.
        failures = []
        def drive(slot: int) -> None:
            try:
                with DaemonClient(address) as client:
                    for i in range(4):
                        payload = dict(payloads[i % len(payloads)])
                        response = client.execute(payload)
                        if strip_provenance(response) != oracle[i % len(payloads)]:
                            failures.append(f"client {slot} request {i} diverged")
            except Exception as exc:  # noqa: BLE001 - smoke must report
                failures.append(f"client {slot}: {exc!r}")

        threads = [
            threading.Thread(target=drive, args=(slot,)) for slot in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures
        print("3 healthy clients x 4 requests: all byte-identical to the oracle")

        # The injected chaos must be visible in the daemon's own health.
        deadline = time.monotonic() + 30.0
        while True:
            with DaemonClient(address) as client:
                health = client.health()
            if (
                health["restarts"] >= 1
                and health["counters"]["abandoned_requests"] >= 1
            ):
                break
            assert time.monotonic() < deadline, (
                f"chaos not reflected in health: {health}"
            )
            time.sleep(0.2)
        worker_pids = health["worker_pids"]
        print(
            f"health: status {health['status']}, "
            f"restarts {health['restarts']}, "
            f"abandoned {health['counters']['abandoned_requests']}, "
            f"dropped {health['counters']['connections_dropped']}, "
            f"queue depth {health['queue_depth']}, "
            f"{health['inflight']} in flight"
        )

        # The metrics request kind: latency quantiles over the batch the
        # healthy clients just served, plus the pool's own counters.
        with DaemonClient(address) as client:
            metrics = client.metrics()
        assert metrics["latency"]["count"] >= 12, metrics["latency"]
        assert metrics["metrics"]["counters"]["requests_admitted"] >= 12
        assert metrics["metrics"]["counters"]["worker_restarts"] >= 1
        print(
            f"metrics: {metrics['latency']['count']} requests, "
            f"p50 {metrics['latency']['p50'] * 1000:.2f}ms, "
            f"p99 {metrics['latency']['p99'] * 1000:.2f}ms, "
            f"{metrics['metrics']['counters']['requests_admitted']} admitted"
        )

        # SIGTERM: drain-then-exit, no orphans, no socket litter.
        daemon.send_signal(signal.SIGTERM)
        code = daemon.wait(timeout=60)
        assert code == 0, f"daemon exited {code} instead of draining cleanly"
        for pid in worker_pids:
            try:
                os.kill(pid, 0)
            except OSError:
                continue
            raise AssertionError(f"orphan worker process {pid} survived the drain")
        assert not (scratch / "daemon.sock").exists(), "socket file leaked"
        print(daemon.stdout.read().rstrip())

        # The drain must have exported a *valid* Chrome trace: parseable,
        # and carrying the serving-plane spans for the traced requests.
        assert trace_out.exists(), "--trace-out file was not written"
        events = validate_chrome_trace(trace_out.read_text())
        names = {event["name"] for event in events}
        assert {"admission", "queue", "attempt"} <= names, sorted(names)
        print(
            f"trace: {len(events)} events in {trace_out.name} validate as "
            "Chrome trace-event JSON (admission/queue/attempt spans present)"
        )
        print(
            "daemon smoke OK: worker kill supervised, disconnect abandoned, "
            "oracle intact, metrics/trace exported, SIGTERM drained to "
            "exit 0 with no orphans"
        )
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10)


if __name__ == "__main__":
    main()
