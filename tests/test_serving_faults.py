"""Fault-tolerance tests for the serving plane, driven by the
deterministic fault-injection harness (:mod:`repro.db.faults`).

The headline contracts (the acceptance criteria of the fault-tolerant
serving plane), both pinned by Hypothesis over the position of the
injected kill:

* **supervision** -- with a fault plan that kills one worker mid-request,
  ``ServingPool.run()`` returns responses byte-identical (answers, row
  order, ``OperatorStats`` counters) to the serial
  :func:`~repro.db.serving.execute_payload` oracle, with ``restarts >= 1``
  reported in the provenance block;
* **graceful degradation** -- with the restart budget exhausted, ``run()``
  returns partial results with per-request ``"error"`` records instead of
  raising away completed work.

Around those: the :class:`~repro.db.faults.FaultPlan` wire format and
matching rules, ``REPRO_SERVE_FAULTS`` environment wiring (inline JSON
and file path), injected-raise isolation, per-request deadlines with
retry (a delayed attempt is written off, retried on another worker, and
the late response drained -- never misdelivered), attempt-budget
exhaustion as a ``"timeout": true`` error record, the
``collect(timeout=)`` poisoning fix (an expired request releases its
admission slice), a genuine ``SIGKILL`` mid-request, and a ``SIGINT``
that every worker ignores.  The CI matrix re-runs this module under
``REPRO_SERVE_MP_CONTEXT=spawn``.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

np = pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db.database import Database
from repro.db.faults import (
    FAULTS_ENV,
    FaultInjected,
    FaultPlan,
    FaultRule,
    resolve_fault_plan,
)
from repro.db.lifecycle import MAX_BACKOFF_SECONDS, RequestLifecycle
from repro.db.serving import (
    ServingError,
    ServingPool,
    execute_payload,
    query_to_payload,
    strip_provenance,
)
from repro.exceptions import DatabaseError
from repro.obs.metrics import MetricsRegistry
from repro.query.conjunctive import build_query
from repro.workloads.synthetic import workload_database

ATOMS = ["r0", "r1", "r2", "r3", "r4"]


def _query():
    body = [(f"r{i}", [f"X{i}", f"X{(i + 1) % 5}"]) for i in range(5)]
    return build_query(body, output_variables=["X0", "X2"], name="cycle_out")


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    target = tmp_path_factory.mktemp("serving-faults") / "store"
    database = workload_database(
        _query(), tuples_per_relation=60, domain_size=10, seed=3
    )
    database.save(target)
    return target


@pytest.fixture(scope="module")
def serial_db(store):
    return Database.open(store)


def _payload(**knobs):
    base = {
        "format": "repro-serving",
        "version": 1,
        "query": query_to_payload(_query()),
        "plan": {"kind": "join_order", "order": list(ATOMS)},
        "answer": knobs.pop("answer", "rows"),
        "planning_seconds": 0.0,
    }
    base.update({k: v for k, v in knobs.items() if v is not None})
    return base


class TestFaultPlanWireFormat:
    def test_from_payload_list_and_mapping(self):
        rules = [{"kind": "worker_exit", "request_index": 3, "worker_id": 1}]
        for payload in (rules, {"faults": rules}):
            plan = FaultPlan.from_payload(payload)
            assert len(plan) == 1
            assert plan.rules[0].kind == "worker_exit"
            assert plan.rules[0].request_id == 3
            assert plan.rules[0].worker_id == 1

    def test_request_index_is_an_alias_for_request_id(self):
        by_index = FaultPlan.from_payload([{"kind": "raise", "request_index": 2}])
        by_id = FaultPlan.from_payload([{"kind": "raise", "request_id": 2}])
        assert by_index.rules[0].request_id == by_id.rules[0].request_id == 2
        with pytest.raises(DatabaseError, match="synonyms"):
            FaultRule.from_payload(
                {"kind": "raise", "request_id": 1, "request_index": 2}
            )

    def test_malformed_rules_raise(self):
        with pytest.raises(DatabaseError, match="unknown fault kind"):
            FaultRule.from_payload({"kind": "explode"})
        with pytest.raises(DatabaseError, match="unknown fault rule fields"):
            FaultRule.from_payload({"kind": "raise", "reqest_id": 1})
        with pytest.raises(DatabaseError, match="must be an integer"):
            FaultRule.from_payload({"kind": "raise", "request_id": "three"})
        with pytest.raises(DatabaseError, match=">= 1"):
            FaultRule.from_payload({"kind": "raise", "times": 0})
        with pytest.raises(DatabaseError, match="'seconds' must be a number"):
            FaultRule.from_payload({"kind": "delay", "seconds": "soon"})
        with pytest.raises(DatabaseError, match="list of rules"):
            FaultPlan.from_payload("kill worker 1")

    def test_payload_roundtrip(self):
        plan = FaultPlan.from_payload(
            [
                {"kind": "worker_exit", "request_index": 4, "exit_code": 7},
                {"kind": "delay", "seconds": 0.5, "attempt": None, "times": 3},
                {"kind": "raise", "worker_id": 0},
            ]
        )
        rebuilt = FaultPlan.from_payload(json.loads(json.dumps(plan.to_payload())))
        assert rebuilt.to_payload() == plan.to_payload()

    def test_matching_rules(self):
        rule = FaultRule.from_payload(
            {"kind": "raise", "request_id": 2, "worker_id": 1}
        )
        assert rule.matches(worker_id=1, request_id=2, attempt=1)
        assert not rule.matches(worker_id=0, request_id=2, attempt=1)
        assert not rule.matches(worker_id=1, request_id=3, attempt=1)
        # Attempt defaults to 1: a retried request must not re-fire the rule.
        assert not rule.matches(worker_id=1, request_id=2, attempt=2)
        any_attempt = FaultRule.from_payload({"kind": "raise", "attempt": None})
        assert any_attempt.matches(worker_id=9, request_id=9, attempt=5)

    def test_times_bounds_firing(self):
        plan = FaultPlan.from_payload(
            [{"kind": "delay", "seconds": 0.0, "attempt": None, "times": 2}]
        )
        for _ in range(5):  # fires twice, then exhausted -- never raises
            plan.apply(worker_id=0, request_id=0, attempt=1)
        assert plan.rules[0].remaining == 0

    def test_apply_raises_fault_injected(self):
        plan = FaultPlan.from_payload([{"kind": "raise", "request_id": 1}])
        plan.apply(worker_id=0, request_id=0, attempt=1)  # no match: no-op
        with pytest.raises(FaultInjected, match="request 1"):
            plan.apply(worker_id=0, request_id=1, attempt=1)


class TestFaultPlanEnvWiring:
    def test_unset_env_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert FaultPlan.from_env() is None
        assert resolve_fault_plan(None) is None

    def test_inline_json(self, monkeypatch):
        monkeypatch.setenv(
            FAULTS_ENV, '[{"kind": "worker_exit", "request_index": 2}]'
        )
        plan = FaultPlan.from_env()
        assert len(plan) == 1 and plan.rules[0].kind == "worker_exit"

    def test_json_file_path(self, monkeypatch, tmp_path):
        plan_file = tmp_path / "faults.json"
        plan_file.write_text(json.dumps({"faults": [{"kind": "raise"}]}))
        monkeypatch.setenv(FAULTS_ENV, str(plan_file))
        plan = FaultPlan.from_env()
        assert len(plan) == 1 and plan.rules[0].kind == "raise"

    def test_malformed_env_raises_loudly(self, monkeypatch, tmp_path):
        # A scripted plan that silently fails to load would make a chaos
        # test pass vacuously.
        monkeypatch.setenv(FAULTS_ENV, "[not json")
        with pytest.raises(DatabaseError, match="valid JSON"):
            FaultPlan.from_env()
        monkeypatch.setenv(FAULTS_ENV, str(tmp_path / "missing.json"))
        with pytest.raises(DatabaseError, match="unreadable"):
            FaultPlan.from_env()

    def test_resolve_passes_plans_and_payloads_through(self):
        plan = FaultPlan.from_payload([{"kind": "raise"}])
        assert resolve_fault_plan(plan) is plan
        assert len(resolve_fault_plan([{"kind": "raise"}])) == 1


class TestSupervisorRestart:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        kill_at=st.lists(
            st.integers(min_value=0, max_value=5), min_size=1, max_size=2,
            unique=True,
        )
    )
    def test_killed_worker_is_transparent_to_the_batch(
        self, store, serial_db, kill_at
    ):
        """Acceptance: one or two mid-request worker kills anywhere in the
        batch are absorbed by the supervisor -- responses stay
        byte-identical to the serial oracle and every restart is
        reported."""
        payloads = [_payload() for _ in range(6)]
        oracle = [execute_payload(p, serial_db) for p in payloads]
        with ServingPool(
            store,
            workers=2,
            max_worker_restarts=3,
            fault_plan=[
                {"kind": "worker_exit", "request_index": index} for index in kill_at
            ],
        ) as pool:
            responses = pool.run(payloads)
            restarts = pool.restarts
            assert pool.degraded is None
        assert [strip_provenance(r) for r in responses] == oracle
        assert restarts >= len(kill_at)
        provenance = [r["serving"] for r in responses]
        for index in kill_at:
            assert provenance[index]["attempts"] == 2  # crash-lost, retried
        assert all(p["restarts"] >= 1 for p in provenance if p["attempts"] > 1)

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(kill_at=st.integers(min_value=0, max_value=4))
    def test_restart_exhaustion_yields_partial_results(
        self, store, serial_db, kill_at
    ):
        """Acceptance: with no restart budget, completed responses survive
        the death -- run() reports per-request error records for the rest
        instead of raising."""
        payloads = [_payload() for _ in range(5)]
        oracle = [execute_payload(p, serial_db) for p in payloads]
        with ServingPool(
            store,
            workers=1,
            max_worker_restarts=0,
            fault_plan=[{"kind": "worker_exit", "request_index": kill_at}],
        ) as pool:
            responses = pool.run(payloads)
            assert pool.degraded is not None
            assert "restart budget" in pool.degraded
            assert pool.restarts == 0
        assert len(responses) == len(payloads)
        # One worker serves in submission order: everything before the
        # kill completed and must be byte-identical; everything from the
        # kill on is an error record, never a lost response.
        for index, response in enumerate(responses):
            if index < kill_at:
                assert strip_provenance(response) == oracle[index]
            else:
                assert response["status"] == "error"

    def test_replacement_worker_reports_fresh_hello(self, store, serial_db):
        payload = _payload()
        oracle = execute_payload(payload, serial_db)
        with ServingPool(
            store,
            workers=1,
            max_worker_restarts=1,
            fault_plan=[{"kind": "worker_exit", "request_index": 0}],
        ) as pool:
            first = pool.worker_reports[0]
            # Every column is an mmap view of the one stored copy.
            assert first["mmap_columns"] == first["total_columns"] > 0
            response = pool.collect(pool.submit(payload), timeout=60.0)
            # The respawned worker re-ran the startup hello: new process,
            # same store digest (re-validated by the supervisor), and it
            # maps the store again instead of copying it.
            again = pool.worker_reports[0]
            assert again["pid"] != first["pid"]
            assert again["store_digest"] == first["store_digest"]
            assert again["mmap_columns"] == first["total_columns"]
        assert strip_provenance(response) == oracle
        assert response["serving"] == {"attempts": 2, "restarts": 1}

    def test_sigkill_mid_request_is_absorbed(self, store, serial_db):
        """Satellite: a genuine SIGKILL (not a scripted exit) mid-request
        is requeued and retried by the supervisor."""
        payload = _payload()
        oracle = execute_payload(payload, serial_db)
        with ServingPool(
            store,
            workers=1,
            max_worker_restarts=2,
            # The delay holds the request in-flight long enough to land
            # the signal deterministically mid-execution.
            fault_plan=[{"kind": "delay", "seconds": 5.0, "request_id": 0}],
        ) as pool:
            victim = pool.worker_reports[0]["pid"]
            request = pool.submit(payload)
            time.sleep(0.3)
            os.kill(victim, signal.SIGKILL)
            response = pool.collect(request, timeout=60.0)
            assert pool.restarts == 1
        assert strip_provenance(response) == oracle
        assert response["serving"]["attempts"] == 2

    def test_env_wired_fault_plan_reaches_workers(self, store, serial_db, monkeypatch):
        monkeypatch.setenv(
            FAULTS_ENV, json.dumps([{"kind": "worker_exit", "request_index": 1}])
        )
        payloads = [_payload() for _ in range(3)]
        oracle = [execute_payload(p, serial_db) for p in payloads]
        with ServingPool(store, workers=2, max_worker_restarts=2) as pool:
            responses = pool.run(payloads)
            assert pool.restarts >= 1
        assert [strip_provenance(r) for r in responses] == oracle

    def test_death_is_seen_where_sigchld_is_ignored(self, store, serial_db):
        """A process that inherits an ignored SIGCHLD has its children
        reaped by the kernel, so ``waitpid`` fails and ``is_alive()`` calls
        a dead worker alive.  The pool reads deaths from the process
        sentinel instead: the crash-lost request is retried and answered
        like the oracle.  Runs in a subprocess (the disposition is
        process-wide) under a time limit, so a regression fails instead
        of hanging the suite."""
        payloads = [_payload() for _ in range(3)]
        oracle = [execute_payload(p, serial_db) for p in payloads]
        script = (
            "import json, signal, sys\n"
            "from repro.db.serving import ServingPool, strip_provenance\n"
            "signal.signal(signal.SIGCHLD, signal.SIG_IGN)\n"
            "payloads = json.load(sys.stdin)\n"
            "fault = [{'kind': 'worker_exit', 'request_index': 1}]\n"
            "with ServingPool(sys.argv[1], workers=2, max_worker_restarts=1,\n"
            "                 fault_plan=fault) as pool:\n"
            "    ids = [pool.submit(p) for p in payloads]\n"
            "    responses = [pool.collect(i, timeout=30.0) for i in ids]\n"
            "    restarts = pool.restarts\n"
            "json.dump({'restarts': restarts,\n"
            "           'attempts': [r['serving']['attempts'] for r in responses],\n"
            "           'responses': [strip_provenance(r) for r in responses]},\n"
            "          sys.stdout)\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", script, str(store)],
            input=json.dumps(payloads),
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert child.returncode == 0, child.stderr
        report = json.loads(child.stdout)
        assert report["restarts"] == 1
        assert report["attempts"] == [1, 2, 1]
        assert report["responses"] == json.loads(json.dumps(oracle))


class TestInjectedRaise:
    def test_raise_fault_errors_one_request_only(self, store, serial_db):
        payloads = [_payload() for _ in range(4)]
        oracle = [execute_payload(p, serial_db) for p in payloads]
        with ServingPool(
            store,
            workers=2,
            fault_plan=[{"kind": "raise", "request_index": 1}],
        ) as pool:
            responses = pool.run(payloads)
            assert pool.restarts == 0
            assert pool.degraded is None
        assert responses[1]["status"] == "error"
        assert "injected fault" in responses[1]["error"]
        for index in (0, 2, 3):
            assert strip_provenance(responses[index]) == oracle[index]


class TestDeadlinesAndRetry:
    def test_deadline_retries_on_another_worker(self, store, serial_db):
        """A delayed first attempt is written off at its deadline and
        retried; the retry's response wins and the late response is
        drained, never misdelivered."""
        payload = _payload(deadline_seconds=0.25, max_attempts=2)
        oracle = execute_payload(
            {k: v for k, v in payload.items() if k not in ("deadline_seconds", "max_attempts")},
            serial_db,
        )
        with ServingPool(
            store,
            workers=2,
            fault_plan=[{"kind": "delay", "seconds": 1.0, "request_id": 0}],
        ) as pool:
            response = pool.collect(pool.submit(payload), timeout=60.0)
            assert pool.restarts == 0
            # The slow worker eventually answers its written-off attempt;
            # a later request must still be served correctly (the stale
            # response was drained, not delivered to it).
            follow_up = _payload()
            verdict = pool.collect(pool.submit(follow_up), timeout=60.0)
        assert strip_provenance(response) == oracle
        assert response["serving"]["attempts"] == 2
        assert strip_provenance(verdict) == execute_payload(follow_up, serial_db)

    def test_deadline_exhaustion_is_a_timeout_error_record(self, store, serial_db):
        payload = _payload(deadline_seconds=0.2, max_attempts=1)
        with ServingPool(
            store,
            workers=1,
            fault_plan=[{"kind": "delay", "seconds": 1.0, "request_id": 0}],
        ) as pool:
            response = pool.collect(pool.submit(payload), timeout=60.0)
            assert response["status"] == "error"
            assert response["timeout"] is True
            assert response["attempts"] == 1
            assert "deadline" in response["error"]
            # The worker survives its slept-through request; the pool
            # keeps serving.
            follow_up = _payload()
            verdict = pool.collect(pool.submit(follow_up), timeout=60.0)
            assert pool.restarts == 0
        assert strip_provenance(verdict) == execute_payload(follow_up, serial_db)

    def test_default_deadline_is_the_pool_parameter(self, store):
        with ServingPool(
            store,
            workers=1,
            fault_plan=[{"kind": "delay", "seconds": 1.0, "request_id": 0}],
            default_max_attempts=1,
            default_deadline_seconds=0.2,
        ) as pool:
            response = pool.collect(pool.submit(_payload()), timeout=60.0)
        assert response["status"] == "error"
        assert response.get("timeout") is True

    def test_payload_knob_validation(self, store, serial_db):
        from repro.db.serving import _check_payload

        with pytest.raises(DatabaseError, match="deadline_seconds"):
            _check_payload(_payload(deadline_seconds=0))
        with pytest.raises(DatabaseError, match="deadline_seconds"):
            _check_payload(_payload(deadline_seconds="fast"))
        with pytest.raises(DatabaseError, match="max_attempts"):
            _check_payload(_payload(max_attempts=0))
        with pytest.raises(DatabaseError, match="max_attempts"):
            _check_payload(_payload(max_attempts=True))
        for bad in ("lots", -1, True, 1.5):
            with pytest.raises(DatabaseError, match="memory_budget_bytes"):
                _check_payload(_payload(memory_budget_bytes=bad))
        # An execution's slice is at least one byte; only a prewarm
        # refresh, which takes no execution slice, ships 0.
        with pytest.raises(DatabaseError, match="memory_budget_bytes"):
            _check_payload(_payload(memory_budget_bytes=0))
        _check_payload(_payload(memory_budget_bytes=1))
        _check_payload(_payload(memory_budget_bytes=0, prewarm={}))

    def test_execute_plan_refuses_what_the_wire_refuses(self, serial_db):
        # A Python caller of execute_plan gets the wire's rule, not a clamp.
        from repro.db.executor import execute_plan
        from repro.db.plan_ir import plan_ir_from_payload
        from repro.db.serving import _check_payload

        plan = plan_ir_from_payload(_query(), _payload()["plan"])
        refused = {"threads": (0, -3, True), "memory_budget_bytes": (0, -1)}
        accepted = {"threads": (None, 1, 2), "memory_budget_bytes": (None, 1)}
        for knob in refused:
            for value in refused[knob]:
                with pytest.raises(DatabaseError, match=knob):
                    _check_payload(_payload(**{knob: value}))
                with pytest.raises(DatabaseError, match=knob):
                    execute_plan(plan, serial_db, **{knob: value})
            for value in accepted[knob]:
                _check_payload(_payload(**{knob: value}))
                execute_plan(plan, serial_db, **{knob: value})


class TestCollectTimeoutPoisoning:
    def test_expired_request_releases_slice_and_drains_late_response(
        self, store, serial_db
    ):
        """Satellite: a collect() timeout used to leave the request
        pending and its admission slice charged forever; now the slice is
        released, the id marked expired, and the late response drained."""
        slice_bytes = 1 << 20
        with ServingPool(
            store,
            workers=1,
            global_memory_budget_bytes=slice_bytes,
            default_memory_budget_bytes=slice_bytes,
            fault_plan=[{"kind": "delay", "seconds": 1.5, "request_id": 0}],
        ) as pool:
            request = pool.submit(_payload())
            with pytest.raises(ServingError, match="released"):
                pool.collect(request, timeout=0.3)
            # The slice is free again: under a one-slice global budget a
            # second request is only admissible if the first was released.
            assert pool.admitted_bytes == 0
            assert pool.pending_count == 0
            follow_up = _payload()
            verdict = pool.collect(pool.submit(follow_up), timeout=60.0)
            assert pool.restarts == 0
        # The oracle runs what the pool shipped: the admitted slice is
        # written into the payload and bounds the kernels.
        shipped = dict(follow_up, memory_budget_bytes=slice_bytes)
        assert strip_provenance(verdict) == execute_payload(shipped, serial_db)

    def test_expired_request_cannot_be_collected_again(self, store):
        with ServingPool(
            store,
            workers=1,
            fault_plan=[{"kind": "delay", "seconds": 1.5, "request_id": 0}],
        ) as pool:
            request = pool.submit(_payload())
            with pytest.raises(ServingError, match="released"):
                pool.collect(request, timeout=0.3)
            with pytest.raises(ServingError, match="unknown or already-collected"):
                pool.collect(request, timeout=0.3)


class TestRetryBacklogScheduling:
    """The core's retry schedule -- exponential backoff per attempt,
    capped at ``MAX_BACKOFF_SECONDS``, and resolution to an error record
    once the attempt budget is spent -- driven by events and a fake
    clock: no process, no sleep."""

    def _core_with_dispatched_request(self, **options):
        core = RequestLifecycle(workers=1, metrics=MetricsRegistry(), **options)
        core.start(now=0.0)
        assert core.hello(0, {"store_digest": "d"}, now=0.0)
        request = core.submit(_payload(), now=0.0)
        assert request.status == "dispatched" and request.attempts == 1
        return core, request

    def test_backoff_doubles_per_attempt_and_caps(self):
        base = 0.8
        core, request = self._core_with_dispatched_request(
            retry_backoff_seconds=base,
            default_deadline_seconds=1.0,
            default_max_attempts=10,
            max_worker_restarts=10,
        )
        now = 0.0
        observed = []
        for attempt in (1, 2, 3, 4):
            now += 1.5  # past the 1s deadline: the attempt is written off
            core.tick(now)
            assert request.status == "queued" and request.attempts == attempt
            observed.append(request.not_before - now)
            # The scheduled wake-up is the core's next timer, so a
            # blocking transport comes back in time to retry.
            assert core.next_timer(now) == request.not_before
            # The worker dies holding the written-off attempt; the
            # replacement takes the retry once the backoff has passed.
            core.death(0, "killed", now)
            assert core.hello(0, {"store_digest": "d"}, now)
            assert request.status == "queued"  # backoff not over
            now = request.not_before
            core.tick(now)
            assert request.status == "dispatched"
        # base * 2**(attempt-1): 0.8, 1.6, then the 2.0s ceiling.
        assert observed == pytest.approx(
            [base, 2 * base, MAX_BACKOFF_SECONDS, MAX_BACKOFF_SECONDS]
        )

    def test_spent_attempt_budget_resolves_to_error_record(self):
        core, request = self._core_with_dispatched_request(
            default_deadline_seconds=1.0, default_max_attempts=1
        )
        core.tick(now=1.5)  # the budget is spent: no retry scheduled
        assert core.resolved() == [request.id]
        assert core.queue_depth == 0 and core.next_timer(1.5) is None
        record = core.take(request.id).result
        assert record["status"] == "error"
        assert record["timeout"] is True
        assert record["attempts"] == 1
        assert "deadline" in record["error"]
        assert core.requests == {} and core.admitted_bytes == 0


class TestWorkerSignals:
    def test_sigint_leaves_every_worker_serving(self, store, serial_db):
        """A terminal Ctrl-C signals the whole process group.  A worker's
        lifetime belongs to the pool's ``stop`` message, so SIGINT must
        neither kill a worker nor cost a restart."""
        payloads = [_payload() for _ in range(4)]
        oracle = [execute_payload(p, serial_db) for p in payloads]
        with ServingPool(store, workers=2, max_worker_restarts=2) as pool:
            pids = {slot: report["pid"] for slot, report in pool.worker_reports.items()}
            for pid in pids.values():
                os.kill(pid, signal.SIGINT)
            time.sleep(0.3)  # let a default handler raise before the batch
            responses = pool.run(payloads)
            assert pool.restarts == 0
            assert {
                slot: report["pid"] for slot, report in pool.worker_reports.items()
            } == pids
        assert all(response["status"] == "ok" for response in responses)
        assert [strip_provenance(r) for r in responses] == oracle
