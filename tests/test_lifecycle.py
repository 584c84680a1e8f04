"""The serving plane's lifecycle core (:mod:`repro.db.lifecycle`), tested
as what it is: a pure state machine.  Events in, effects out, a fake
clock -- no process is forked and nothing sleeps, so the Hypothesis model
explores interleavings (stale results, deaths between a deadline and its
retry, abandon racing a late response) that the real-process suites
(``test_serving_faults.py``, ``test_daemon.py``) can only hit by luck.
Those suites keep what only real workers can show: the detection
mechanisms (process sentinel, supervisor clock, hello digest, socket
EOF/stall)."""

import ast
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

import repro.db.lifecycle as lifecycle
from repro.db.lifecycle import (
    MAX_BACKOFF_SECONDS,
    STARTUP_TIMEOUT_SECONDS,
    AdmissionRejected,
    RequestLifecycle,
    ServingError,
)
from repro.exceptions import DatabaseError
from repro.obs.metrics import MetricsRegistry

HELLO = {"store_digest": "digest", "pid": 1}


def _core(workers=1, **options):
    """A started core: every slot has said hello."""
    core = RequestLifecycle(workers, metrics=MetricsRegistry(), **options)
    core.start(0.0)
    for worker_id in range(workers):
        assert core.hello(worker_id, HELLO, 0.0)
    assert core.started
    core.effects.clear()
    return core


def _no_per_request_state(core):
    return (
        core.requests == {}
        and core.admitted_bytes == 0
        and all(slot.attempt is None for slot in core.slots.values())
    )


def test_the_core_is_pure():
    """Sans-IO means sans-IO: the module imports no process, socket,
    thread, queue, clock or OS machinery (its transports do)."""
    banned = {
        "multiprocessing", "socket", "threading", "queue", "time", "os",
        "selectors",
    }
    tree = ast.parse(Path(lifecycle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert not imported & banned


class TestStartup:
    def test_start_spawns_every_slot_and_waits_for_hellos(self):
        core = RequestLifecycle(2, metrics=MetricsRegistry())
        core.start(0.0)
        assert core.effects == [("spawn", 0), ("spawn", 1)]
        assert core.next_timer(0.0) == STARTUP_TIMEOUT_SECONDS
        assert core.hello(0, HELLO, 0.1) and not core.started
        assert core.hello(1, HELLO, 0.2) and core.started
        assert core.reports == {0: HELLO, 1: HELLO} and core.broken is None

    @pytest.mark.parametrize(
        "event, match",
        [
            (lambda core: core.death(1, "worker 1 died with exit code 1", 0.1), "exit code"),
            (lambda core: core.fatal(1, "OSError('gone')", 0.1), "failed to open the store"),
            (lambda core: core.hello(1, {"store_digest": "other"}, 0.1), "disagreed"),
            (lambda core: core.tick(STARTUP_TIMEOUT_SECONDS + 1), "did not report"),
        ],
    )
    def test_a_death_before_every_hello_is_fatal_not_a_restart(self, event, match):
        core = RequestLifecycle(2, metrics=MetricsRegistry())
        core.start(0.0)
        core.hello(0, HELLO, 0.0)
        core.effects.clear()
        event(core)
        assert match in core.broken and not core.started
        assert core.restarts == 0 and ("spawn", 1) not in core.effects
        assert ("retire", 1) in core.effects

    def test_the_same_events_after_startup_cost_a_restart(self):
        core = _core(2)
        core.death(1, "killed", 1.0)
        assert core.broken is None and core.restarts == 1
        assert core.effects == [("retire", 1), ("spawn", 1)]
        # The replacement must agree about the store, or it is a death too.
        assert not core.hello(1, {"store_digest": "other"}, 1.1)
        assert core.restarts == 2 and core.degraded is None
        core.tick(1.1 + STARTUP_TIMEOUT_SECONDS + 1)  # never says hello
        assert "restart budget (2) exhausted" in core.degraded
        with pytest.raises(ServingError, match="degraded"):
            core.submit({}, 100.0)


class TestOptions:
    @pytest.mark.parametrize(
        "option, value",
        [
            ("default_deadline_seconds", value)
            for value in (-1, 0, float("nan"), float("inf"), 10**400, True, "5")
        ]
        + [
            (option, value)
            for option in ("default_memory_budget_bytes", "global_memory_budget_bytes")
            for value in (0, -400, 1.5, True)
        ],
    )
    def test_defaults_follow_the_wire_rules(self, option, value):
        """A default stands in for a payload knob, so it is refused by the
        rule the wire applies to that knob.  An infinite deadline used to
        overflow the first ``collect``, a NaN one disabled deadlines, and a
        zero or negative budget admitted everything it should queue."""
        with pytest.raises(DatabaseError, match=option):
            RequestLifecycle(1, metrics=MetricsRegistry(), **{option: value})

    def test_the_smallest_legal_defaults_pass(self):
        core = _core(
            default_deadline_seconds=1e-9,
            default_memory_budget_bytes=1,
            global_memory_budget_bytes=1,
        )
        assert core.admitted_bytes == 0 and core.default_memory_budget_bytes == 1


class TestDegradation:
    def test_the_last_death_fails_the_queue_but_keeps_finished_work(self):
        core = _core(1, max_worker_restarts=0)
        done, lost, waiting = (core.submit({}, 0.0) for _ in range(3))
        assert core.result(0, done.id, 1, {"status": "ok"}, 0.1)
        assert lost.status == "dispatched" and waiting.status == "queued"
        core.death(0, "killed", 0.2)
        assert "restart budget (0) exhausted" in core.degraded
        assert core.resolved() == [done.id, lost.id, waiting.id]
        assert core.take(done.id).result == {"status": "ok"}
        assert "crashed mid-request" in core.take(lost.id).result["error"]
        assert "unservable" in core.take(waiting.id).result["error"]
        assert _no_per_request_state(core) and core.next_timer(0.2) is None


class TestAbandonedRequestsLeaveNothing:
    def test_a_thousand_abandoned_requests_leak_no_state(self):
        """Caller timeouts and client disconnects are routine in a
        long-lived daemon: each must leave zero per-request state once its
        late response has been dropped."""
        core = _core(1, global_memory_budget_bytes=1 << 20)
        for cycle in range(1000):
            now = float(cycle)
            request = core.submit({"memory_budget_bytes": 1 << 20}, now)
            assert core.effects.pop() == ("dispatch", 0, request.id, 1, request.payload)
            core.abandon(request.id)
            assert core.admitted_bytes == 0  # released at once, not on the answer
            assert not core.result(0, request.id, 1, {"status": "ok"}, now + 0.5)
            assert _no_per_request_state(core)
        assert core.resolved() == [] and core.next_timer(2000.0) is None

    @pytest.mark.parametrize("order", ["hangup_then_death", "death_then_hangup"])
    def test_slice_release_does_not_depend_on_the_event_order(self, order):
        """The daemon's disconnect-mid-request row: the client hangs up
        while a worker crash keeps its request in flight.  Whichever
        event the supervisor sees first, the slice comes back and the
        replacement worker is free for the next client."""
        slice_bytes = 1 << 20
        core = _core(
            1,
            global_memory_budget_bytes=slice_bytes,
            default_memory_budget_bytes=slice_bytes,
        )
        victim = core.submit({}, 0.0)
        with pytest.raises(AdmissionRejected):
            core.submit({}, 0.1)  # the one-slice budget is taken
        if order == "hangup_then_death":
            core.abandon(victim.id)
            core.death(0, "killed", 0.2)
        else:
            core.death(0, "killed", 0.2)
            assert victim.status == "queued"  # requeued for the replacement
            core.abandon(victim.id)
        assert _no_per_request_state(core) and core.restarts == 1
        core.effects.clear()
        assert core.hello(0, HELLO, 0.3)
        follow_up = core.submit({}, 0.4)  # admitted: nothing leaked
        # The abandoned request is never dispatched to the replacement.
        assert core.effects == [("dispatch", 0, follow_up.id, 1, follow_up.payload)]


# ----------------------------------------------------------------------
# The model: arbitrary interleavings of events against a fake transport.
# ----------------------------------------------------------------------

WORKERS = 2
BUDGET = 8
DEFAULT_SLICE = 2
MAX_PENDING = 3
MAX_RESTARTS = 2
MAX_ATTEMPTS = 3
DEADLINE = 1.0
BACKOFF = 0.6


class _Process:
    """The fake transport's stand-in for one worker process."""

    def __init__(self):
        self.ready = False
        self.inbox = []  # (request id, attempt) dispatched and unanswered


class LifecycleModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.now = 0.0
        self.metrics = MetricsRegistry()
        self.core = RequestLifecycle(
            WORKERS,
            global_memory_budget_bytes=BUDGET,
            default_memory_budget_bytes=DEFAULT_SLICE,
            max_pending=MAX_PENDING,
            max_worker_restarts=MAX_RESTARTS,
            default_max_attempts=MAX_ATTEMPTS,
            default_deadline_seconds=DEADLINE,
            retry_backoff_seconds=BACKOFF,
            metrics=self.metrics,
        )
        self.processes = {}  # slot -> _Process, while the process exists
        self.spawns = 0
        self.live = {}  # admitted, unreleased: request id -> Request
        self.released = {}  # request id -> "collected" | "abandoned"
        self.first_result = {}  # request id -> the result it resolved to
        self.rejections = 0
        self.core.start(self.now)
        self._perform()
        for worker_id in range(WORKERS):
            assert self.core.hello(worker_id, HELLO, self.now)
            self.processes[worker_id].ready = True
        self._perform()

    # -- the fake transport --------------------------------------------
    def _perform(self):
        effects, self.core.effects = self.core.effects, []
        for kind, worker_id, *args in effects:
            if kind == "spawn":
                assert worker_id not in self.processes, "spawn into a live slot"
                self.processes[worker_id] = _Process()
                self.spawns += 1
            elif kind == "retire":
                del self.processes[worker_id]
            else:
                request_id, attempt, payload = args
                process = self.processes[worker_id]
                request = self.live[request_id]
                # One in-flight request per worker, none on a slot that
                # has not said hello, none that was resolved or abandoned.
                assert process.ready and not process.inbox
                assert request.status == "dispatched"
                assert attempt == request.attempts <= request.max_attempts
                assert payload is request.payload
                assert self.now >= request.not_before
                process.inbox.append((request_id, attempt))

    def _note_resolutions(self):
        for request_id, request in self.live.items():
            if request.status == "resolved":
                # Exactly once: a resolved request's result never changes.
                first = self.first_result.setdefault(request_id, request.result)
                assert request.result is first
                # ...and is its own: no other id's response leaks in.
                assert request.result.get("echo", request_id) == request_id

    # -- events --------------------------------------------------------
    @rule(slice_bytes=st.sampled_from([None, 1, 3, BUDGET, BUDGET + 1]))
    def submit(self, slice_bytes):
        core = self.core
        payload = {} if slice_bytes is None else {"memory_budget_bytes": slice_bytes}
        needed = DEFAULT_SLICE if slice_bytes is None else slice_bytes
        fits = (
            len(self.live) < MAX_PENDING
            and core.admitted_bytes + needed <= BUDGET
        )
        try:
            request = core.submit(payload, self.now)
        except AdmissionRejected:
            assert not fits and core.degraded is None
            self.rejections += 1
        except ServingError:
            assert core.degraded is not None  # no admission once degraded
        else:
            assert fits and core.degraded is None
            assert request.slice_bytes == needed
            assert request.payload["memory_budget_bytes"] == needed
            assert request.id not in self.live and request.id not in self.released
            self.live[request.id] = request
        self._perform()

    @rule(worker_id=st.integers(0, WORKERS - 1), agrees=st.booleans())
    def hello(self, worker_id, agrees):
        process = self.processes.get(worker_id)
        if process is None or process.ready:
            return
        report = HELLO if agrees else {"store_digest": "another store"}
        process.ready = self.core.hello(worker_id, report, self.now)
        assert process.ready == agrees
        self._perform()

    @rule(worker_id=st.integers(0, WORKERS - 1))
    def answer(self, worker_id):
        process = self.processes.get(worker_id)
        if process is None or not process.inbox:
            return
        request_id, attempt = process.inbox.pop()
        request = self.live.get(request_id)
        waiting = request is not None and request.status in ("queued", "dispatched")
        delivered = self.core.result(
            worker_id, request_id, attempt, {"status": "ok", "echo": request_id}, self.now
        )
        # First response wins -- even a written-off attempt's, and then
        # the queued retry is cancelled; nobody else's ever lands.
        assert delivered == waiting
        if delivered:
            assert request.status == "resolved" and request.result["echo"] == request_id
        self._perform()

    @rule(
        worker_id=st.integers(0, WORKERS - 1),
        request_id=st.integers(0, 30),
        attempt=st.integers(1, MAX_ATTEMPTS),
    )
    def stale_answer(self, worker_id, request_id, attempt):
        """A response that is not the slot's in-flight attempt (a retired
        process's last words, a duplicate) is dropped whole."""
        process = self.processes.get(worker_id)
        if process is not None and (request_id, attempt) in process.inbox:
            return
        before = self._statuses()
        assert not self.core.result(
            worker_id, request_id, attempt, {"status": "ok", "echo": -1}, self.now
        )
        assert self._statuses() == before and self.core.effects == []

    @rule(worker_id=st.integers(0, WORKERS - 1))
    def death(self, worker_id):
        if worker_id not in self.processes:
            return
        self.core.death(worker_id, "killed", self.now)
        self._perform()
        assert self.processes.get(worker_id) is None or not self.processes[worker_id].ready

    @rule(seconds=st.sampled_from([0.05, 0.7, DEADLINE + 0.1, STARTUP_TIMEOUT_SECONDS + 1]))
    def advance(self, seconds):
        core = self.core
        timer = core.next_timer(self.now)
        before = self._statuses()
        self.now += seconds
        core.tick(self.now)
        if timer is None or timer > self.now:
            # A transport sleeping until ``next_timer`` misses nothing:
            # before that instant a tick changes nothing.
            assert core.effects == [] and self._statuses() == before
        self._perform()
        # Whatever was due has been acted on: nothing is still overdue.
        for slot in core.slots.values():
            assert slot.state != "starting" or self.now <= slot.hello_deadline
            if slot.attempt is not None and lifecycle._is_live(slot.attempt):
                assert self.now - slot.attempt[2] <= DEADLINE

    def _statuses(self):
        return (
            {rid: (r.status, r.attempts) for rid, r in self.live.items()},
            [slot.state for slot in self.core.slots.values()],
        )

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def abandon(self, data):
        request_id = data.draw(st.sampled_from(sorted(self.live)))
        request = self.live.pop(request_id)
        before = self.core.admitted_bytes
        self.core.abandon(request_id)
        self.core.abandon(request_id)  # idempotent
        assert self.core.admitted_bytes == before - request.slice_bytes
        self.released[request_id] = "abandoned"
        self._perform()

    @rule()
    def take_resolved(self):
        for request_id in self.core.resolved():
            request = self.core.take(request_id)
            assert request is self.live.pop(request_id)
            assert request.result is self.first_result.get(request_id, request.result)
            self.released[request_id] = "collected"
            with pytest.raises(ServingError):
                self.core.take(request_id)  # exactly once
        assert self.core.resolved() == []

    # -- what must always hold -----------------------------------------
    @invariant()
    def bookkeeping_is_exact(self):
        core = self.core
        self._note_resolutions()
        assert core.requests == self.live
        assert not set(self.live) & set(self.released)
        # Admitted bytes are exactly the live slices and never overcommit.
        assert core.admitted_bytes == sum(r.slice_bytes for r in self.live.values())
        assert core.admitted_bytes <= BUDGET and len(self.live) <= MAX_PENDING
        assert core.restarts == self.spawns - WORKERS <= MAX_RESTARTS
        assert self.metrics.counter("worker_restarts").value == core.restarts
        assert self.metrics.counter("admission_rejected").value == self.rejections
        assert (core.degraded is None) == all(
            worker_id in self.processes for worker_id in range(WORKERS)
        )
        assert core.queue_depth == sum(r.status == "queued" for r in self.live.values())
        assert core.inflight_count == sum(bool(p.inbox) for p in self.processes.values())

    @invariant()
    def slots_mirror_the_transport(self):
        for worker_id, slot in self.core.slots.items():
            process = self.processes.get(worker_id)
            if process is None:
                assert slot.state == "dead" and slot.attempt is None
                continue
            assert slot.state == ("ready" if process.ready else "starting")
            inflight = [] if slot.attempt is None else [(slot.attempt[0].id, slot.attempt[1])]
            assert process.inbox == inflight

    @invariant()
    def requests_are_in_a_known_state(self):
        dispatched = {
            slot.attempt[0].id
            for slot in self.core.slots.values()
            if slot.attempt is not None and slot.attempt[1] == slot.attempt[0].attempts
        }
        for request_id, request in self.live.items():
            assert request.status in ("queued", "dispatched", "resolved")
            assert request.attempts <= request.max_attempts == MAX_ATTEMPTS
            if request.status == "dispatched":
                assert request_id in dispatched  # some worker really has it
            if request.status == "queued" and request.attempts:
                # A retry: backoff doubles per attempt and caps at 2s.
                assert request.not_before - request.enqueued_at == pytest.approx(
                    min(BACKOFF * 2 ** (request.attempts - 1), MAX_BACKOFF_SECONDS)
                )
                assert self.core.next_timer(self.now) is not None or (
                    request.not_before <= self.now
                )

    def teardown(self):
        """Every admitted request resolves or is abandoned: let every
        worker boot and answer, with time passing, until nothing moves."""
        for _ in range(4 * MAX_ATTEMPTS + MAX_RESTARTS + 2):
            for worker_id in list(self.processes):
                self.hello(worker_id, agrees=True)
                self.answer(worker_id)
            self.advance(MAX_BACKOFF_SECONDS)
        self._note_resolutions()
        assert all(r.status == "resolved" for r in self.live.values())
        self.take_resolved()
        assert _no_per_request_state(self.core)
        assert self.core.next_timer(self.now) is None


TestLifecycleModel = LifecycleModel.TestCase
TestLifecycleModel.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
