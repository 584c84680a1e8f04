"""The request lifecycle of the serving plane, as one sans-IO state machine.

:class:`RequestLifecycle` owns every decision the serving plane makes about
a request or a worker slot -- admission under the global memory budget,
queueing, dispatch, per-attempt deadlines, retry with exponential backoff,
first-response-wins, the restart budget and degradation -- and performs no
I/O: it forks nothing, reads no clock and waits on nothing.  A transport
(:class:`~repro.db.serving.ServingPool`: processes and queues) feeds it
*events*, each stamped with the transport's clock --

``start(now)``, ``submit(payload, now)``, ``hello(worker, report, now)``,
``fatal(worker, error, now)``, ``result(worker, id, attempt, result,
now)``, ``death(worker, reason, now)``, ``tick(now)``, ``abandon(id)``,
``take(id)``

-- and carries out the *effects* it appends to
:attr:`RequestLifecycle.effects`, in order:

* ``("spawn", worker)`` -- start a fresh process in that slot;
* ``("dispatch", worker, request id, attempt, payload)`` -- send it;
* ``("retire", worker)`` -- stop reading the slot's channel and make sure
  its process is gone.

:meth:`~RequestLifecycle.next_timer` says when ``tick`` must be called
again at the latest, :meth:`~RequestLifecycle.resolved` which ids have a
response ready to ``take``.

One request is one :class:`Request` record whose ``status`` walks
``queued -> dispatched -> resolved -> collected``, back to ``queued`` when
an attempt is lost (worker death) or written off (deadline), or to
``abandoned`` when its caller gives up.  An in-flight attempt holds a
reference to its record, so an abandoned or collected record disappears
with its last attempt and nothing per-request outlives the request.

Pool start-up is the same machine as a respawn: until every initial slot
has said hello a death is *fatal* (:attr:`~RequestLifecycle.broken`)
instead of charged to the restart budget.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Mapping, Optional

from repro.exceptions import DatabaseError

#: Seconds a spawned worker has to say hello before it is retired (and
#: counts as a death).
STARTUP_TIMEOUT_SECONDS = 60.0

#: Ceiling on the exponential retry backoff (seconds).
MAX_BACKOFF_SECONDS = 2.0


class ServingError(DatabaseError):
    """The serving pool is broken: a worker process died, disagreed about
    the store content, or spoke the wrong protocol."""


class AdmissionRejected(DatabaseError):
    """Backpressure: the request was *not* admitted (queue full, or its
    memory slice does not fit the remaining global budget).  Re-submit
    after collecting responses; nothing was partially executed."""


def check_seconds(what: str, value, *, zero=False, error=DatabaseError) -> None:
    """The one rule for a time knob, on the wire and in a constructor: a
    finite number of seconds, positive (``>= 0`` with ``zero``).  ``None``
    means unset and passes."""
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{what} must be a number")
    # NaN, infinities and ints past the float range all fail here.
    if not (0 <= value if zero else 0 < value) or not value <= sys.float_info.max:
        raise error(f"{what} must be {'>= 0' if zero else 'positive'} and finite")


def check_integer(what: str, value, minimum: int, *, error=DatabaseError) -> None:
    """The one rule for a count or byte knob: an integer ``>= minimum``.
    ``None`` means unset and passes."""
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} must be an integer")
    if value < minimum:
        raise error(f"{what} must be >= {minimum}")


def check_pool_options(options: Mapping, *, error=DatabaseError) -> None:
    """Refuse the pool's options by the wire's rules: a deadline positive
    and finite, a backoff finite and ``>= 0``, a memory budget at least one
    byte (a 0 would be charged nothing at admission), at least one worker,
    pending slot and attempt, and a restart budget ``>= 0``.  Nothing is
    clamped: a value these rules refuse never starts a worker."""
    check_seconds(
        "default_deadline_seconds", options.get("default_deadline_seconds"),
        error=error,
    )
    check_seconds(
        "retry_backoff_seconds", options.get("retry_backoff_seconds"),
        zero=True, error=error,
    )
    for name, minimum in (
        ("workers", 1),
        ("max_pending", 1),
        ("max_worker_restarts", 0),
        ("default_max_attempts", 1),
        ("global_memory_budget_bytes", 1),
        ("default_memory_budget_bytes", 1),
    ):
        check_integer(name, options.get(name), minimum, error=error)


class Request:
    """Everything the serving plane knows about one admitted request."""

    __slots__ = (
        "id", "payload", "status", "slice_bytes", "attempts", "max_attempts",
        "deadline_seconds", "trace_id", "enqueued_at", "not_before", "result",
    )

    def __init__(
        self, request_id, payload, slice_bytes, max_attempts, deadline_seconds, now
    ) -> None:
        self.id = request_id
        self.payload = payload
        self.status = "queued"
        self.slice_bytes = slice_bytes  # charged against the global budget
        self.attempts = 0  # dispatches so far
        self.max_attempts = max_attempts
        self.deadline_seconds = deadline_seconds
        self.trace_id = None  # set when the transport traces requests
        self.enqueued_at = now  # start of the current queue wait
        self.not_before = now  # earliest dispatch (retry backoff)
        self.result: Optional[Mapping] = None


class _Slot:
    """One worker slot: ``starting`` (spawned, no hello yet), ``ready`` or
    ``dead``.  ``attempt`` is the ``(request, attempt number, dispatched
    at)`` the worker is busy with -- it stays until the worker answers or
    dies, even after the attempt has been written off."""

    __slots__ = ("state", "hello_deadline", "attempt")

    def __init__(self) -> None:
        self.state = "dead"
        self.hello_deadline = 0.0
        self.attempt = None


def _is_live(attempt) -> bool:
    """Whether a slot's attempt is still the one its request waits on (not
    written off by a deadline, superseded by a retry, answered by an
    earlier attempt, collected or abandoned)."""
    request, number, _ = attempt
    return request.status == "dispatched" and request.attempts == number


class RequestLifecycle:
    """The serving plane's state machine; see the module docstring.

    The keyword parameters are :class:`~repro.db.serving.ServingPool`'s
    (documented there); ``metrics`` is a
    :class:`~repro.obs.metrics.MetricsRegistry`.  ``span``, when given,
    is called as ``span(name, start, end, request, **attrs)`` for every
    ``queue`` and ``attempt`` region; it also switches on trace-id
    assignment at admission.
    """

    def __init__(
        self,
        workers: int,
        *,
        global_memory_budget_bytes: Optional[int] = None,
        default_memory_budget_bytes: Optional[int] = None,
        max_pending: Optional[int] = None,
        max_worker_restarts: int = 2,
        default_max_attempts: int = 3,
        default_deadline_seconds: Optional[float] = None,
        retry_backoff_seconds: float = 0.05,
        metrics,
        span=None,
    ) -> None:
        check_pool_options({
            "workers": workers,
            "max_pending": max_pending,
            "max_worker_restarts": max_worker_restarts,
            "default_max_attempts": default_max_attempts,
            "default_deadline_seconds": default_deadline_seconds,
            "retry_backoff_seconds": retry_backoff_seconds,
            "global_memory_budget_bytes": global_memory_budget_bytes,
            "default_memory_budget_bytes": default_memory_budget_bytes,
        })
        self.workers = workers
        self.global_memory_budget_bytes = global_memory_budget_bytes
        self.default_memory_budget_bytes = default_memory_budget_bytes
        self.max_pending = 4 * workers if max_pending is None else max_pending
        self.max_worker_restarts = max_worker_restarts
        self.default_max_attempts = default_max_attempts
        self.default_deadline_seconds = default_deadline_seconds
        self.retry_backoff_seconds = retry_backoff_seconds
        self.metrics = metrics
        self._span = span
        self.slots: Dict[int, _Slot] = {w: _Slot() for w in range(self.workers)}
        self.requests: Dict[int, Request] = {}  # admitted, not yet released
        self.admitted_bytes = 0
        self.effects: List[tuple] = []  # the transport drains this
        self.reports: Dict[int, Mapping] = {}  # latest hello per slot
        self.store_digest: Optional[str] = None  # every hello must agree
        self.restarts = 0
        self.started = False  # every initial slot has said hello
        self.broken: Optional[str] = None  # a death before ``started``
        self.degraded: Optional[str] = None  # restart budget exhausted
        self._next_request_id = 0

    # -- read-only views -----------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Admitted requests waiting for a worker (or a retry backoff).
        Other threads read this (the daemon's health frame), so it takes
        one atomic snapshot of the dict instead of iterating it live."""
        return sum(r.status == "queued" for r in tuple(self.requests.values()))

    @property
    def inflight_count(self) -> int:
        """Workers busy with an attempt (written-off ones included)."""
        return sum(slot.attempt is not None for slot in self.slots.values())

    def resolved(self) -> List[int]:
        """Ids whose response is ready to :meth:`take`."""
        return [r.id for r in self.requests.values() if r.status == "resolved"]

    def next_timer(self, now: float) -> Optional[float]:
        """The earliest instant at which :meth:`tick` has work of its own:
        a starting worker's hello deadline, a queued retry's
        ``not_before`` or a live attempt's deadline.  ``None`` when every
        pending transition will be announced by a worker instead.  A retry
        already due is excluded -- ``tick`` has dispatched it if it could,
        so it waits on a worker, not on a timer."""
        timers = [
            request.not_before
            for request in self.requests.values()
            if request.status == "queued" and request.not_before > now
        ]
        for slot in self.slots.values():
            if slot.state == "starting":
                timers.append(slot.hello_deadline)
            if slot.attempt is not None and _is_live(slot.attempt):
                request, _, dispatched_at = slot.attempt
                if request.deadline_seconds is not None:
                    timers.append(dispatched_at + request.deadline_seconds)
        return min(timers, default=None)

    # -- events --------------------------------------------------------
    def start(self, now: float) -> None:
        for worker_id in self.slots:
            self._spawn(worker_id, now)

    def submit(self, payload: Mapping, now: float) -> Request:
        """Admit one (already validated) payload and queue it.  Raises
        :class:`AdmissionRejected` -- without side effects -- when the
        pending queue is full or the memory slice does not fit, and
        :class:`ServingError` once the pool is degraded."""
        if self.degraded:
            raise ServingError(f"serving pool is broken (degraded): {self.degraded}")
        budget = self.global_memory_budget_bytes
        slice_bytes = payload.get("memory_budget_bytes")
        if slice_bytes is None:
            slice_bytes = self.default_memory_budget_bytes
        if slice_bytes is None:
            # Unbudgeted request under a global budget: claim it all, so
            # it runs alone rather than overcommitting the budget.
            slice_bytes = budget
        charged = 0 if budget is None else slice_bytes
        refusal = None
        if len(self.requests) >= self.max_pending:
            refusal = (
                f"{len(self.requests)} requests pending (max {self.max_pending}); "
                "collect responses before submitting more"
            )
        elif budget is not None and charged > budget:
            refusal = (
                f"request needs a {charged:,}-byte memory slice; the "
                f"global budget is {budget:,} bytes"
            )
        elif budget is not None and self.admitted_bytes + charged > budget:
            refusal = (
                f"admitting a {charged:,}-byte slice would exceed the "
                f"global budget ({self.admitted_bytes:,} of {budget:,} "
                "bytes already admitted); collect responses first"
            )
        if refusal:
            self.metrics.counter("admission_rejected").inc()
            raise AdmissionRejected(refusal)
        shipped = dict(payload)
        if slice_bytes is not None:
            # The number that gated admission also bounds execution.
            shipped["memory_budget_bytes"] = slice_bytes
        deadline_seconds = shipped.get("deadline_seconds")
        if deadline_seconds is None:
            deadline_seconds = self.default_deadline_seconds
        max_attempts = shipped.get("max_attempts")
        if max_attempts is None:
            max_attempts = self.default_max_attempts
        request = Request(
            self._next_request_id, shipped, charged, max_attempts, deadline_seconds, now
        )
        self._next_request_id += 1
        if self._span is not None:
            trace_req = shipped.get("trace")
            if isinstance(trace_req, Mapping) and trace_req.get("id") is not None:
                request.trace_id = trace_req["id"]
            else:
                # Ship a trace request so the worker records and returns
                # per-plan-node kernel spans for this id.
                request.trace_id = f"req-{request.id}"
                shipped["trace"] = {"id": request.trace_id}
        self.requests[request.id] = request
        self.admitted_bytes += charged
        self.metrics.counter("requests_admitted").inc()
        self._dispatch(now)
        return request

    def hello(self, worker_id: int, report: Mapping, now: float) -> bool:
        """A spawned worker opened the store.  Returns whether the slot is
        now ready; a worker that disagrees about the store digest is a
        death."""
        slot = self.slots[worker_id]
        if slot.state != "starting":
            return False
        digest = report.get("store_digest")
        if self.store_digest is None:
            self.store_digest = digest
        elif digest != self.store_digest:
            self.death(
                worker_id,
                f"worker {worker_id} disagreed about the store (digest "
                f"{digest!r} != {self.store_digest!r})",
                now,
            )
            return False
        self.reports[worker_id] = report
        slot.state = "ready"
        self.started = self.started or all(
            s.state == "ready" for s in self.slots.values()
        )
        self._dispatch(now)
        return True

    def fatal(self, worker_id: int, error: str, now: float) -> None:
        self.death(
            worker_id, f"worker {worker_id} failed to open the store: {error}", now
        )

    def result(
        self, worker_id: int, request_id: int, attempt: int, result: Mapping, now: float
    ) -> bool:
        """A worker answered.  Returns whether the response was delivered
        to its request: the first response wins, and an answer that is
        not the slot's in-flight attempt, or whose request is already
        resolved, collected or abandoned, is dropped."""
        inflight = self.slots[worker_id].attempt
        if inflight is None or (inflight[0].id, inflight[1]) != (request_id, attempt):
            return False
        request = inflight[0]
        self._end_attempt(worker_id, result.get("status", "?"), now)
        delivered = request.status in ("queued", "dispatched")
        if delivered:
            self._resolve(request, result)
        self._dispatch(now)
        return delivered

    def death(self, worker_id: int, reason: str, now: float) -> None:
        """One worker is gone (or must go): respawn while the restart
        budget lasts, requeue its live attempt, degrade the pool when the
        budget is spent.  Idempotent per process."""
        slot = self.slots[worker_id]
        if slot.state == "dead":
            return
        slot.state = "dead"
        self.effects.append(("retire", worker_id))
        attempt = slot.attempt
        lost = attempt is not None and _is_live(attempt)
        if attempt is not None:
            # The crashed attempt never answers, so its span ends here.
            self._end_attempt(worker_id, "crashed", now)
        if not self.started:
            self.broken = self.broken or reason
        elif self.restarts < self.max_worker_restarts:
            self.restarts += 1
            self.metrics.counter("worker_restarts").inc()
            self._spawn(worker_id, now)
        elif self.degraded is None:
            self.degraded = (
                f"restart budget ({self.max_worker_restarts}) exhausted; "
                f"last death: {reason}"
            )
        if lost:
            self._requeue_or_fail(
                attempt[0], f"worker crashed mid-request: {reason}", now
            )
        if not self._live_workers():
            # Nothing can serve the queue any more: resolve it to error
            # records (completed responses stay collectable).
            why = self.degraded or "no live workers remain"
            for request in self.requests.values():
                if request.status == "queued":
                    self._resolve(request, {
                        "status": "error",
                        "error": f"request {request.id} is unservable: {why}",
                        "attempts": request.attempts,
                    })

    def tick(self, now: float) -> None:
        """Act on everything that is due: hello deadlines, attempt
        deadlines, queued work an idle worker can take."""
        for worker_id, slot in self.slots.items():
            if slot.state == "starting" and now > slot.hello_deadline:
                self.death(
                    worker_id,
                    f"worker {worker_id} did not report within "
                    f"{STARTUP_TIMEOUT_SECONDS:.0f}s",
                    now,
                )
            if slot.attempt is None or not _is_live(slot.attempt):
                continue
            request, attempt, dispatched_at = slot.attempt
            deadline = request.deadline_seconds
            if deadline is not None and now - dispatched_at > deadline:
                # Written off (its late response is still accepted if it
                # beats the retry -- first response wins), but the worker
                # stays busy until it actually answers.
                self.metrics.counter("deadline_timeouts").inc()
                self._requeue_or_fail(
                    request,
                    f"request {request.id} attempt {attempt} exceeded its "
                    f"{deadline}s deadline",
                    now,
                    timeout=True,
                )
        self._dispatch(now)

    def abandon(self, request_id: int) -> None:
        """The caller is gone: release the admission slice now.  A late
        response finds the record abandoned and is dropped.  Idempotent;
        unknown or already-released ids are a no-op."""
        self._release(request_id, "abandoned")

    def take(self, request_id: int) -> Optional[Request]:
        """Release and return the record of a resolved request (``None``
        while it is unresolved); :class:`ServingError` for an unknown or
        already-released id."""
        request = self.requests.get(request_id)
        if request is None:
            raise ServingError(f"unknown or already-collected request {request_id}")
        if request.status != "resolved":
            return None
        return self._release(request_id, "collected")

    # -- transitions ---------------------------------------------------
    def _release(self, request_id: int, status: str) -> Optional[Request]:
        request = self.requests.pop(request_id, None)
        if request is not None:
            request.status = status
            self.admitted_bytes -= request.slice_bytes
        return request

    def _resolve(self, request: Request, result: Mapping) -> None:
        request.status = "resolved"
        request.result = result

    def _live_workers(self) -> bool:
        return any(slot.state != "dead" for slot in self.slots.values())

    def _spawn(self, worker_id: int, now: float) -> None:
        slot = self.slots[worker_id]
        slot.state = "starting"
        slot.hello_deadline = now + STARTUP_TIMEOUT_SECONDS
        self.effects.append(("spawn", worker_id))

    def _end_attempt(self, worker_id: int, status: str, now: float) -> None:
        slot = self.slots[worker_id]
        request, attempt, dispatched_at = slot.attempt
        slot.attempt = None
        if self._span is not None:
            self._span(
                "attempt", dispatched_at, now, request,
                attempt=attempt, worker=worker_id, status=status,
            )

    def _requeue_or_fail(
        self, request: Request, reason: str, now: float, timeout: bool = False
    ) -> None:
        """A dispatched attempt was lost (crash) or written off (deadline):
        schedule a retry with exponential backoff, or -- attempt budget or
        workers exhausted -- resolve the request to an error record."""
        if request.attempts < request.max_attempts and self._live_workers():
            delay = min(
                self.retry_backoff_seconds * 2 ** (request.attempts - 1),
                MAX_BACKOFF_SECONDS,
            )
            self.metrics.counter("retries").inc()
            request.status = "queued"
            request.enqueued_at = now
            request.not_before = now + delay
            return
        self.metrics.counter("request_errors").inc()
        record = {
            "status": "error",
            "error": f"{reason} (after {request.attempts} attempt(s))",
            "attempts": request.attempts,
        }
        if timeout:
            record["timeout"] = True
        self._resolve(request, record)

    def _dispatch(self, now: float) -> None:
        """Hand due queued requests, in submission order, to idle ready
        workers -- one in-flight attempt per worker."""
        idle = [
            worker_id
            for worker_id, slot in self.slots.items()
            if slot.state == "ready" and slot.attempt is None
        ]
        for request in self.requests.values():
            if not idle:
                return
            if request.status != "queued" or request.not_before > now:
                continue
            worker_id = idle.pop(0)
            request.status = "dispatched"
            request.attempts += 1
            self.slots[worker_id].attempt = (request, request.attempts, now)
            self.effects.append(
                ("dispatch", worker_id, request.id, request.attempts, request.payload)
            )
            self.metrics.counter("dispatches").inc()
            if self._span is not None:
                self._span(
                    "queue", request.enqueued_at, now, request,
                    attempt=request.attempts, worker=worker_id,
                )
