"""Process-parallel serving plane: an mmap-shared worker pool with
budget-aware admission and plan-replay warm-up.

The storage plane (:mod:`repro.db.storage`) already lets any number of
processes ``Database.open()`` one stored workload and map every column
file read-only with ``np.memmap`` -- one physical copy of the data, no
column pickling, page cache shared by the kernel.  This module builds the
serving tier on top of that property:

**Wire format.**  A request is a compact JSON-safe *payload* -- the query
fingerprint (:func:`~repro.db.storage.query_fingerprint`: atom names,
predicates, term tuples, output variables) plus a plan in the PlanCache's
stored format (``{"kind": "join_order", "order": [...]}`` or ``{"kind":
"hypertree", "decomposition": <decomposition_to_payload(...)>}``) plus the
execution knobs (``budget``, ``threads``, ``memory_budget_bytes``) and the
answer mode (``"rows"`` ships decoded rows, ``"digest"`` a SHA-256 over
the canonical answer rendering).  No pickled plan object, column or
relation ever crosses the process boundary; a payload round-trips through
``json.dumps`` unchanged.  Responses carry the answer (or digest), the
cardinality and the :meth:`ExecutionResult.stats_payload` work counters.

**Determinism.**  Worker processes run :func:`execute_payload` -- the very
function the serial oracle runs in-process.  The payload rebuilds the
query with :func:`query_from_payload`, the plan IR with
:func:`~repro.db.plan_ir.plan_ir_from_payload` (hypertree payloads
reconstruct against the *original* query hypergraph, exactly the
plan-cache replay path), and executes on the shared kernels.  Because
answers, row order and every :meth:`stats_payload` field are functions of
(store bytes, payload) alone -- pinned by the storage and serving
Hypothesis suites -- a pooled response is byte-identical to the serial
in-process response, worker count and scheduling notwithstanding.  A
budget abort is equally deterministic at ``threads == 1``: the response
reports ``work_so_far`` and abort-time counters equal to the serial
abort's.

**Admission.**  :meth:`ServingPool.submit` admits a request under a slice
of the pool's global memory budget: the payload's own
``memory_budget_bytes`` if set, else the pool's per-query default.  The
sum of admitted slices never exceeds ``global_memory_budget_bytes`` and
at most ``max_pending`` requests may be in flight, so a burst of heavy
joins degrades to :class:`AdmissionRejected` backpressure (callers
re-submit after collecting) instead of memory exhaustion.  The admitted
slice is written into the payload, so the same number that gated
admission also bounds the kernels' transient allocations during
execution.

**Failure.**  Failure is a first-class, deterministically testable input
(:mod:`repro.db.faults` scripts it).  A worker that *raises* ships an
``"error"`` response for that request only.  A worker *process* that dies
mid-request is handled by the pool's supervisor: the in-flight request is
requeued (with exponential backoff, up to its ``max_attempts`` budget),
a replacement worker is spawned in the dead worker's slot -- its startup
hello re-validated against the pool's store digest -- and serving
continues transparently; :attr:`ServingPool.restarts` counts the
respawns.  Only after ``max_worker_restarts`` respawns is the pool
*degraded*: new submissions are refused (:class:`ServingError`), but the
surviving workers and every completed response are drained --
:meth:`run` returns partial results with per-request ``"error"`` records
instead of raising away finished work.  Requests may carry
``deadline_seconds`` (wall-clock from dispatch; an expired attempt is
retried or reported as a ``"timeout": true`` error record, and the late
response is drained, never misdelivered) and ``max_attempts``.  Every
pooled response carries a ``"serving"`` provenance block (``attempts``,
``restarts``) -- excluded from :func:`answer_digest`, like
``peak_transient_bytes``, because it is scheduling-dependent;
:func:`strip_provenance` recovers the oracle-comparable payload.

**Warm-up.**  :func:`prewarm` refreshes statistics (optionally) and runs
the planner once per (query, k) through a :class:`PlanCache`, returning
ready-to-ship payloads.  A second prewarm over the same cache replays
stored plans and reports ``planning_seconds == 0.0`` on every payload, so
steady-state serving does no planning at all.
"""

from __future__ import annotations

import logging
import os
import queue
import time
from multiprocessing.connection import wait as _connection_wait
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.db.database import Database
from repro.db.executor import execute_plan
from repro.db.faults import FaultPlan, resolve_fault_plan
from repro.db.plan_ir import plan_ir_from_payload
from repro.db.scheduler import number_from_env
from repro.db.storage import (
    PlanCache,
    canonical_digest,
    decomposition_to_payload,
    query_fingerprint,
    store_digest,
)
from repro.exceptions import DatabaseError
from repro.obs.metrics import resolve_registry
from repro.obs.trace import TraceRecorder, span_context
from repro.query.atoms import Atom
from repro.query.conjunctive import ConjunctiveQuery

_LOG = logging.getLogger("repro.serving")

#: Wire-format marker + version carried by every serving payload.  Workers
#: reject payloads they do not understand instead of guessing -- the same
#: policy as the storage format.
SERVING_FORMAT = "repro-serving"
SERVING_VERSION = 1

#: Environment override for the multiprocessing start method ("fork" by
#: default where available: workers then inherit the imported modules and
#: start in milliseconds; "spawn"/"forkserver" work identically, just
#: slower to boot, because workers share nothing but the store path).
MP_CONTEXT_ENV = "REPRO_SERVE_MP_CONTEXT"

#: Environment default for per-request deadlines (seconds; unset = no
#: deadline).  Parsed by :func:`repro.db.scheduler.number_from_env`.
DEADLINE_ENV = "REPRO_SERVE_DEADLINE_SECONDS"

#: Response key of the pool-side provenance block (``attempts`` /
#: ``restarts``).  Scheduling-dependent, hence excluded from
#: :func:`answer_digest` and stripped for oracle comparisons.
PROVENANCE_KEY = "serving"

#: Response key of the worker-side trace block (``{"id", "pid",
#: "spans"}``), attached when the payload requests tracing
#: (``payload["trace"]``).  Timing-dependent, hence treated exactly like
#: :data:`PROVENANCE_KEY`: excluded from :func:`answer_digest`, removed
#: by :func:`strip_provenance`.
TRACE_KEY = "trace"

_ANSWER_MODES = ("rows", "digest")

#: Fallback wait (seconds) for the rare states with nothing to select on
#: (no live worker handles).  The supervisor normally blocks directly on
#: worker response channels / process sentinels plus its own computed
#: timers (retry backoffs, request deadlines, hello deadlines), so traffic
#: and crashes wake it immediately; correctness never depends on this.
_POLL_SECONDS = 0.1

#: Ceiling on the exponential retry backoff (seconds).
_MAX_BACKOFF_SECONDS = 2.0


class ServingError(DatabaseError):
    """The serving pool is broken: a worker process died, disagreed about
    the store content, or spoke the wrong protocol."""


class AdmissionRejected(DatabaseError):
    """Backpressure: the request was *not* admitted (queue full, or its
    memory slice does not fit the remaining global budget).  Re-submit
    after collecting responses; nothing was partially executed."""


# ----------------------------------------------------------------------
# Wire format: queries, plans, execution.
# ----------------------------------------------------------------------


def query_to_payload(query: ConjunctiveQuery) -> Dict[str, object]:
    """The JSON-safe query wire format -- exactly the structural
    fingerprint the caches key on, so one rendering serves both."""
    return query_fingerprint(query)


def query_from_payload(payload: Mapping) -> ConjunctiveQuery:
    """Rebuild a query from :func:`query_to_payload` output."""
    try:
        atoms = tuple(
            Atom(str(name), str(predicate), tuple(str(t) for t in terms))
            for name, predicate, terms in payload["atoms"]
        )
        return ConjunctiveQuery(
            atoms=atoms,
            output_variables=tuple(str(v) for v in payload["output"]),
            name=str(payload.get("name", "Q")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DatabaseError(f"malformed query payload: {exc!r}") from exc


def plan_to_payload(
    plan,
    *,
    budget: Optional[int] = None,
    threads: Optional[int] = None,
    memory_budget_bytes: Optional[int] = None,
    answer: str = "rows",
    deadline_seconds: Optional[float] = None,
    max_attempts: Optional[int] = None,
) -> Dict[str, object]:
    """One complete serving payload for a planned query.

    ``plan`` is a :class:`~repro.planner.plans.HypertreePlan` or
    :class:`~repro.planner.plans.JoinOrderPlan`; its decomposition /
    join order serialises through the PlanCache's payload format.
    ``planning_seconds`` rides along for reporting only (``0.0`` when the
    plan came out of a warm cache) -- workers never read it.
    ``deadline_seconds`` / ``max_attempts`` are pool-side scheduling knobs
    (wall-clock per attempt, and the retry budget for timed-out or
    crash-lost dispatches); workers never read them either.
    """
    if answer not in _ANSWER_MODES:
        raise DatabaseError(
            f"unknown answer mode {answer!r}; expected one of {_ANSWER_MODES}"
        )
    if hasattr(plan, "decomposition"):
        plan_meta: Dict[str, object] = {
            "kind": "hypertree",
            "decomposition": decomposition_to_payload(plan.decomposition),
        }
    elif hasattr(plan, "order"):
        plan_meta = {"kind": "join_order", "order": list(plan.order)}
    else:
        raise DatabaseError(
            f"cannot serialise plan of type {type(plan).__name__}"
        )
    payload: Dict[str, object] = {
        "format": SERVING_FORMAT,
        "version": SERVING_VERSION,
        "query": query_to_payload(plan.query),
        "plan": plan_meta,
        "answer": answer,
        "planning_seconds": float(plan.planning_seconds),
    }
    if budget is not None:
        payload["budget"] = int(budget)
    if threads is not None:
        payload["threads"] = int(threads)
    if memory_budget_bytes is not None:
        payload["memory_budget_bytes"] = int(memory_budget_bytes)
    if deadline_seconds is not None:
        payload["deadline_seconds"] = float(deadline_seconds)
    if max_attempts is not None:
        payload["max_attempts"] = int(max_attempts)
    return payload


def _check_payload(payload: Mapping) -> None:
    if not isinstance(payload, Mapping):
        raise DatabaseError(f"serving payload must be a mapping, got {payload!r}")
    if payload.get("format") != SERVING_FORMAT:
        raise DatabaseError(
            f"payload has format marker {payload.get('format')!r}, "
            f"expected {SERVING_FORMAT!r}"
        )
    if payload.get("version") != SERVING_VERSION:
        raise DatabaseError(
            f"payload is serving-format version {payload.get('version')!r}; "
            f"this build speaks version {SERVING_VERSION}"
        )
    if payload.get("answer", "rows") not in _ANSWER_MODES:
        raise DatabaseError(
            f"unknown answer mode {payload.get('answer')!r}; "
            f"expected one of {_ANSWER_MODES}"
        )
    deadline = payload.get("deadline_seconds")
    if deadline is not None:
        if isinstance(deadline, bool) or not isinstance(deadline, (int, float)):
            raise DatabaseError("payload 'deadline_seconds' must be a number")
        if float(deadline) <= 0:
            raise DatabaseError("payload 'deadline_seconds' must be positive")
    attempts = payload.get("max_attempts")
    if attempts is not None:
        if isinstance(attempts, bool) or not isinstance(attempts, int):
            raise DatabaseError("payload 'max_attempts' must be an integer")
        if attempts < 1:
            raise DatabaseError("payload 'max_attempts' must be >= 1")
    trace_req = payload.get("trace")
    if trace_req is not None and not isinstance(trace_req, bool):
        if not isinstance(trace_req, Mapping):
            raise DatabaseError(
                "payload 'trace' must be a boolean or a mapping"
            )
        trace_id = trace_req.get("id")
        if trace_id is not None and not isinstance(trace_id, (str, int)):
            raise DatabaseError("payload 'trace.id' must be a string or integer")


def answer_digest(result_payload: Mapping) -> str:
    """Content digest of a response's answer: canonical JSON over the
    attributes and rows (or the Boolean verdict).  Stable across engines,
    encodings and worker counts because the rows themselves are."""
    if result_payload.get("boolean") is not None:
        return canonical_digest({"boolean": result_payload["boolean"]})
    return canonical_digest(
        {
            "attributes": list(result_payload.get("attributes", ())),
            "rows": [list(row) for row in result_payload.get("rows", ())],
        }
    )


def strip_provenance(response: Mapping) -> Dict[str, object]:
    """A response without its non-deterministic sidecar blocks: the
    pool-side ``"serving"`` provenance and the ``"trace"`` span block.

    ``attempts``/``restarts`` depend on scheduling (which worker died
    when) and spans carry wall-clock timings, so oracle comparisons --
    pooled response vs in-process :func:`execute_payload` -- go through
    this helper; everything that remains is a function of (store bytes,
    payload) alone."""
    return {
        k: v for k, v in response.items() if k not in (PROVENANCE_KEY, TRACE_KEY)
    }


def execute_payload(payload: Mapping, database: Database) -> Dict[str, object]:
    """Run one serving payload against an open database and render the
    response payload.

    This single function is both the worker loop's body and the serial
    in-process oracle the test suites compare against -- by construction
    the pool cannot drift from the oracle.  A budget abort is a normal
    response (``status == "budget_exceeded"``) carrying the deterministic
    abort counters; only protocol violations raise.

    A truthy ``payload["trace"]`` (``True``, or ``{"id": <trace id>}``)
    records per-plan-node kernel spans during execution and attaches them
    as the :data:`TRACE_KEY` response block -- attached *after* the digest
    is computed and stripped by :func:`strip_provenance`, so traced and
    untraced responses are byte-identical everywhere else.
    """
    from repro.db.algebra import EvaluationBudgetExceeded

    _check_payload(payload)
    query = query_from_payload(payload["query"])
    plan_ir = plan_ir_from_payload(query, payload["plan"])
    answer_mode = payload.get("answer", "rows")
    trace_req = payload.get("trace")
    recorder = None
    trace_id = None
    if trace_req:
        recorder = TraceRecorder()
        trace_id = (
            trace_req.get("id") if isinstance(trace_req, Mapping) else None
        )
        if trace_id is None:
            trace_id = query.name

    def _trace_block() -> Dict[str, object]:
        return {
            "id": trace_id,
            "pid": os.getpid(),
            "spans": recorder.to_payload(),
        }

    try:
        with span_context(recorder, "execute", "serving", trace_id):
            result = execute_plan(
                plan_ir,
                database,
                budget=payload.get("budget"),
                threads=payload.get("threads"),
                memory_budget_bytes=payload.get("memory_budget_bytes"),
                trace=recorder,
                trace_id=trace_id,
            )
    except EvaluationBudgetExceeded as exc:
        response = {
            "status": "budget_exceeded",
            "query": query.name,
            "work_so_far": exc.work_so_far,
            "budget": exc.budget,
        }
        if recorder is not None:
            response[TRACE_KEY] = _trace_block()
        return response
    response: Dict[str, object] = {
        "status": "ok",
        "query": query.name,
        "boolean": result.boolean,
        "cardinality": result.cardinality,
        "stats": result.stats_payload(),
    }
    rows = result.answer_rows()
    if rows is not None:
        response["attributes"] = list(result.relation.attributes)
    if answer_mode == "rows":
        if rows is not None:
            response["rows"] = rows
    else:
        probe = dict(response)
        if rows is not None:
            probe["rows"] = rows
        response["digest"] = answer_digest(probe)
    if recorder is not None:
        response[TRACE_KEY] = _trace_block()
    return response


def aggregate_stats(responses: Iterable[Mapping]) -> Dict[str, object]:
    """Fold the ``stats`` payloads of many responses into one: counters
    sum, peaks max -- the same commutative merge
    :class:`~repro.db.algebra.OperatorStats` uses across threads, so the
    aggregate over any partition of a workload is partition-independent."""
    totals: Dict[str, int] = {}
    operations: Dict[str, int] = {}
    peak = 0
    for response in responses:
        stats = response.get("stats")
        if not stats:
            continue
        for key, value in stats.items():
            if key == "operations":
                for op, count in value.items():
                    operations[op] = operations.get(op, 0) + int(count)
            elif key == "peak_transient_elements":
                peak = max(peak, int(value))
            else:
                totals[key] = totals.get(key, 0) + int(value)
    totals["operations"] = {key: operations[key] for key in sorted(operations)}
    totals["peak_transient_elements"] = peak
    return totals


# ----------------------------------------------------------------------
# The worker process.
# ----------------------------------------------------------------------


def _store_report(database: Database) -> Dict[str, object]:
    """What a worker tells the pool about the store it opened: the catalog
    content digest (all workers must agree) and how many of its columns
    arrived as read-only ``np.memmap`` views (the bench asserts this is
    every column -- shared pages, not pickled copies)."""
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - row-engine fallback
        np = None
    total_columns = 0
    mmap_columns = 0
    for name in database.relation_names():
        relation = database.relation(name)
        columns = list(getattr(relation, "_columns", ()))
        selection = getattr(relation, "_selection", None)
        if selection is not None:
            columns.append(selection)
        for column in columns:
            total_columns += 1
            if np is not None and isinstance(column, np.memmap):
                mmap_columns += 1
    return {
        "pid": os.getpid(),
        "store_digest": store_digest(database.source_path),
        "relations": len(list(database.relation_names())),
        "total_columns": total_columns,
        "mmap_columns": mmap_columns,
    }


def _worker_main(worker_id, store_path, request_queue, response_queue, options):
    """Worker loop: open the store once, then serve payloads until told to
    stop.  Runs in a child process; communicates only via the two queues.
    Top-level (not nested) so ``spawn``-style contexts can import it.

    The options mapping may carry a ``"faults"`` payload -- the scripted
    :class:`~repro.db.faults.FaultPlan`, applied right before
    :func:`execute_payload` so injected crashes/raises/delays fire at an
    exact, reproducible point of the protocol.  Each worker process builds
    its own plan instance (fire counts reset on respawn).

    The hello report carries ``startup_seconds`` (process entry to ready)
    so slow spawn-method cold starts are visible at the pool; each result
    message carries the attempt's wall-clock seconds for the pool's
    ``worker_execute_seconds`` histogram."""
    started = time.monotonic()
    try:
        database = Database.open(
            store_path,
            columnar=options.get("columnar", True),
            threads=options.get("threads"),
            memory_budget_bytes=options.get("memory_budget_bytes"),
        )
        faults = None
        if options.get("faults"):
            faults = FaultPlan.from_payload(options["faults"])
        report = _store_report(database)
        report["startup_seconds"] = round(time.monotonic() - started, 6)
        response_queue.put(("hello", worker_id, report))
    except BaseException as exc:  # noqa: BLE001 - must report, not vanish
        response_queue.put(("fatal", worker_id, repr(exc)))
        return
    while True:
        message = request_queue.get()
        if message[0] == "stop":
            response_queue.put(("bye", worker_id, None))
            return
        _, request_id, attempt, payload = message
        attempt_started = time.monotonic()
        try:
            if faults is not None:
                faults.apply(
                    worker_id=worker_id, request_id=request_id, attempt=attempt
                )
            result = execute_payload(payload, database)
        except Exception as exc:  # noqa: BLE001 - ship the error, keep serving
            result = {"status": "error", "error": repr(exc)}
        elapsed = time.monotonic() - attempt_started
        response_queue.put(
            ("result", worker_id, request_id, attempt, result, elapsed)
        )


# ----------------------------------------------------------------------
# The pool.
# ----------------------------------------------------------------------


class _RequestState:
    """Pool-side bookkeeping for one admitted request."""

    __slots__ = (
        "payload", "attempts", "max_attempts", "deadline_seconds",
        "trace_id", "submitted_at", "enqueued_at",
    )

    def __init__(self, payload, max_attempts, deadline_seconds) -> None:
        self.payload = payload
        self.attempts = 0  # dispatches so far; bumped at dispatch time
        self.max_attempts = max_attempts
        self.deadline_seconds = deadline_seconds
        self.trace_id = None  # set when the pool traces requests
        self.submitted_at = 0.0  # monotonic admission instant
        self.enqueued_at = 0.0  # monotonic start of the current queue wait


class ServingPool:
    """A supervised pool of worker processes serving one stored database.

    Parameters
    ----------
    store_path:
        Directory of a stored database (:meth:`Database.save` output).
        Every worker ``Database.open()``'s it independently; the pool
        checks all workers report the same catalog content digest.
    workers:
        Number of worker processes (slots; a slot whose process dies is
        refilled by the supervisor while the restart budget lasts).
    global_memory_budget_bytes:
        Cap on the *sum* of admitted requests' memory slices.  ``None``
        disables budget-based admission (queue-length backpressure still
        applies).
    default_memory_budget_bytes:
        Slice charged to (and written into) a payload that does not set
        its own ``memory_budget_bytes``.  ``None`` means an unbudgeted
        payload claims the whole global budget -- heavy strangers
        serialise instead of overcommitting.
    max_pending:
        Most requests admitted but not yet collected.  Defaults to
        ``4 * workers``.
    mp_context:
        ``multiprocessing`` start-method name; defaults to
        ``REPRO_SERVE_MP_CONTEXT`` or ``"fork"`` where available.
    worker_threads / worker_memory_budget_bytes / columnar:
        Execution knobs each worker opens its database with (a payload's
        own knobs still override per request, exactly as in-process).
    startup_timeout:
        Seconds to wait for a worker's hello -- at pool startup (all
        workers; a miss is a hard :class:`ServingError`) and again for
        every supervisor respawn (a replacement that never reports is
        retired and counts as another death).
    max_worker_restarts:
        Total respawns the supervisor may perform over the pool's
        lifetime.  Once exhausted the pool *degrades*: new submissions
        are refused, surviving workers drain the already-admitted work.
    default_max_attempts:
        Attempt budget for payloads that do not set ``max_attempts``.
    default_deadline_seconds:
        Per-attempt wall-clock deadline for payloads that do not set
        ``deadline_seconds``; ``None`` defers to the
        ``REPRO_SERVE_DEADLINE_SECONDS`` environment default (unset =
        no deadline).
    retry_backoff_seconds:
        Base of the exponential backoff between attempts of one request
        (``base * 2**(attempt-1)``, capped at 2s).
    fault_plan:
        A :class:`~repro.db.faults.FaultPlan` (or its JSON payload)
        scripting deterministic worker faults; ``None`` defers to the
        ``REPRO_SERVE_FAULTS`` environment variable.
    trace:
        A :class:`~repro.obs.trace.TraceRecorder` collecting the pool's
        request-path spans (``admission``, ``queue``, ``attempt``) plus
        every worker's ingested kernel spans.  When set, payloads without
        their own ``"trace"`` key are shipped with one (id
        ``req-<request id>``) so workers record and return kernel spans.
        ``None`` (the default) disables span recording entirely -- the
        answer path is byte-identical either way.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` to record service
        counters and histograms into (admissions, rejections, retries,
        timeouts, restarts, worker startup/execute seconds).  ``None``
        creates a private live registry; ``False`` installs the null
        registry (observability fully off, the benchmark baseline).
    """

    def __init__(
        self,
        store_path,
        workers: int = 2,
        *,
        global_memory_budget_bytes: Optional[int] = None,
        default_memory_budget_bytes: Optional[int] = None,
        max_pending: Optional[int] = None,
        mp_context: Optional[str] = None,
        worker_threads: Optional[int] = None,
        worker_memory_budget_bytes: Optional[int] = None,
        columnar: bool = True,
        startup_timeout: float = 60.0,
        max_worker_restarts: int = 2,
        default_max_attempts: int = 3,
        default_deadline_seconds: Optional[float] = None,
        retry_backoff_seconds: float = 0.05,
        fault_plan=None,
        trace=None,
        metrics=None,
    ) -> None:
        import multiprocessing as mp

        self.store_path = str(store_path)
        self.workers = max(1, int(workers))
        self.global_memory_budget_bytes = global_memory_budget_bytes
        self.default_memory_budget_bytes = default_memory_budget_bytes
        self.max_pending = (
            4 * self.workers if max_pending is None else max(1, int(max_pending))
        )
        self.startup_timeout = float(startup_timeout)
        self.max_worker_restarts = max(0, int(max_worker_restarts))
        self.default_max_attempts = max(1, int(default_max_attempts))
        if default_deadline_seconds is None:
            default_deadline_seconds = number_from_env(DEADLINE_ENV, float)
        self.default_deadline_seconds = default_deadline_seconds
        self.retry_backoff_seconds = max(0.0, float(retry_backoff_seconds))
        self.trace = trace
        self.metrics = resolve_registry(metrics)
        plan = resolve_fault_plan(fault_plan)
        self._fault_payload = plan.to_payload() if plan is not None else None
        if mp_context is None:
            mp_context = os.environ.get(MP_CONTEXT_ENV, "").strip() or None
        if mp_context is None:
            mp_context = "fork" if "fork" in mp.get_all_start_methods() else None
        self._context = mp.get_context(mp_context)
        self._options = {
            "columnar": columnar,
            "threads": worker_threads,
            "memory_budget_bytes": worker_memory_budget_bytes,
            "faults": self._fault_payload,
        }
        self._next_request_id = 0
        self._pending: Dict[int, int] = {}  # request id -> admitted slice
        self._admitted_bytes = 0
        self._requests: Dict[int, _RequestState] = {}
        self._results: Dict[int, Dict[str, object]] = {}
        self._backlog: List[object] = []  # [not_before, request id], in order
        self._inflight: Dict[int, List] = {}  # worker -> [rid, attempt, t0, off]
        self._expired = set()  # collect()-abandoned ids: drain, never deliver
        self._workers: Dict[int, Dict[str, object]] = {}
        self._retired: List[object] = []  # dead processes, joined at close()
        self._broken: Optional[str] = None  # startup hard failure
        self._degraded: Optional[str] = None  # restart budget exhausted
        self._closed = False
        self.restarts = 0
        self._store_digest: Optional[str] = None
        self.worker_reports: Dict[int, Dict[str, object]] = {}
        for worker_id in range(self.workers):
            self._spawn_worker(worker_id)
        self._await_hellos(self.startup_timeout)

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "ServingPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def degraded(self) -> Optional[str]:
        """Why the pool stopped accepting submissions (``None`` while the
        restart budget lasts)."""
        return self._degraded

    @property
    def queue_depth(self) -> int:
        """Admitted requests waiting in the backlog (not yet dispatched)."""
        return len(self._backlog)

    @property
    def inflight_count(self) -> int:
        """Requests currently executing on a worker."""
        return len(self._inflight)

    @property
    def pending_count(self) -> int:
        """Requests admitted but not yet collected (backlog + in flight +
        resolved-but-uncollected)."""
        return len(self._pending)

    def _note_worker_ready(self, worker_id: int, report: Mapping) -> None:
        """Record a worker's startup-to-ready timing: histogram + log, so
        slow spawn-method cold starts are visible instead of silent."""
        startup_seconds = report.get("startup_seconds")
        if startup_seconds is None:
            return
        self.metrics.histogram("worker_startup_seconds").observe(
            float(startup_seconds)
        )
        _LOG.info(
            "worker %d (pid %s) ready in %.3fs",
            worker_id,
            report.get("pid"),
            float(startup_seconds),
        )

    def _spawn_worker(self, worker_id: int) -> None:
        """Start a (fresh) process in slot ``worker_id`` with its own
        request *and* response queues.  A respawn never reuses the dead
        worker's queues: a request sitting in the old one has already
        been requeued by the supervisor, and the replacement must not
        execute it twice.  Responses are per-worker on purpose -- fault
        isolation: a shared response queue has one cross-process write
        lock, and a worker dying right after a ``put`` (its feeder thread
        still holding that lock) would wedge *every* surviving worker's
        responses.  With a single writer per queue, a dying worker can
        only wedge its own channel, which the supervisor abandons anyway."""
        request_queue = self._context.Queue()
        response_queue = self._context.Queue()
        process = self._context.Process(
            target=_worker_main,
            args=(
                worker_id,
                self.store_path,
                request_queue,
                response_queue,
                self._options,
            ),
            daemon=True,
        )
        process.start()
        self._workers[worker_id] = {
            "process": process,
            "queue": request_queue,
            "response": response_queue,
            "state": "starting",
            "hello_deadline": time.monotonic() + self.startup_timeout,
        }

    def _await_hellos(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while any(w["state"] == "starting" for w in self._workers.values()):
            self._wait_for_traffic()
            progressed = False
            for worker_id, worker in self._workers.items():
                if worker["state"] != "starting":
                    continue
                try:
                    message = worker["response"].get_nowait()
                except queue.Empty:
                    process = worker["process"]
                    if not process.is_alive():
                        self._fail(
                            f"worker {worker_id} (pid {process.pid}) died "
                            f"during startup with exit code {process.exitcode}"
                        )
                    continue
                if message[0] == "fatal":
                    self._fail(
                        f"worker {message[1]} failed to open the store: "
                        f"{message[2]}"
                    )
                if message[0] != "hello":
                    self._fail(f"protocol violation during startup: {message!r}")
                self.worker_reports[message[1]] = message[2]
                worker["state"] = "ready"
                self._note_worker_ready(message[1], message[2])
                progressed = True
            if not progressed and time.monotonic() > deadline:
                ready = sum(
                    1 for w in self._workers.values() if w["state"] == "ready"
                )
                self._fail(
                    f"workers did not report within {timeout:.0f}s "
                    f"({ready}/{self.workers} hellos)"
                )
        digests = {report["store_digest"] for report in self.worker_reports.values()}
        if len(digests) != 1:
            self._fail(f"workers opened differing stores: digests {sorted(digests)}")
        self._store_digest = digests.pop()

    def _fail(self, reason: str):
        self._broken = reason
        self.close()
        raise ServingError(f"serving pool over {self.store_path!r} broken: {reason}")

    def close(self) -> None:
        """Stop every worker and reap the processes.  Idempotent; called
        automatically on context-manager exit and on pool breakage."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers.values():
            if worker["state"] != "dead" and worker["process"].is_alive():
                try:
                    worker["queue"].put(("stop",))
                except (OSError, ValueError):  # pragma: no cover - queue gone
                    pass
        for worker in self._workers.values():
            process = worker["process"]
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5.0)
        for process in self._retired:
            process.join(timeout=1.0)

    # -- supervision ---------------------------------------------------
    def _live_workers(self) -> bool:
        return any(
            w["state"] in ("ready", "starting") for w in self._workers.values()
        )

    def _next_timer(self) -> Optional[float]:
        """The earliest monotonic instant at which the supervisor has
        scheduled work of its own: a replacement worker's hello deadline,
        a backlogged retry's ``not_before``, or an in-flight attempt's
        request deadline.  ``None`` when every pending transition will be
        announced by a worker response or a process sentinel instead.

        Entries already due are *excluded*: every due transition is acted
        on by the ``_service`` pump that follows each wait, so anything
        still due-and-undone (e.g. a due retry with no idle worker) is
        waiting on worker traffic, not on a timer -- including it would
        turn the block into a busy spin.
        """
        now = time.monotonic()
        candidates = []
        for worker in self._workers.values():
            if worker["state"] == "starting":
                candidates.append(worker["hello_deadline"])
        for not_before, _ in self._backlog:
            if not_before > now:
                candidates.append(not_before)
        for entry in self._inflight.values():
            request_id, _, dispatched_at, written_off = entry
            if written_off:
                continue
            state = self._requests.get(request_id)
            if state is not None and state.deadline_seconds is not None:
                candidates.append(dispatched_at + state.deadline_seconds)
        return min(candidates) if candidates else None

    def _wait_for_traffic(self, limit: Optional[float] = None) -> None:
        """Block until a live worker's response channel becomes readable,
        any worker process dies (the process sentinel fires on death, so a
        crash wakes the supervisor immediately), the next internal timer
        (:meth:`_next_timer`) comes due, or ``limit`` seconds pass --
        whichever is first.  With no timer and no limit the wait is
        unbounded: every state change the supervisor could act on is then
        announced through one of the handles."""
        timeout = None
        timer = self._next_timer()
        if timer is not None:
            timeout = max(0.0, timer - time.monotonic())
        if limit is not None:
            timeout = limit if timeout is None else min(timeout, limit)
        handles = []
        for worker in self._workers.values():
            if worker["state"] == "dead":
                continue
            handles.append(worker["response"]._reader)
            handles.append(worker["process"].sentinel)
        if handles:
            _connection_wait(handles, timeout=timeout)
        elif timeout is not None:
            time.sleep(min(timeout, _POLL_SECONDS))
        else:
            time.sleep(_POLL_SECONDS)

    def _drain_worker(self, worker_id: int) -> None:
        worker = self._workers[worker_id]
        while True:
            try:
                message = worker["response"].get_nowait()
            except queue.Empty:
                break
            except (EOFError, OSError):  # pragma: no cover - torn final write
                break  # the writer died mid-put; the reaper handles it
            self._handle_message(message)
            if worker["state"] == "dead":  # retired while handling (hello
                break  # digest mismatch): stop reading its channel

    def _service(
        self, block: bool = False, wait_limit: Optional[float] = None
    ) -> None:
        """One pump of the supervisor: drain responses, reap dead workers
        (respawning while the budget lasts), fire request deadlines, and
        dispatch the backlog onto idle workers.  ``block=True`` first
        waits for worker traffic / the next internal timer (bounded by
        ``wait_limit`` when given) -- callers loop."""
        if block:
            self._wait_for_traffic(wait_limit)
        for worker_id in list(self._workers):
            self._drain_worker(worker_id)
        self._reap_dead_workers()
        self._fire_deadlines()
        self._dispatch()

    def _handle_message(self, message) -> None:
        kind = message[0]
        if kind == "result":
            _, worker_id, request_id, attempt, result, elapsed = message
            self.metrics.histogram("worker_execute_seconds").observe(elapsed)
            entry = self._inflight.get(worker_id)
            if (
                entry is not None
                and entry[0] == request_id
                and entry[1] == attempt
            ):
                self._inflight.pop(worker_id)
                if self.trace is not None:
                    state = self._requests.get(request_id)
                    self.trace.add_span(
                        "attempt",
                        "serving",
                        entry[2],
                        time.monotonic(),
                        trace_id=state.trace_id if state is not None else None,
                        attrs={
                            "request": request_id,
                            "attempt": attempt,
                            "worker": worker_id,
                            "status": result.get("status", "?"),
                        },
                    )
            if request_id in self._expired:
                return  # collect() gave up on it: drain, never deliver
            if request_id in self._results or request_id not in self._requests:
                return  # stale duplicate (an earlier attempt already won)
            if self.trace is not None:
                self.trace.ingest(result.get(TRACE_KEY))
            # First response wins; cancel any queued retry of the same id.
            self._results[request_id] = result
            self._backlog = [
                item for item in self._backlog if item[1] != request_id
            ]
        elif kind == "hello":
            _, worker_id, report = message
            worker = self._workers.get(worker_id)
            if worker is None or worker["state"] != "starting":
                return
            if (
                self._store_digest is not None
                and report.get("store_digest") != self._store_digest
            ):
                self._handle_death(
                    worker_id,
                    f"replacement worker {worker_id} disagreed about the "
                    f"store (digest {report.get('store_digest')!r} != "
                    f"{self._store_digest!r})",
                )
                return
            self.worker_reports[worker_id] = report
            worker["state"] = "ready"
            self._note_worker_ready(worker_id, report)
        elif kind == "fatal":
            _, worker_id, error = message
            worker = self._workers.get(worker_id)
            if worker is not None and worker["state"] != "dead":
                self._handle_death(
                    worker_id,
                    f"replacement worker {worker_id} failed to open the "
                    f"store: {error}",
                )
        # "bye" (clean shutdown acknowledgement) needs no action.

    def _reap_dead_workers(self) -> None:
        now = time.monotonic()
        for worker_id, worker in list(self._workers.items()):
            if worker["state"] == "dead":
                continue
            process = worker["process"]
            if not process.is_alive():
                self._handle_death(
                    worker_id,
                    f"worker {worker_id} (pid {process.pid}) died with "
                    f"exit code {process.exitcode}",
                )
            elif worker["state"] == "starting" and now > worker["hello_deadline"]:
                process.terminate()
                self._handle_death(
                    worker_id,
                    f"replacement worker {worker_id} did not report within "
                    f"{self.startup_timeout:.0f}s",
                )

    def _handle_death(self, worker_id: int, reason: str) -> None:
        """One worker is gone: respawn (budget permitting), requeue its
        in-flight request, degrade the pool when the budget is spent."""
        worker = self._workers[worker_id]
        if worker["state"] == "dead":
            return
        worker["state"] = "dead"
        process = worker["process"]
        if process.is_alive():  # retired, not crashed: make it so
            process.terminate()
        self._retired.append(process)
        entry = self._inflight.pop(worker_id, None)
        if self.restarts < self.max_worker_restarts:
            self.restarts += 1
            self.metrics.counter("worker_restarts").inc()
            self._spawn_worker(worker_id)
        elif self._degraded is None:
            self._degraded = (
                f"restart budget ({self.max_worker_restarts}) exhausted; "
                f"last death: {reason}"
            )
        if entry is not None:
            # The crashed attempt never sends a result message, so record
            # its span here -- the trace shows the failed attempt next to
            # the retry that replaces it.
            if self.trace is not None:
                state = self._requests.get(entry[0])
                self.trace.add_span(
                    "attempt",
                    "serving",
                    entry[2],
                    time.monotonic(),
                    trace_id=state.trace_id if state is not None else None,
                    attrs={
                        "request": entry[0],
                        "attempt": entry[1],
                        "worker": worker_id,
                        "status": "crashed",
                    },
                )
            if not entry[3]:
                self._requeue_or_fail(
                    entry[0], f"worker crashed mid-request: {reason}"
                )
        self._fail_unservable()

    def _requeue_or_fail(
        self, request_id: int, reason: str, *, timeout: bool = False
    ) -> None:
        """A dispatched attempt was lost (crash) or written off (deadline):
        schedule a retry with exponential backoff, or -- attempt budget or
        workers exhausted -- resolve the request to an error record."""
        state = self._requests.get(request_id)
        if state is None or request_id in self._results:
            return
        if state.attempts < state.max_attempts and self._live_workers():
            delay = min(
                self.retry_backoff_seconds * (2 ** (state.attempts - 1)),
                _MAX_BACKOFF_SECONDS,
            )
            self.metrics.counter("retries").inc()
            state.enqueued_at = time.monotonic()
            self._backlog.append([time.monotonic() + delay, request_id])
            return
        self.metrics.counter("request_errors").inc()
        record: Dict[str, object] = {
            "status": "error",
            "error": f"{reason} (after {state.attempts} attempt(s))",
            "attempts": state.attempts,
        }
        if timeout:
            record["timeout"] = True
        self._results[request_id] = record

    def _fire_deadlines(self) -> None:
        now = time.monotonic()
        for entry in self._inflight.values():
            request_id, attempt, dispatched_at, written_off = entry
            if written_off:
                continue
            state = self._requests.get(request_id)
            if state is None or state.deadline_seconds is None:
                continue
            if now - dispatched_at > state.deadline_seconds:
                # The attempt is written off (its late response is still
                # accepted if it beats the retry -- first response wins),
                # but the worker stays busy until it actually answers.
                entry[3] = True
                self.metrics.counter("deadline_timeouts").inc()
                self._requeue_or_fail(
                    request_id,
                    f"request {request_id} attempt {attempt} exceeded its "
                    f"{state.deadline_seconds}s deadline",
                    timeout=True,
                )

    def _fail_unservable(self) -> None:
        """No live workers remain: resolve everything still queued to
        error records (completed responses stay collectable)."""
        if self._live_workers():
            return
        reason = self._degraded or "no live workers remain"
        for item in self._backlog:
            request_id = item[1]
            state = self._requests.get(request_id)
            if state is None or request_id in self._results:
                continue
            self._results[request_id] = {
                "status": "error",
                "error": f"request {request_id} is unservable: {reason}",
                "attempts": state.attempts,
            }
        self._backlog = []

    def _dispatch(self) -> None:
        """Send due backlog entries (submission order) to idle workers,
        one in-flight request per worker."""
        if not self._backlog:
            return
        idle = [
            worker_id
            for worker_id, worker in self._workers.items()
            if worker["state"] == "ready" and worker_id not in self._inflight
        ]
        now = time.monotonic()
        remaining: List[object] = []
        for item in self._backlog:
            not_before, request_id = item
            if (
                request_id in self._results
                or request_id in self._expired
                or request_id not in self._requests
            ):
                continue
            if not idle or not_before > now:
                remaining.append(item)
                continue
            worker_id = idle.pop(0)
            state = self._requests[request_id]
            state.attempts += 1
            try:
                self._workers[worker_id]["queue"].put(
                    ("run", request_id, state.attempts, state.payload)
                )
            except (OSError, ValueError):  # pragma: no cover - queue gone
                state.attempts -= 1
                remaining.append(item)
                continue
            self.metrics.counter("dispatches").inc()
            if self.trace is not None:
                self.trace.add_span(
                    "queue",
                    "serving",
                    state.enqueued_at,
                    now,
                    trace_id=state.trace_id,
                    attrs={
                        "request": request_id,
                        "attempt": state.attempts,
                        "worker": worker_id,
                    },
                )
            self._inflight[worker_id] = [request_id, state.attempts, now, False]
        self._backlog = remaining

    def _expire(self, request_id: int) -> None:
        """collect() gave up on a request: release its admission slice and
        remember the id so any late response is drained, not misdelivered."""
        self._expired.add(request_id)
        self._requests.pop(request_id, None)
        self._results.pop(request_id, None)
        self._admitted_bytes -= self._pending.pop(request_id, 0)
        self._backlog = [item for item in self._backlog if item[1] != request_id]
        for entry in self._inflight.values():
            if entry[0] == request_id:
                entry[3] = True

    # -- admission and dispatch ----------------------------------------
    def _admission_slice(self, payload: Mapping) -> Optional[int]:
        slice_bytes = payload.get("memory_budget_bytes")
        if slice_bytes is None:
            slice_bytes = self.default_memory_budget_bytes
        if slice_bytes is None:
            # Unbudgeted request under a global budget: claim it all, so
            # it runs alone rather than overcommitting the budget.
            return self.global_memory_budget_bytes
        return int(slice_bytes)

    def submit(self, payload: Mapping) -> int:
        """Admit one payload and queue it for dispatch.

        Returns the request id (collect order is the submission order).
        Raises :class:`AdmissionRejected` -- without side effects -- when
        the pending queue is full or the payload's memory slice does not
        fit the remaining global budget; and :class:`ServingError` when
        the pool is broken, degraded (restart budget exhausted) or
        closed.
        """
        if self._broken:
            raise ServingError(f"serving pool is broken: {self._broken}")
        if self._closed:
            raise ServingError("serving pool is closed")
        self._service(block=False)
        if self._degraded:
            raise ServingError(f"serving pool is broken (degraded): {self._degraded}")
        admission_started = time.monotonic()
        _check_payload(payload)
        if len(self._pending) >= self.max_pending:
            self.metrics.counter("admission_rejected").inc()
            raise AdmissionRejected(
                f"{len(self._pending)} requests pending (max {self.max_pending}); "
                "collect responses before submitting more"
            )
        slice_bytes = self._admission_slice(payload)
        budget = self.global_memory_budget_bytes
        if budget is not None:
            needed = budget if slice_bytes is None else slice_bytes
            if needed > budget:
                self.metrics.counter("admission_rejected").inc()
                raise AdmissionRejected(
                    f"request needs a {needed:,}-byte memory slice; the "
                    f"global budget is {budget:,} bytes"
                )
            if self._admitted_bytes + needed > budget:
                self.metrics.counter("admission_rejected").inc()
                raise AdmissionRejected(
                    f"admitting a {needed:,}-byte slice would exceed the "
                    f"global budget ({self._admitted_bytes:,} of {budget:,} "
                    "bytes already admitted); collect responses first"
                )
        shipped = dict(payload)
        if slice_bytes is not None:
            # The number that gated admission also bounds execution.
            shipped["memory_budget_bytes"] = int(slice_bytes)
        request_id = self._next_request_id
        self._next_request_id += 1
        charged = 0
        if budget is not None:
            charged = budget if slice_bytes is None else slice_bytes
        self._pending[request_id] = charged
        self._admitted_bytes += charged
        deadline_seconds = shipped.get("deadline_seconds")
        if deadline_seconds is None:
            deadline_seconds = self.default_deadline_seconds
        max_attempts = shipped.get("max_attempts")
        if max_attempts is None:
            max_attempts = self.default_max_attempts
        state = _RequestState(shipped, int(max_attempts), deadline_seconds)
        self.metrics.counter("requests_admitted").inc()
        if self.trace is not None:
            trace_req = shipped.get("trace")
            if isinstance(trace_req, Mapping) and trace_req.get("id") is not None:
                state.trace_id = trace_req["id"]
            else:
                state.trace_id = f"req-{request_id}"
                # Ship a trace request so the worker records and returns
                # per-plan-node kernel spans for this id.
                shipped["trace"] = {"id": state.trace_id}
        now = time.monotonic()
        state.submitted_at = admission_started
        state.enqueued_at = now
        if self.trace is not None:
            self.trace.add_span(
                "admission",
                "serving",
                admission_started,
                now,
                trace_id=state.trace_id,
                attrs={"request": request_id, "slice_bytes": charged},
            )
        self._requests[request_id] = state
        self._backlog.append([0.0, request_id])
        self._service(block=False)
        return request_id

    def collect(self, request_id: int, timeout: Optional[float] = None) -> Dict[str, object]:
        """The response for one admitted request (blocks until resolved).

        Releases the request's admitted memory slice.  Worker deaths,
        injected faults and per-attempt deadlines resolve the request to
        an ``"error"`` record rather than raising -- :class:`ServingError`
        here means the pool never started properly, the id is unknown, or
        the *caller's* ``timeout`` expired.  A caller timeout releases the
        admission slice and marks the request expired, so a late response
        is drained, never misdelivered to a later request.
        """
        if request_id not in self._requests and request_id not in self._results:
            raise ServingError(f"unknown or already-collected request {request_id}")
        if self._broken:
            raise ServingError(f"serving pool is broken: {self._broken}")
        deadline = None if timeout is None else time.monotonic() + timeout
        while request_id not in self._results:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            self._service(block=True, wait_limit=remaining)
            if request_id in self._results:
                break
            if deadline is not None and time.monotonic() > deadline:
                self._expire(request_id)
                raise ServingError(
                    f"request {request_id} not answered within {timeout}s; "
                    "its admission slice was released and any late response "
                    "will be discarded"
                )
        return self._finish_collect(request_id)

    def _finish_collect(self, request_id: int) -> Dict[str, object]:
        """Hand a resolved result to the caller: release the admission
        slice and attach the scheduling provenance block."""
        state = self._requests.pop(request_id, None)
        self._admitted_bytes -= self._pending.pop(request_id, 0)
        response = dict(self._results.pop(request_id))
        response[PROVENANCE_KEY] = {
            "attempts": state.attempts if state is not None else 0,
            "restarts": self.restarts,
        }
        return response

    def try_collect(self, request_id: int) -> Optional[Dict[str, object]]:
        """Non-blocking :meth:`collect`: pump the supervisor once and
        return the response if the request has resolved, else ``None``
        (the request stays admitted).  Raises :class:`ServingError` for an
        unknown/already-collected id or a broken pool, exactly like
        :meth:`collect`.  This is the poll the daemon's dispatcher thread
        uses to multiplex many connections over one pool without blocking
        any of them on another's request."""
        if request_id not in self._requests and request_id not in self._results:
            raise ServingError(f"unknown or already-collected request {request_id}")
        if self._broken:
            raise ServingError(f"serving pool is broken: {self._broken}")
        self._service(block=False)
        if request_id not in self._results:
            return None
        return self._finish_collect(request_id)

    def service(self, timeout: float = 0.0) -> None:
        """Pump the supervisor once without collecting anything: drain
        worker responses, reap/respawn the dead, fire deadlines, dispatch
        the backlog.  ``timeout > 0`` blocks up to that long for worker
        traffic or the next internal timer first -- the daemon's
        dispatcher calls this between connection commands so supervision
        (crash recovery, deadline firing) advances even while no caller
        is blocked in :meth:`collect`."""
        self._service(block=timeout > 0, wait_limit=timeout if timeout > 0 else None)

    def abandon(self, request_id: int) -> None:
        """Give up on an admitted request whose caller is gone (e.g. the
        daemon connection that submitted it disconnected): release its
        admission slice immediately and mark the id expired so a late
        response is drained, never misdelivered.  Idempotent; unknown or
        already-collected ids are a no-op -- the caller vanishing twice
        must not break the pool."""
        if request_id in self._requests or request_id in self._results:
            self._expire(request_id)

    def run(self, payloads: Sequence[Mapping]) -> List[Dict[str, object]]:
        """Serve a batch: submit everything (waiting out backpressure by
        collecting), return responses in submission order.

        Never raises away completed work: a submission the degraded pool
        refuses becomes a per-request ``"error"`` record in its slot, so
        a batch that outlives the restart budget yields partial results.
        """
        ids: List[Optional[int]] = []
        responses: Dict[int, Dict[str, object]] = {}
        refused: Dict[int, Dict[str, object]] = {}  # position -> error record
        for position, payload in enumerate(payloads):
            while True:
                try:
                    ids.append(self.submit(payload))
                    break
                except AdmissionRejected:
                    uncollected = [
                        rid for rid in ids if rid is not None and rid not in responses
                    ]
                    if not uncollected:
                        raise  # cannot ever fit: surface the rejection
                    oldest = min(uncollected)
                    responses[oldest] = self.collect(oldest)
                except ServingError as exc:
                    refused[position] = {
                        "status": "error",
                        "error": f"request not admitted: {exc}",
                        PROVENANCE_KEY: {"attempts": 0, "restarts": self.restarts},
                    }
                    ids.append(None)
                    break
        for request_id in ids:
            if request_id is not None and request_id not in responses:
                responses[request_id] = self.collect(request_id)
        return [
            refused[position] if request_id is None else responses[request_id]
            for position, request_id in enumerate(ids)
        ]


# ----------------------------------------------------------------------
# Warm-up: statistics refresh + plan-cache pre-warming.
# ----------------------------------------------------------------------


def prewarm(
    database: Database,
    queries: Sequence[ConjunctiveQuery],
    *,
    k_values: Sequence[int] = (2, 3, 4),
    plan_cache: Optional[PlanCache] = None,
    completion: str = "fresh",
    analyze: bool = False,
    budget: Optional[int] = None,
    threads: Optional[int] = None,
    memory_budget_bytes: Optional[int] = None,
    answer: str = "rows",
) -> List[Dict[str, object]]:
    """Plan the known query set once and return ready-to-ship payloads.

    For each query the best structural plan over ``k_values`` wins (by
    estimated cost, smallest ``k`` breaking ties -- the planner's own
    preference); a query no ``k`` admits falls back to the baseline
    join-order plan.  All planning goes through ``plan_cache`` when given,
    so a *second* prewarm over an unchanged store replays stored plans and
    every returned payload reports ``planning_seconds == 0.0`` -- the
    steady-state the serving bench measures.  ``analyze=True`` refreshes
    the statistics catalog first (which changes the statistics digest and
    thereby invalidates stale cache entries, never replaying plans against
    outdated cardinalities).
    """
    # Planner imports stay lazy: db.serving must not pull the planner layer
    # in at import time (layering: planner -> db, not db -> planner).
    from repro.exceptions import PlanningError
    from repro.planner.compare import _cached_baseline_plan, _cached_structural_plan
    from repro.planner.cost_k_decomp import planning_family

    if analyze:
        database.analyze()
    statistics = database.statistics
    payloads: List[Dict[str, object]] = []
    for query in queries:
        # One shared CostPlanningFamily per query (memoised: built only if
        # some k actually misses the cache), matching compare_planners.
        shared: list = []

        def family_factory(query=query, shared=shared):
            if not shared:
                shared.append(
                    planning_family(query, statistics, completion=completion)
                )
            return shared[0]

        best = None
        planning_seconds = 0.0
        for k in k_values:
            try:
                plan = _cached_structural_plan(
                    query, statistics, int(k), completion, family_factory, plan_cache
                )
            except PlanningError:
                continue
            planning_seconds += plan.planning_seconds
            if best is None or plan.estimated_cost < best.estimated_cost:
                best = plan
        if best is None:
            best = _cached_baseline_plan(query, statistics, plan_cache)
            planning_seconds += best.planning_seconds
        payload = plan_to_payload(
            best,
            budget=budget,
            threads=threads,
            memory_budget_bytes=memory_budget_bytes,
            answer=answer,
        )
        payload["planning_seconds"] = planning_seconds
        payloads.append(payload)
    return payloads
