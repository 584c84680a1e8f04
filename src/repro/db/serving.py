"""Process-parallel serving plane: an mmap-shared worker pool with
budget-aware admission and plan-replay warm-up.

The storage plane (:mod:`repro.db.storage`) already lets any number of
processes ``Database.open()`` one stored workload and map every column
file read-only with ``np.memmap`` -- one physical copy of the data, no
column pickling, page cache shared by the kernel.  This module builds the
serving tier on top of that property:

**Wire format.**  A request is a compact JSON-safe *payload* -- the query
fingerprint (:func:`~repro.db.storage.query_fingerprint`: atom names,
predicates, term tuples, output variables) plus the plan's own
``to_payload()`` block, the same one the PlanCache stores (``{"kind":
"join_order", "order": [...]}`` or ``{"kind": "hypertree", "decomposition":
{...}}``; estimates ride along as extra keys) plus the execution knobs
(``budget``, ``threads``, ``memory_budget_bytes``) and the answer mode
(``"rows"`` ships decoded rows, ``"digest"`` a SHA-256 over the canonical
answer rendering).  No pickled plan object, column or
relation ever crosses the process boundary; a payload round-trips through
``json.dumps`` unchanged.  Responses carry the answer (or digest), the
cardinality and the :meth:`ExecutionResult.stats_payload` work counters.

**Determinism.**  Worker processes run :func:`execute_payload` -- the very
function the serial oracle runs in-process.  The payload rebuilds the
query with :func:`query_from_payload`, the plan IR with
:func:`~repro.db.plan_ir.plan_ir_from_payload` (which refuses a
decomposition that is not a complete hypertree decomposition of the
query's own hypergraph -- once, in the worker; admission does not decode
plans), and executes on the shared kernels.  Because
answers, row order and every :meth:`stats_payload` field are functions of
(store bytes, payload) alone -- pinned by the storage and serving
Hypothesis suites -- a pooled response is byte-identical to the serial
in-process response, worker count and scheduling notwithstanding.  A
budget abort is equally deterministic at ``threads == 1``: the response
reports ``work_so_far`` and abort-time counters equal to the serial
abort's.

**Lifecycle.**  What happens to a request between :meth:`ServingPool.submit`
and :meth:`ServingPool.collect` -- admission under a slice of the pool's
global memory budget (:class:`AdmissionRejected` backpressure instead of
memory exhaustion; the admitted slice is written into the payload, so the
number that gated admission also bounds the kernels), dispatch, per-attempt
``deadline_seconds``, retry with backoff up to ``max_attempts``, worker
death and respawn within ``max_worker_restarts``, degradation to partial
results -- is decided by one sans-IO state machine,
:class:`repro.db.lifecycle.RequestLifecycle`; :class:`ServingPool` is that
core plus the process transport, and :mod:`repro.db.faults` scripts every
failure it handles.  A worker that *raises* ships an ``"error"`` response
for that request only; a lost or timed-out request resolves to an
``"error"`` record (``"timeout": true`` for deadlines), never a raise.
Every pooled response carries a ``"serving"`` provenance block
(``attempts``, ``restarts``) -- excluded from :func:`answer_digest`, like
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
import sys
import time
from multiprocessing.connection import wait as _connection_wait
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence

from repro.db.database import Database
from repro.db.executor import execute_plan
from repro.db.faults import FaultPlan, resolve_fault_plan
from repro.db.lifecycle import AdmissionRejected, RequestLifecycle, ServingError
from repro.db.plan_ir import plan_ir_from_payload
from repro.db.storage import (
    PlanCache,
    canonical_digest,
    query_fingerprint,
    store_digest,
)
from repro.exceptions import DatabaseError, PlanningError
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

#: Environment variable naming the multiprocessing start method (a
#: deployment setting; see :class:`ServingPool`).
MP_CONTEXT_ENV = "REPRO_SERVE_MP_CONTEXT"

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

#: Sleep (seconds) for the rare state with nothing to select on (no live
#: worker handles).  The pool normally blocks directly on worker response
#: channels / process sentinels plus the core's timers, so traffic and
#: crashes wake it immediately.
_POLL_SECONDS = 0.1


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
    :class:`~repro.planner.plans.JoinOrderPlan`; the ``"plan"`` block is its
    ``to_payload()``.  ``planning_seconds`` rides along for reporting only
    (``0.0`` when the plan came out of a warm cache) -- workers never read it.
    ``deadline_seconds`` / ``max_attempts`` are pool-side scheduling knobs
    (wall-clock per attempt, and the retry budget for timed-out or
    crash-lost dispatches); workers never read them either.
    """
    if answer not in _ANSWER_MODES:
        raise DatabaseError(
            f"unknown answer mode {answer!r}; expected one of {_ANSWER_MODES}"
        )
    payload: Dict[str, object] = {
        "format": SERVING_FORMAT,
        "version": SERVING_VERSION,
        "query": query_to_payload(plan.query),
        "plan": plan.to_payload(),
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
        # NaN, infinities and ints past the float range all fail here.
        if not 0 < deadline <= sys.float_info.max:
            raise DatabaseError(
                "payload 'deadline_seconds' must be positive and finite"
            )
    for knob, minimum in (
        ("budget", 0),
        ("threads", 1),
        ("max_attempts", 1),
        ("memory_budget_bytes", 0),
    ):
        value = payload.get(knob)
        if value is not None:
            if isinstance(value, bool) or not isinstance(value, int):
                raise DatabaseError(f"payload {knob!r} must be an integer")
            if value < minimum:
                raise DatabaseError(f"payload {knob!r} must be >= {minimum}")
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

    A payload with a ``"prewarm"`` block (``queries`` as
    :func:`query_to_payload` renders them, ``k_values``, ``analyze``) is a
    statistics refresh instead: it is answered with ``{"status": "ok",
    "payloads": prewarm(...)}``, planned through the store's
    ``plans`` :class:`PlanCache`.
    """
    from repro.db.algebra import EvaluationBudgetExceeded

    _check_payload(payload)
    if "prewarm" in payload:
        block = payload["prewarm"]
        keys = {"queries", "k_values", "analyze"}
        if not isinstance(block, Mapping) or set(block) != keys:
            raise DatabaseError(f"a prewarm block holds exactly {sorted(keys)}")
        queries = [query_from_payload(query) for query in block["queries"]]
        plans = PlanCache(os.path.join(database.source_path, "plans"))
        payloads = prewarm(
            database, queries, k_values=block["k_values"], plan_cache=plans,
            analyze=block["analyze"] is True, answer=payload.get("answer", "rows"),
        )
        return {"status": "ok", "payloads": payloads}
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


def _worker_main(worker_id, store_path, request_queue, response_queue, fault_payload):
    """Worker loop: open the store once, then serve payloads until told to
    stop.  Runs in a child process; communicates only via the two queues.
    Top-level (not nested) so ``spawn``-style contexts can import it.

    ``fault_payload`` is the scripted :class:`~repro.db.faults.FaultPlan`
    (or ``None``), applied right before :func:`execute_payload` so injected
    crashes/raises/delays fire at an exact, reproducible point of the
    protocol.  Each worker process builds its own plan instance (fire
    counts reset on respawn).

    The hello report carries ``startup_seconds`` (process entry to ready)
    so slow spawn-method cold starts are visible at the pool; each result
    message carries the attempt's wall-clock seconds for the pool's
    ``worker_execute_seconds`` histogram."""
    started = time.monotonic()
    try:
        database = Database.open(store_path)
        faults = FaultPlan.from_payload(fault_payload) if fault_payload else None
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
# The pool: the lifecycle core + the process transport.
# ----------------------------------------------------------------------


class _Worker(NamedTuple):
    """The transport's handles on one live worker process."""

    process: object
    requests: object  # pool -> worker
    responses: object  # worker -> pool


class ServingPool:
    """A supervised pool of worker processes serving one stored database.

    Every decision -- admission, dispatch, deadlines, retries, restarts,
    degradation -- is :class:`~repro.db.lifecycle.RequestLifecycle`'s; this
    class is its process transport: it spawns and reaps worker processes,
    blocks on their channels and sentinels, turns what it reads into core
    events and carries out the core's effects.  Start-up, steady state and
    respawn all run the one :meth:`pump`.

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
    max_worker_restarts:
        Total respawns the supervisor may perform over the pool's
        lifetime.  Once exhausted the pool *degrades*: new submissions
        are refused, surviving workers drain the already-admitted work.
    default_max_attempts:
        Attempt budget for payloads that do not set ``max_attempts``.
    default_deadline_seconds:
        Per-attempt wall-clock deadline for payloads that do not set
        ``deadline_seconds``; ``None`` means no deadline.
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

    Workers start with the ``multiprocessing`` method named by
    ``REPRO_SERVE_MP_CONTEXT`` (``fork`` where available: workers inherit
    the imported modules and start in milliseconds; ``spawn`` and
    ``forkserver`` work identically, just slower to boot, because workers
    share nothing but the store path) and get 60 s to say hello.
    """

    def __init__(
        self,
        store_path,
        workers: int = 2,
        *,
        global_memory_budget_bytes: Optional[int] = None,
        default_memory_budget_bytes: Optional[int] = None,
        max_pending: Optional[int] = None,
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
        self.trace = trace
        self.metrics = resolve_registry(metrics)
        self._core = RequestLifecycle(
            workers,
            global_memory_budget_bytes=global_memory_budget_bytes,
            default_memory_budget_bytes=default_memory_budget_bytes,
            max_pending=max_pending,
            max_worker_restarts=max_worker_restarts,
            default_max_attempts=default_max_attempts,
            default_deadline_seconds=default_deadline_seconds,
            retry_backoff_seconds=retry_backoff_seconds,
            metrics=self.metrics,
            span=self._span if trace is not None else None,
        )
        plan = resolve_fault_plan(fault_plan)
        self._fault_payload = plan.to_payload() if plan is not None else None
        method = os.environ.get(MP_CONTEXT_ENV, "").strip() or None
        if method is None and "fork" in mp.get_all_start_methods():
            method = "fork"
        self._context = mp.get_context(method)
        self._workers: Dict[int, _Worker] = {}  # live processes by slot
        self._retired: List[object] = []  # dead processes, joined at close()
        self._closed = False
        self._core.start(time.monotonic())
        self._perform()
        while not self._core.started and self._core.broken is None:
            self.pump(None)
        if self._core.broken is not None:
            self.close()
            raise ServingError(
                f"serving pool over {self.store_path!r} broken: {self._core.broken}"
            )

    def __enter__(self) -> "ServingPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- views over the core -------------------------------------------
    @property
    def restarts(self) -> int:
        """Respawns performed so far."""
        return self._core.restarts

    @property
    def degraded(self) -> Optional[str]:
        """Why the pool stopped accepting submissions (``None`` while the
        restart budget lasts)."""
        return self._core.degraded

    @property
    def worker_reports(self) -> Dict[int, Mapping]:
        """The latest hello report of every worker slot."""
        return self._core.reports

    @property
    def queue_depth(self) -> int:
        """Admitted requests waiting for a worker (not yet dispatched)."""
        return self._core.queue_depth

    @property
    def inflight_count(self) -> int:
        """Requests currently executing on a worker."""
        return self._core.inflight_count

    @property
    def pending_count(self) -> int:
        """Requests admitted but not yet collected (queued + in flight +
        resolved-but-uncollected)."""
        return len(self._core.requests)

    @property
    def admitted_bytes(self) -> int:
        """Sum of the admission slices currently charged."""
        return self._core.admitted_bytes

    # -- the process transport -----------------------------------------
    def _span(self, name: str, start: float, end: float, request, **attrs) -> None:
        self.trace.add_span(
            name, "serving", start, end,
            trace_id=request.trace_id, attrs={"request": request.id, **attrs},
        )

    def _perform(self) -> None:
        """Carry out the effects the core has queued."""
        effects, self._core.effects = self._core.effects, []
        for kind, worker_id, *args in effects:
            if kind == "dispatch":
                self._workers[worker_id].requests.put(("run", *args))
            elif kind == "retire":
                process = self._workers.pop(worker_id).process
                if process.is_alive():  # retired, not crashed: make it so
                    process.terminate()
                self._retired.append(process)
            else:
                self._spawn_worker(worker_id)

    def _spawn_worker(self, worker_id: int) -> None:
        """Start a (fresh) process in slot ``worker_id`` with its own
        request *and* response queues.  A respawn never reuses the dead
        worker's queues: a request sitting in the old one has already
        been requeued by the core, and the replacement must not execute
        it twice.  Responses are per-worker on purpose -- fault
        isolation: a shared response queue has one cross-process write
        lock, and a worker dying right after a ``put`` (its feeder thread
        still holding that lock) would wedge *every* surviving worker's
        responses.  With a single writer per queue, a dying worker can
        only wedge its own channel, which the pool abandons anyway."""
        requests = self._context.Queue()
        responses = self._context.Queue()
        process = self._context.Process(
            target=_worker_main,
            args=(worker_id, self.store_path, requests, responses, self._fault_payload),
            daemon=True,
        )
        process.start()
        self._workers[worker_id] = _Worker(process, requests, responses)

    def wait_handles(self) -> List[object]:
        """What a caller's own wait set must watch to know when :meth:`pump`
        has work: every live worker's response channel and process
        sentinel (the sentinel fires on death, so a crash wakes the waiter
        immediately).  The handles change whenever a worker is respawned."""
        handles: List[object] = []
        for worker in self._workers.values():
            handles.append(worker.responses._reader)
            handles.append(worker.process.sentinel)
        return handles

    def next_timer(self, now: float) -> Optional[float]:
        """The instant by which :meth:`pump` must run again even if no
        handle fires (a hello, retry or attempt deadline); ``None`` when
        every pending transition is announced through a handle."""
        return self._core.next_timer(now)

    def _wait(self, limit: Optional[float]) -> None:
        """Block until a wait handle fires, the next timer comes due or
        ``limit`` seconds pass -- whichever is first.  With no timer and no
        limit the wait is unbounded: every state change the core could act
        on is then announced through one of the handles."""
        now = time.monotonic()
        timer = self.next_timer(now)
        timeout = None if timer is None else max(0.0, timer - now)
        if limit is not None:
            timeout = limit if timeout is None else min(timeout, limit)
        handles = self.wait_handles()
        if handles:
            _connection_wait(handles, timeout=timeout)
        elif timeout is None or timeout > _POLL_SECONDS:
            time.sleep(_POLL_SECONDS)  # nothing to select on
        else:
            time.sleep(timeout)

    def _handle_message(self, message) -> None:
        core = self._core
        kind, worker_id = message[:2]
        now = time.monotonic()
        if kind == "result":
            _, _, request_id, attempt, result, elapsed = message
            self.metrics.histogram("worker_execute_seconds").observe(elapsed)
            if core.result(worker_id, request_id, attempt, result, now):
                if self.trace is not None:
                    self.trace.ingest(result.get(TRACE_KEY))
        elif kind == "hello":
            report = message[2]
            if core.hello(worker_id, report, now):
                # Slow spawn-method cold starts are visible, not silent.
                seconds = float(report.get("startup_seconds", 0.0))
                self.metrics.histogram("worker_startup_seconds").observe(seconds)
                _LOG.info(
                    "worker %d (pid %s) ready in %.3fs",
                    worker_id, report.get("pid"), seconds,
                )
        elif kind == "fatal":
            core.fatal(worker_id, message[2], now)
        # "bye" (clean shutdown acknowledgement) needs no action.
        self._perform()

    def pump(self, timeout: Optional[float] = 0.0) -> List[int]:
        """One turn of the pool: wait up to ``timeout`` seconds (``None``:
        until something happens, ``0``: not at all) for worker traffic or
        the core's next timer, then feed the core everything that
        happened -- worker messages, process deaths, the clock -- and carry
        out its effects.  Returns the ids whose responses are ready, each
        for one :meth:`collect` -- the daemon's loop serves every
        connection from this one call."""
        core = self._core
        if timeout is None or timeout > 0:
            self._wait(timeout)
        for worker_id, worker in list(self._workers.items()):
            # A message may retire the worker (hello digest mismatch,
            # fatal): stop reading its channel then.
            while self._workers.get(worker_id) is worker:
                try:
                    message = worker.responses.get_nowait()
                except queue.Empty:
                    break
                except (EOFError, OSError):  # pragma: no cover - torn final write
                    break  # the writer died mid-put; reaped below
                self._handle_message(message)
        now = time.monotonic()
        for worker_id, worker in self._workers.items():
            process = worker.process
            if not process.is_alive():
                core.death(
                    worker_id,
                    f"worker {worker_id} (pid {process.pid}) died with "
                    f"exit code {process.exitcode}",
                    now,
                )
        core.tick(now)
        self._perform()
        return core.resolved()

    def close(self) -> None:
        """Stop every worker and reap the processes.  Idempotent; called
        automatically on context-manager exit and on pool breakage."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers.values():
            if worker.process.is_alive():
                worker.requests.put(("stop",))
        for worker in self._workers.values():
            process = worker.process
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5.0)
        for process in self._retired:
            process.join(timeout=1.0)

    # -- the caller's surface ------------------------------------------
    def submit(self, payload: Mapping) -> int:
        """Admit one payload and queue it for dispatch.

        Returns the request id (collect order is the submission order).
        Raises :class:`AdmissionRejected` -- without side effects -- when
        the pending queue is full or the payload's memory slice does not
        fit the remaining global budget; :class:`ServingError` when the
        pool is degraded (restart budget exhausted) or closed; and
        :class:`~repro.exceptions.DatabaseError` for a malformed payload.
        The admitted slice is written into the shipped payload, so the
        number that gated admission also bounds execution.
        """
        if self._closed:
            raise ServingError("serving pool is closed")
        self.pump()
        started = time.monotonic()
        _check_payload(payload)
        request = self._core.submit(payload, time.monotonic())
        if self.trace is not None:
            self._span(
                "admission", started, request.enqueued_at, request,
                slice_bytes=request.slice_bytes,
            )
        self._perform()
        return request.id

    def collect(
        self, request_id: int, timeout: Optional[float] = None
    ) -> Dict[str, object]:
        """The response for one admitted request (blocks until resolved).

        Releases the request's admitted memory slice.  Worker deaths,
        injected faults and per-attempt deadlines resolve the request to
        an ``"error"`` record rather than raising -- :class:`ServingError`
        here means the id is unknown or the *caller's* ``timeout``
        expired.  A caller timeout abandons the request: its admission
        slice is released and a late response is dropped, never
        misdelivered to a later request.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            request = self._core.take(request_id)
            if request is not None:
                response = dict(request.result)
                response[PROVENANCE_KEY] = {
                    "attempts": request.attempts,
                    "restarts": self.restarts,
                }
                return response
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining < 0:
                    self.abandon(request_id)
                    raise ServingError(
                        f"request {request_id} not answered within {timeout}s; "
                        "its admission slice was released and any late response "
                        "will be discarded"
                    )
            self.pump(remaining)

    def abandon(self, request_id: int) -> None:
        """Give up on an admitted request whose caller is gone (e.g. the
        daemon connection that submitted it disconnected): release its
        admission slice immediately; a late response is dropped.
        Idempotent; unknown or already-collected ids are a no-op -- the
        caller vanishing twice must not break the pool."""
        self._core.abandon(request_id)

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
    **payload_knobs,
) -> List[Dict[str, object]]:
    """Plan the known query set once and return ready-to-ship payloads
    (``payload_knobs`` -- ``answer``, ``budget``, ``threads``, ... -- are
    :func:`plan_to_payload`'s).

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
    from repro.planner.baseline import baseline_plan
    from repro.planner.cost_k_decomp import best_plan_over_k

    if analyze:
        database.analyze()
    statistics = database.statistics
    payloads: List[Dict[str, object]] = []
    for query in queries:
        try:
            plans = list(
                best_plan_over_k(
                    query, statistics, [int(k) for k in k_values],
                    completion=completion, plan_cache=plan_cache,
                ).values()
            )
        except PlanningError:  # no k admits a plan: fall back to the baseline
            plans = [baseline_plan(query, statistics, plan_cache=plan_cache)]
        payload = plan_to_payload(
            min(plans, key=lambda plan: plan.estimated_cost), **payload_knobs
        )
        payload["planning_seconds"] = sum(plan.planning_seconds for plan in plans)
        payloads.append(payload)
    return payloads
