"""repro.obs -- the observability plane: tracing, metrics, trace export.

The engine's planes (planner, executor, pool, daemon) report *totals*:
``planning_seconds``, ``evaluation_seconds``, commutative
:class:`~repro.db.algebra.OperatorStats` counters.  This package adds the
missing request-path view without disturbing them:

* :mod:`repro.obs.trace` -- :class:`TraceRecorder` span recording with
  per-request trace ids.  Span taxonomy by category:

  - ``plan`` / ``yannakakis``: executor spans -- one per plan node
    (``scan:<atom>``, ``join``, ``project:<name>``) and one per
    Yannakakis task (``expr:<node>``, ``up:<node>``, ``down:<node>``,
    ``fold:<node>``, ``project:answer``), the same set at every thread
    count, carrying morsel counts and emit sizes in ``args``.
  - ``serving``: pool-side request phases -- ``admission`` (includes the
    admission-control wait/reject decision), ``queue`` (backlog time
    per attempt), ``attempt`` (dispatch to result, with worker id and
    status), plus worker-side ``execute`` around the plan replay.

  The daemon records no span of its own: its decode-to-respond interval
  per request is the ``request_latency_seconds`` histogram.

* :mod:`repro.obs.metrics` -- a :class:`MetricsRegistry` of counters,
  gauges and fixed-bucket histograms (mergeable across worker processes)
  behind the daemon's ``metrics`` request kind and enriched ``health``:
  request-latency p50/p95/p99, queue depth, in-flight count, admission
  rejections, retries, deadline timeouts, worker restarts, worker
  startup-to-ready seconds, refresh generations.

* :mod:`repro.obs.export` -- Chrome trace-event JSON export.

Determinism argument (the standing invariant): observability is a
**write-only sidecar**.  No instrumented site branches on recorded data;
spans and metrics are appended to recorders/registries that nothing on
the answer path ever reads.  Timestamps come from ``time.monotonic()``
and never feed back into scheduling, admission or kernel decisions, so
answers, row order and all pre-existing ``OperatorStats`` counters are
byte-identical with tracing on or off -- pinned by ``tests/test_obs.py``
across thread counts, memory budgets and a multi-worker pool, and by the
knob matrix in ``tests/test_parallel_chunked.py``, which draws a recorder
beside ``threads`` and the memory budget.

Viewing a trace in Perfetto
---------------------------

Export a trace from the serving daemon (written when its drain completes)::

    repro db daemon store.db --address /tmp/repro.sock --trace-out trace.json

or programmatically::

    from repro.db.executor import execute_plan
    from repro.obs import TraceRecorder, write_chrome_trace
    trace = TraceRecorder()
    execute_plan(plan.to_ir(), database, trace=trace)
    write_chrome_trace("trace.json", trace)

Then open https://ui.perfetto.dev in a browser, choose *Open trace
file*, and pick ``trace.json`` (``chrome://tracing`` in Chrome works
too).  Each process is a lane (daemon supervisor, each worker pid); each
request's ``admission -> queue -> attempt`` chain sits on the supervisor
lane and the matching kernel spans (``scan:/join:/fold:...``) on the
worker lane, sharing one CLOCK_MONOTONIC timeline.  Use WASD to
pan/zoom and click a span to inspect its ``args`` (morsel counts, emit
sizes, worker ids, attempt numbers).
"""

from repro.obs.export import (
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    resolve_registry,
)
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    TraceRecorder,
    current_span,
    note,
    span_context,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "TraceRecorder",
    "chrome_trace_events",
    "current_span",
    "note",
    "resolve_registry",
    "span_context",
    "validate_chrome_trace",
    "write_chrome_trace",
]
