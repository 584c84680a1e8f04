"""Trace spans: the request-path timeline of the observability plane.

A :class:`Span` is one timed region -- a kernel call, a scheduler task, a
pool dispatch, a daemon request phase -- stamped with the system-wide
``time.monotonic()`` clock (CLOCK_MONOTONIC on Linux, shared across
processes, so worker spans and supervisor spans align on one timeline), the
recording pid/tid, and a per-request ``trace`` id.  A
:class:`TraceRecorder` collects spans thread-safely and renders them as a
JSON-safe payload that ships through the ``SERVING_FORMAT`` response
(``"trace"`` block) or exports as a Chrome trace (:mod:`repro.obs.export`).

The design constraint is the standing invariant of every fast path in this
repo: **observability is a write-only sidecar**.  Spans never influence
control flow, never touch :class:`~repro.db.algebra.OperatorStats`, and a
disabled recorder costs one ``None`` check per instrumented site
(:func:`span_context` returns a shared null context).  Tracing is on
exactly where a caller passes a recorder; the tier-1 knob matrix
(``tests/test_parallel_chunked.py``) pins the zero-perturbation guarantee
by drawing ``trace`` beside ``threads`` and the memory budget.

Allocation discipline: a span is one ``__slots__`` object plus its attrs
dict; morsel-level detail goes through :func:`note`, which bumps a counter
on the innermost *active* span of the current thread (a single thread-local
lookup when tracing is off for that thread).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Mapping, Optional

class Span:
    """One timed region.  ``start``/``end`` are ``time.monotonic()``
    seconds; ``attrs`` is a small JSON-safe dict (morsel counts, emit
    sizes, worker ids)."""

    __slots__ = ("name", "category", "trace_id", "start", "end", "pid", "tid", "attrs")

    def __init__(
        self,
        name: str,
        category: str = "exec",
        trace_id=None,
        attrs: Optional[Dict[str, object]] = None,
        start: float = 0.0,
        end: float = 0.0,
        pid: Optional[int] = None,
        tid: Optional[int] = None,
    ) -> None:
        self.name = name
        self.category = category
        self.trace_id = trace_id
        self.start = start
        self.end = end
        self.pid = os.getpid() if pid is None else pid
        self.tid = threading.get_ident() if tid is None else tid
        self.attrs = {} if attrs is None else attrs

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def to_payload(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "cat": self.category,
            "trace": self.trace_id,
            "start": self.start,
            "end": self.end,
            "pid": self.pid,
            "tid": self.tid,
            "args": dict(self.attrs),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "Span":
        return cls(
            str(payload.get("name", "?")),
            str(payload.get("cat", "exec")),
            trace_id=payload.get("trace"),
            attrs=dict(payload.get("args") or {}),
            start=float(payload.get("start", 0.0)),
            end=float(payload.get("end", 0.0)),
            pid=int(payload.get("pid", 0)),
            tid=int(payload.get("tid", 0)),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.category!r}, trace={self.trace_id!r}, "
            f"dur={self.duration:.6f}s, attrs={self.attrs!r})"
        )


class _DiscardingAttrs(dict):
    """The null span's attrs: writes vanish, so instrumented sites can set
    ``span.attrs[...]`` unconditionally without growing shared state."""

    def __setitem__(self, key, value) -> None:  # noqa: D401 - discard
        pass


#: Shared span yielded by the disabled-tracing context: attribute writes
#: are discarded, nothing is recorded.
NULL_SPAN = Span("", "null", attrs=_DiscardingAttrs())
_NULL_CONTEXT = nullcontext(NULL_SPAN)

#: Per-thread stack of *active* (entered, not yet exited) spans;
#: :func:`note` bumps counters on its top.
_STATE = threading.local()


def current_span() -> Optional[Span]:
    """The innermost active span of this thread (``None`` when tracing is
    off or no span is open)."""
    stack = getattr(_STATE, "stack", None)
    return stack[-1] if stack else None


def note(key: str, delta: int = 1) -> None:
    """Bump a counter attribute on the innermost active span.

    This is the morsel-level hook the columnar kernels call per chunk: one
    thread-local lookup and an early return when no span is active, so the
    untraced path stays effectively free.
    """
    stack = getattr(_STATE, "stack", None)
    if not stack:
        return
    attrs = stack[-1].attrs
    attrs[key] = attrs.get(key, 0) + delta


class TraceRecorder:
    """A thread-safe, allocation-cheap span collector.

    One recorder per request (worker side) or per process (pool / daemon
    side); spans from worker responses merge in via :meth:`ingest`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._ids = itertools.count(1)

    def new_trace_id(self, prefix: str = "trace") -> str:
        return f"{prefix}-{next(self._ids)}"

    @contextmanager
    def span(self, name: str, category: str = "exec", trace_id=None, **attrs):
        """Record one region: pushes onto the thread's active-span stack
        (so :func:`note` reaches it), appends on exit.  Exceptions
        propagate; the partial span is still recorded."""
        span = Span(name, category, trace_id=trace_id, attrs=attrs)
        stack = getattr(_STATE, "stack", None)
        if stack is None:
            stack = _STATE.stack = []
        stack.append(span)
        span.start = time.monotonic()
        try:
            yield span
        finally:
            span.end = time.monotonic()
            stack.pop()
            with self._lock:
                self._spans.append(span)

    def add_span(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        trace_id=None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Record a region after the fact (pool-side queue/attempt spans,
        planner spans timed around existing code)."""
        span = Span(name, category, trace_id=trace_id, attrs=attrs, start=start, end=end)
        with self._lock:
            self._spans.append(span)
        return span

    def ingest(self, block) -> int:
        """Merge a worker response's ``"trace"`` block (or a bare span
        payload list) into this recorder; returns the span count added.
        Malformed entries are skipped -- observability must never turn a
        valid response into an error."""
        if block is None:
            return 0
        payloads = block.get("spans", ()) if isinstance(block, Mapping) else block
        added = []
        for payload in payloads:
            try:
                added.append(Span.from_payload(payload))
            except (TypeError, ValueError, AttributeError):
                continue
        with self._lock:
            self._spans.extend(added)
        return len(added)

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans = []

    def to_payload(self) -> List[Dict[str, object]]:
        """JSON-safe span list, in recording order."""
        return [span.to_payload() for span in self.spans()]


def span_context(trace: Optional[TraceRecorder], name: str, category: str = "exec",
                 trace_id=None, **attrs):
    """``trace.span(...)`` when recording, the shared null context (yielding
    :data:`NULL_SPAN`, whose attrs discard writes) when ``trace`` is
    ``None`` -- the one-check fast path every instrumented site uses."""
    if trace is None:
        return _NULL_CONTEXT
    return trace.span(name, category, trace_id=trace_id, **attrs)


__all__ = [
    "NULL_SPAN",
    "Span",
    "TraceRecorder",
    "current_span",
    "note",
    "span_context",
]
