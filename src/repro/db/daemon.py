"""Long-lived serving daemon: a socket front-end for the worker pool.

:class:`~repro.db.serving.ServingPool` (PR 7/8) made serving
process-parallel and crash-tolerant, but every client still had to live
in the pool's own process.  This module puts the pool behind a
Unix-domain or TCP socket so the serving plane survives its *clients*
too: a long-lived :class:`ServingDaemon` owns one supervised pool, on
which it also re-plans its query set when statistics are refreshed, and
any number of processes talk to it with :class:`DaemonClient` --
``repro db daemon <store>`` runs it, ``repro db serve --daemon <addr>``
drives the QPS/oracle harness through it.

Wire framing
------------
Every message is one *frame*: a 4-byte big-endian unsigned length
followed by that many bytes of UTF-8 JSON.  Requests carry ``format`` /
``version`` markers (``"repro-daemon"`` / 1 -- same policy as the
serving payloads: reject what you do not understand, never guess), a
client-chosen ``id`` echoed verbatim in the response, and a ``kind``:

* ``"execute"`` -- serve one pickle-free ``SERVING_FORMAT`` v1 payload
  (the exact objects :func:`~repro.db.serving.prewarm` returns) through
  the pool; the response carries the worker's response dict, byte-
  identical (provenance-stripped) to the serial
  :func:`~repro.db.serving.execute_payload` oracle.
* ``"health"`` -- liveness probe: ``status`` (``ready`` / ``degraded`` /
  ``draining``), worker/restart/degradation counters, refresh
  generation, connection and request counters.  Orchestrators poll this.
* ``"metrics"`` -- the same status snapshot plus request-latency
  quantiles and the raw metrics-registry payload (what ``repro db
  metrics`` renders).
* ``"plans"`` -- the daemon's current prewarmed payload set and its
  refresh ``generation`` (clients fetch ready-to-execute payloads
  instead of planning themselves).
* ``"refresh"`` -- force one statistics refresh now (re-analyze +
  re-plan, what the refresh timer does) and report the new generation.
* ``"shutdown"`` -- ask the daemon to drain and exit (what SIGTERM does,
  reachable over the wire for orchestrators without signal access).

Responses echo ``id`` and are either ``kind: "response"`` (with
kind-specific fields) or ``kind: "error"`` with a machine-readable
``code`` (``bad_frame``, ``bad_request``, ``admission_rejected``,
``degraded``, ``shutting_down``, ``refresh_unavailable``,
``refresh_failed``, ``internal``) and a human-readable ``error``.
Backpressure and degradation are *structured error frames on a healthy
connection*, never a dropped connection.

Fault matrix (the design center)
--------------------------------
==========================  =============================================
client fault / event        daemon behaviour
==========================  =============================================
disconnect mid-request      connection dropped; its in-flight admission
                            slices released via the pool's ``abandon``
                            (the ``collect(timeout=)`` expiry machinery);
                            every other connection unaffected
garbage / oversized frame   one ``bad_frame`` error frame (best effort),
                            then the connection is dropped; so is one whose
                            bytes raise what nobody foresaw (logged); every
                            other connection unaffected
stall mid-frame             dropped after ``io_timeout_seconds`` (a
                            *started* frame must finish in time; an idle
                            connection may stay silent forever)
client stops reading        responses wait in that connection's out-buffer
                            (written non-blockingly as the peer reads; the
                            connection is not read from meanwhile, so the
                            buffer is bounded by the requests it had in
                            flight); 30 s without the peer taking a byte
                            and the connection is dropped like a
                            disconnect; every other connection unaffected
``AdmissionRejected``       ``admission_rejected`` error frame; the
                            connection stays open for a retry
pool degraded               ``degraded`` error frame per execute; health
                            reports ``status: "degraded"`` + the reason
SIGTERM / SIGINT /          drain-then-exit: stop accepting, finish or
``shutdown`` request        deadline-out in-flight work (bounded by
                            ``drain_timeout_seconds``; ``execute`` and
                            ``refresh`` meanwhile get ``shutting_down``),
                            close the pool (no orphan workers), exit 0
statistics refresh          one pool request, served by a worker beside
                            the executes; the refreshed payload set is
                            swapped between requests with a generation
                            bump -- no serving gap
worker dies mid-refresh     the refresh is retried on the replacement
                            worker and answered; ``restarts`` +1
refresh raises in a worker  ``refresh_failed`` error frame,
                            ``refresh_errors`` +1, generation unchanged
==========================  =============================================

Client-side faults are scriptable through the same
``REPRO_SERVE_FAULTS`` plan language as worker faults
(:mod:`repro.db.faults`, kinds ``client_disconnect`` /
``partial_frame`` / ``stalled_reader``), so the whole matrix replays
deterministically in tests and CI chaos smokes.

The loop
--------
One thread -- the *loop* -- owns the listener, every client socket, the
pool and every timer.  It blocks in a single ``selectors`` call on one
wait set: the listener; each client socket (for reading, or for writing
*instead* while the connection has unsent output); the pool's
:meth:`~repro.db.serving.ServingPool.wait_handles` (the workers' response
channels and process sentinels); and a wake-up socketpair.  The timeout
is the earliest of the pool's :meth:`~repro.db.serving.ServingPool.next_timer`,
each connection's deadline, the refresh timer and the drain deadline --
nothing polls.  After every wake-up the loop runs the pool's ``pump`` once
and answers what resolved.  Only the loop touches the pool (``submit`` /
``pump`` / ``collect`` / ``abandon``, and the depth views ``health`` and
``metrics`` read) and only the loop writes to a client socket.  An
exception out of one connection's share of a wake-up drops that
connection; one out of the loop's own steps ends serving with exit code 1.

There is no other thread.  A statistics refresh -- a ``refresh`` request,
the ``refresh_seconds`` timer (at most one timer refresh in flight) and
the initial plan :meth:`ServingDaemon.start` makes before it binds -- is
one pool request: a ``SERVING_FORMAT`` payload with a ``prewarm`` block,
which :func:`~repro.db.serving.execute_payload` answers in a worker with
the re-planned payload set.  Planning, however long, stalls no connection,
and the lifecycle's deadlines, retries and respawns cover it like any
execute.  A client's ``execute`` may not carry a ``prewarm`` block
(``bad_request``), so no client drives planning or plan-cache writes.
:meth:`ServingDaemon.request_shutdown` -- what SIGTERM and SIGINT call --
sets a flag and sends one byte on the wake-up socket, so it is safe in a
signal handler.
"""

from __future__ import annotations

import json
import logging
import math
import os
import selectors
import signal
import socket
import struct
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.db.faults import FaultPlan, FaultRule
from repro.db.serving import (
    SERVING_FORMAT,
    SERVING_VERSION,
    AdmissionRejected,
    ServingError,
    ServingPool,
    query_to_payload,
)
from repro.exceptions import DatabaseError
from repro.obs.export import write_chrome_trace
from repro.obs.metrics import resolve_registry
from repro.obs.trace import TraceRecorder

_DAEMON_LOG = logging.getLogger("repro.daemon")

#: Wire-format marker + version carried by every daemon frame.
DAEMON_FORMAT = "repro-daemon"
DAEMON_VERSION = 1

#: Frame header: one 4-byte big-endian unsigned payload length.
_HEADER = struct.Struct(">I")

#: Reject frames larger than this (a garbage header decoding to a huge
#: length must not make the daemon allocate gigabytes).
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Request kinds the daemon understands.
REQUEST_KINDS = ("execute", "health", "metrics", "plans", "refresh", "shutdown")

#: Machine-readable error codes of ``kind: "error"`` frames.
ERROR_CODES = (
    "bad_frame",
    "bad_request",
    "admission_rejected",
    "degraded",
    "shutting_down",
    "refresh_unavailable",
    "refresh_failed",
    "internal",
)

#: The ``counters`` block of ``health`` / ``metrics`` frames: names in the
#: metrics registry the daemon shares with its pool (``admission_rejected``
#: is counted by the pool's admission, the rest by this module).
#: ``requests_served`` counts executes *resolved and queued* for their
#: connection -- not delivered: a peer that never reads them still counts.
_COUNTERS = (
    "connections_accepted",
    "connections_dropped",
    "requests_served",
    "error_frames",
    "admission_rejected",
    "abandoned_requests",
    "refreshes",
    "refresh_errors",
)

#: How long a connection's unsent output may wait for the peer to read it
#: before the connection is dropped.
_SEND_TIMEOUT_SECONDS = 30.0


class DaemonError(DatabaseError):
    """Base error of the daemon transport."""


class DaemonProtocolError(DaemonError):
    """The peer spoke something that is not a valid daemon frame."""


class DaemonDisconnected(DaemonError):
    """The connection closed before a response arrived (peer died,
    daemon dropped us, or an injected connection fault fired)."""


class DaemonRequestError(DaemonError):
    """The daemon answered with a structured error frame."""

    def __init__(self, frame: Mapping) -> None:
        self.code = str(frame.get("code", "internal"))
        self.frame = dict(frame)
        super().__init__(f"[{self.code}] {frame.get('error', 'request failed')}")


# ----------------------------------------------------------------------
# Addresses.
# ----------------------------------------------------------------------


def parse_address(text: str) -> Tuple[str, object]:
    """Parse an address spec into ``("unix", path)`` or
    ``("tcp", (host, port))``.

    ``unix:/run/repro.sock`` and any spec containing a ``/`` are Unix
    sockets; ``tcp:host:port`` and plain ``host:port`` are TCP.
    """
    text = str(text).strip()
    if not text:
        raise DaemonError("empty daemon address")
    if text.startswith("unix:"):
        return ("unix", text[len("unix:"):])
    if text.startswith("tcp:"):
        text = text[len("tcp:"):]
    elif "/" in text or os.sep in text:
        return ("unix", text)
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise DaemonError(
            f"cannot parse daemon address {text!r}: expected 'unix:PATH', "
            "a filesystem path, or '[tcp:]HOST:PORT'"
        )
    try:
        return ("tcp", (host, int(port)))
    except ValueError:
        raise DaemonError(
            f"cannot parse daemon address {text!r}: port {port!r} is not "
            "an integer"
        ) from None


def format_address(address: Tuple[str, object]) -> str:
    family, spec = address
    if family == "unix":
        return f"unix:{spec}"
    host, port = spec  # type: ignore[misc]
    return f"tcp:{host}:{port}"


def _connect(address: Tuple[str, object], timeout: float) -> socket.socket:
    family, spec = address
    if family == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(spec if family == "unix" else tuple(spec))
    except OSError as exc:
        sock.close()
        raise DaemonDisconnected(
            f"cannot connect to daemon at {format_address(address)}: {exc}"
        ) from exc
    return sock


# ----------------------------------------------------------------------
# Framing.
# ----------------------------------------------------------------------


def encode_frame(frame: Mapping, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> bytes:
    """Length-prefixed UTF-8 JSON bytes for one frame."""
    body = json.dumps(frame, separators=(",", ":")).encode("utf-8")
    if len(body) > max_frame_bytes:
        raise DaemonProtocolError(
            f"frame of {len(body):,} bytes exceeds the {max_frame_bytes:,}-"
            "byte limit"
        )
    return _HEADER.pack(len(body)) + body


def decode_frame(body: bytes) -> Dict[str, Any]:
    """The JSON object inside one frame body (header already stripped)."""
    try:
        frame = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 is a ValueError
        raise DaemonProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(frame, dict):
        raise DaemonProtocolError(
            f"frame must be a JSON object, got {type(frame).__name__}"
        )
    if frame.get("format") != DAEMON_FORMAT or frame.get("version") != DAEMON_VERSION:
        raise DaemonProtocolError(
            f"frame is not {DAEMON_FORMAT} v{DAEMON_VERSION}: "
            f"format={frame.get('format')!r} version={frame.get('version')!r}"
        )
    return frame


def _base_frame(kind: str, frame_id) -> Dict[str, Any]:
    return {
        "format": DAEMON_FORMAT,
        "version": DAEMON_VERSION,
        "id": frame_id,
        "kind": kind,
    }


def _error_frame(frame_id, code: str, message: str) -> Dict[str, Any]:
    assert code in ERROR_CODES, code
    frame = _base_frame("error", frame_id)
    frame["code"] = code
    frame["error"] = message
    return frame


class FrameDecoder:
    """Sans-IO incremental frame decoder: :meth:`feed` it bytes as they
    arrive, take complete frames from :meth:`next_frame`.  A header is
    checked as soon as its four bytes are in and nothing is ever sized by
    the length it declares: the buffer holds exactly the bytes fed and not
    yet returned as frames."""

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        self._max = max_frame_bytes
        self._buffer = bytearray()

    @property
    def buffered(self) -> int:
        """Bytes fed and not yet returned as frames."""
        return len(self._buffer)

    def feed(self, data: bytes) -> None:
        self._buffer += data

    def next_frame(self) -> Optional[Dict[str, Any]]:
        """The next complete frame, ``None`` when it needs more bytes;
        :class:`DaemonProtocolError` for a header or body that is not a
        daemon frame."""
        buffer = self._buffer
        if len(buffer) < _HEADER.size:
            return None
        (length,) = _HEADER.unpack_from(buffer)
        if length == 0 or length > self._max:
            raise DaemonProtocolError(
                f"frame header declares {length:,} bytes "
                f"(limit {self._max:,}): not a daemon frame"
            )
        end = _HEADER.size + length
        if len(buffer) < end:
            return None
        body = buffer[_HEADER.size : end]
        del buffer[:end]
        return decode_frame(body)


# ----------------------------------------------------------------------
# Server.
# ----------------------------------------------------------------------


class _Connection:
    """One accepted client socket as the loop sees it: the non-blocking
    socket, the decoder its bytes are fed to, the encoded responses the
    peer has not taken yet, and the one deadline in force -- while there
    is unsent output, for ``out`` to drain (the connection is not read
    from meanwhile, so what it can make the daemon buffer is bounded by
    the requests it had in flight); otherwise for a started frame to
    finish (an idle connection has none)."""

    def __init__(self, sock: socket.socket, max_frame_bytes: int) -> None:
        self.sock = sock
        self.decoder = FrameDecoder(max_frame_bytes)
        self.out = bytearray()
        self.deadline: Optional[float] = None

    @property
    def closed(self) -> bool:
        return self.sock.fileno() < 0


class ServingDaemon:
    """The long-lived serving front-end; see the module docstring for
    the wire protocol and the fault matrix.

    Parameters mirror :class:`~repro.db.serving.ServingPool` where they
    are forwarded verbatim (``workers``, budgets, restart/deadline
    knobs).  ``queries`` (with ``k_values``/``answer``) enables the
    planning side: the ``plans`` request kind and statistics refreshes
    (every ``refresh_seconds`` -- ``None`` or a positive finite number --
    plus on-demand ``refresh`` requests), each one pool request planned
    through the store's ``plans`` cache.  Without queries the daemon is a
    pure executor for client-supplied payloads.

    ``trace_out`` names a file: the daemon then attaches a
    :class:`~repro.obs.trace.TraceRecorder` to its pool (per-request
    admission/queue/attempt spans plus the kernel spans workers ship
    back) and exports everything as Chrome trace-event JSON --
    loadable at https://ui.perfetto.dev -- when the drain completes.
    """

    def __init__(
        self,
        store_path,
        address,
        *,
        workers: int = 2,
        queries: Sequence = (),
        k_values: Sequence[int] = (2, 3),
        answer: str = "digest",
        refresh_seconds: Optional[float] = None,
        io_timeout_seconds: float = 10.0,
        drain_timeout_seconds: float = 30.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        trace_out=None,
        **pool_options,
    ) -> None:
        if refresh_seconds is not None and not 0 < refresh_seconds < math.inf:
            raise DaemonError(
                f"refresh_seconds must be positive and finite: {refresh_seconds!r}"
            )
        self.store_path = Path(store_path)
        self.address = parse_address(address) if isinstance(address, str) else address
        self.workers = int(workers)
        self.queries = list(queries)
        self.k_values = tuple(int(k) for k in k_values)
        self.answer = answer
        self.refresh_seconds = refresh_seconds
        self.io_timeout_seconds = float(io_timeout_seconds)
        self.drain_timeout_seconds = float(drain_timeout_seconds)
        self.max_frame_bytes = int(max_frame_bytes)
        self.trace_out = Path(trace_out) if trace_out else None
        # The pool records admission/queue/attempt spans (plus the kernel
        # spans workers ship back) into this recorder; _finish() exports
        # it as Chrome trace-event JSON once the drain completes.
        self._trace_recorder = TraceRecorder() if trace_out else None
        self.pool_options = dict(pool_options)
        # One registry under transport and pool: health and metrics frames
        # read every counter from it.
        self.metrics = resolve_registry(self.pool_options.pop("metrics", None))
        self.started_at: Optional[float] = None
        self.exit_code: Optional[int] = None

        self._pool: Optional[ServingPool] = None
        self._payloads: List[Dict[str, Any]] = []
        self._generation = 0
        self._stopping = False
        self._finished = threading.Event()
        self._thread: Optional[threading.Thread] = None
        # The loop thread's own state: nothing else reads or writes it.
        self._listener: Optional[socket.socket] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._connections: set = set()
        # request_id -> (connection, frame id, submit time) of executes, and
        # of refreshes (connection None: the timer's); the third slot feeds
        # the latency histogram / the refresh reply's ``seconds``.
        self._outstanding: Dict[int, Tuple[_Connection, Any, float]] = {}
        self._refreshing: Dict[int, Tuple[Optional[_Connection], Any, float]] = {}
        self._refresh_due: Optional[float] = None
        self._pool_handles: List[object] = []  # as registered, and the
        self._pool_fds: List[int] = []  # descriptors they had then
        # How signal handlers reach the loop.
        self._wake_r: Optional[socket.socket] = None  # made by start(),
        self._wake_w: Optional[socket.socket] = None  # after the pool forks

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ServingDaemon":
        """Spawn the pool, plan the query set on it, bind, and start the
        loop thread.  After this returns the daemon is serving;
        :attr:`address` carries the actually-bound address (TCP port 0
        resolves here)."""
        if self._pool is not None:
            raise DaemonError("daemon already started")
        # Fork the workers *before* starting the loop thread: forking a
        # single-threaded process is the safe order.
        self._pool = ServingPool(self.store_path, workers=self.workers,
                                 trace=self._trace_recorder,
                                 metrics=self.metrics,
                                 **self.pool_options)
        try:
            if self.queries:  # the statistics are fresh at save
                pool = self._pool
                response = pool.collect(pool.submit(self._refresh_payload(False)))
                if response["status"] != "ok":
                    raise DaemonError(f"planning failed: {response.get('error')}")
                self._payloads, self._generation = response["payloads"], 1
            self._listener = self._bind()
        except BaseException:
            self._pool.close()
            raise
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        self._watch_pool()
        self.started_at = time.monotonic()
        if self.queries and self.refresh_seconds is not None:
            self._refresh_due = self.started_at + self.refresh_seconds
        self._thread = threading.Thread(
            target=self._loop, name="repro-daemon-loop", daemon=True
        )
        self._thread.start()
        return self

    def _bind(self) -> socket.socket:
        family, spec = self.address
        if family == "unix":
            path = Path(str(spec))
            if path.exists() and path.is_socket():
                path.unlink()  # stale socket from a dead daemon
            path.parent.mkdir(parents=True, exist_ok=True)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(str(path))
        else:
            host, port = spec  # type: ignore[misc]
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, int(port)))
            self.address = ("tcp", listener.getsockname()[:2])
        listener.listen(64)
        listener.setblocking(False)
        return listener

    def request_shutdown(self) -> None:
        """Begin drain-then-exit (idempotent, signal-safe): stop
        accepting, let in-flight work finish or deadline out, then close
        everything.  Returns immediately; :meth:`wait` blocks until the
        drain completes."""
        self._stopping = True
        self._wake()

    def _wake(self) -> None:
        """Make the loop's wait return now: one non-blocking byte on the
        wake-up socket.  A full socket means a wake-up is already pending,
        a closed one that the loop is gone, none that it never started."""
        try:
            if self._wake_w is not None:
                self._wake_w.send(b"\0")
        except OSError:
            pass

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._finished.wait(timeout)

    def shutdown(self, *, drain: bool = True) -> int:
        """Drain (unless ``drain=False``, which abandons in-flight work
        immediately) and tear everything down.  Returns the exit code
        (0 = clean)."""
        if not drain:
            self.drain_timeout_seconds = 0.0
        return self._finish()

    def serve_forever(self, handle_signals: bool = True) -> int:
        """``start()`` (if not already started) + block until
        SIGTERM/SIGINT (or a ``shutdown`` request) triggers the drain;
        returns the exit code for ``sys.exit``.  The CLI entry point."""
        if self._pool is None:
            self.start()
        if handle_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(signum, lambda *_: self.request_shutdown())
        self._thread.join()  # the loop returns once it has drained
        return self._finish()

    def _finish(self) -> int:
        """Tear-down, run by whichever thread called shutdown/serve_forever:
        ask the loop to drain, join it (it closes listener and connections
        on its way out), then close the pool and unlink the socket file."""
        if self._finished.is_set():
            return self.exit_code if self.exit_code is not None else 0
        self.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout=self.drain_timeout_seconds + 10.0)
        if self._wake_r is not None:  # else start() never got that far
            self._wake_r.close()
            self._wake_w.close()
        if self._pool is not None:
            self._pool.close()
        if self.address[0] == "unix":
            try:
                Path(str(self.address[1])).unlink()
            except OSError:
                pass
        if self.trace_out is not None and self._trace_recorder is not None:
            try:
                events = write_chrome_trace(self.trace_out, self._trace_recorder)
                _DAEMON_LOG.info(
                    "wrote %d trace events to %s", events, self.trace_out
                )
            except OSError:  # export must never block the drain
                _DAEMON_LOG.exception("trace export to %s failed", self.trace_out)
        stuck = self._thread is not None and self._thread.is_alive()
        # The loop leaves a 1 behind when it ends on an exception.
        self.exit_code = 1 if stuck or self.exit_code else 0
        self._finished.set()
        return self.exit_code

    def __enter__(self) -> "ServingDaemon":
        return self if self._pool is not None else self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- the loop (the only thread that touches pool and sockets) ------
    def _loop(self) -> None:
        try:
            self._serve()
        except Exception:  # not a connection's fault: serving is over
            _DAEMON_LOG.exception("the daemon loop failed")
            self.exit_code = 1
        finally:
            # Whatever the drain deadline left in flight is abandoned and
            # answered with a structured error (best effort); then every
            # socket goes.
            outstanding = {**self._outstanding, **self._refreshing}
            self._outstanding, self._refreshing = {}, {}
            for request_id, (connection, frame_id, _) in outstanding.items():
                self._pool.abandon(request_id)
                self.metrics.counter("abandoned_requests").inc()
                self._guarded(
                    connection, self._send_error, connection, frame_id,
                    "shutting_down", "daemon drained before this request completed",
                )
            for connection in list(self._connections):
                self._hangup(connection)
            self._listener.close()
            self._selector.close()

    def _serve(self) -> None:
        """One wait, then whatever it woke us for, until drained."""
        pool = self._pool
        selector = self._selector
        drain_deadline = None
        while True:
            now = time.monotonic()
            if self._stopping:
                if drain_deadline is None:  # the drain begins: stop accepting
                    drain_deadline = now + self.drain_timeout_seconds
                    selector.unregister(self._listener)
                    self._listener.close()
                    self._refresh_due = None
                if now >= drain_deadline or not (
                    self._outstanding or self._refreshing
                    or any(c.out for c in self._connections)
                ):
                    return
            if self._refresh_due is not None and now >= self._refresh_due:
                self._refresh_due = now + self.refresh_seconds
                if all(entry[0] is not None for entry in self._refreshing.values()):
                    self._refresh(None, None)  # no timer refresh in flight
            deadlines = [
                c.deadline for c in self._connections if c.deadline is not None
            ]
            deadlines += [
                t for t in (pool.next_timer(now), drain_deadline, self._refresh_due)
                if t is not None
            ]
            timeout = max(0.0, min(deadlines) - now) if deadlines else None
            for key, mask in selector.select(timeout):
                self._guarded(key.data, self._ready, key, mask)
            for request_id in pool.pump():
                response = pool.collect(request_id)
                if request_id in self._refreshing:
                    connection, frame_id, started = self._refreshing.pop(request_id)
                    reply = self._refreshed(frame_id, started, response)
                else:
                    connection, frame_id, started = self._outstanding.pop(request_id)
                    self.metrics.histogram("request_latency_seconds").observe(
                        time.monotonic() - started
                    )
                    self.metrics.counter("requests_served").inc()
                    reply = dict(_base_frame("response", frame_id), response=response)
                self._guarded(connection, self._send, connection, reply)
            self._watch_pool()
            now = time.monotonic()
            for connection in [
                c for c in self._connections
                if c.deadline is not None and now >= c.deadline
            ]:
                # Stalled mid-frame, or not reading its responses.
                self._hangup(connection, dropped=True)

    def _guarded(self, connection: Optional[_Connection], step, *args) -> None:
        """Run one connection's share of a wake-up.  An exception nobody
        foresaw costs that connection (the listener: that one accept),
        never the loop and so never anybody else's connection."""
        try:
            step(*args)
        except Exception:
            _DAEMON_LOG.exception("unexpected error; dropping the connection")
            if connection is not None and not connection.closed:
                self._hangup(connection, dropped=True)

    def _ready(self, key: selectors.SelectorKey, mask: int) -> None:
        """What one ready descriptor of the wait set asks for."""
        connection = key.data
        if connection is None:  # a pool handle needs only the pump
            if key.fileobj is self._listener:
                self._accept()
            elif key.fileobj is self._wake_r:
                self._wake_r.recv(4096)
            return
        if mask & selectors.EVENT_WRITE:
            self._flush(connection)
            if not (connection.closed or connection.out):
                # Drained: back to reading, starting with the frames that
                # arrived behind the blocked one.
                self._selector.modify(
                    connection.sock, selectors.EVENT_READ, connection
                )
                connection.deadline = None
                self._answer_frames(connection)
        if mask & selectors.EVENT_READ and not connection.closed:
            self._read(connection)

    def _watch_pool(self) -> None:
        """Keep the wait set on the pool's current handles.  They change
        on every respawn and fd numbers are reused, so when the list
        differs *all* are re-registered (a dead worker's descriptors are
        closed already; unregistering tolerates that).  Runs before every
        wait, and before a socket that may have been given a dead
        worker's number is registered."""
        handles = self._pool.wait_handles()
        if handles == self._pool_handles:
            return
        for fd in self._pool_fds:
            try:
                self._selector.unregister(fd)
            except (KeyError, OSError):
                pass
        self._pool_handles = handles
        self._pool_fds = [h if isinstance(h, int) else h.fileno() for h in handles]
        for fd in self._pool_fds:
            self._selector.register(fd, selectors.EVENT_READ)

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:  # the peer gave up between the wake-up and here
            return
        sock.setblocking(False)
        connection = _Connection(sock, self.max_frame_bytes)
        self._watch_pool()  # a submit since the last wait may have respawned
        self._selector.register(sock, selectors.EVENT_READ, connection)
        self._connections.add(connection)
        self.metrics.counter("connections_accepted").inc()

    def _hangup(self, connection: _Connection, dropped: bool = False) -> None:
        """The connection is over -- the peer left, or (``dropped``) the
        daemon gives up on it: abandon its in-flight requests, which
        releases their admission slices, and close the socket."""
        if dropped:
            self.metrics.counter("connections_dropped").inc()
        self._connections.discard(connection)
        for request_id in [
            rid for rid, entry in self._outstanding.items() if entry[0] is connection
        ]:
            del self._outstanding[request_id]
            self._pool.abandon(request_id)
            self.metrics.counter("abandoned_requests").inc()
        self._selector.unregister(connection.sock)
        connection.sock.close()

    def _read(self, connection: _Connection) -> None:
        try:
            chunk = connection.sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""  # reset under us: same as EOF
        if not chunk:
            # EOF between frames is a goodbye, inside one a fault.
            self._hangup(connection, dropped=connection.decoder.buffered > 0)
            return
        connection.decoder.feed(chunk)
        self._answer_frames(connection)

    def _answer_frames(self, connection: _Connection) -> None:
        """Handle the complete frames the decoder holds -- stopping as soon
        as the connection has unsent output -- then (re)arm the mid-frame
        deadline: a connection may sit idle between frames forever, but
        once the first byte of a frame arrives the rest must follow within
        ``io_timeout_seconds``."""
        decoder = connection.decoder
        handled = False
        try:
            while not (connection.closed or connection.out):
                frame = decoder.next_frame()
                if frame is None:
                    break
                handled = True
                self._handle(connection, frame)
        except DaemonProtocolError as exc:
            # Garbage: one best-effort error frame, then drop.
            self._send_error(connection, None, "bad_frame", str(exc))
            if not connection.closed:
                self._hangup(connection, dropped=True)
            return
        if connection.closed or connection.out:
            return
        if not decoder.buffered:
            connection.deadline = None
        elif handled or connection.deadline is None:  # a frame has just begun
            connection.deadline = time.monotonic() + self.io_timeout_seconds

    def _handle(self, connection: _Connection, frame: Mapping) -> None:
        frame_id = frame.get("id")
        kind = frame.get("kind")
        try:
            if kind in ("execute", "refresh") and self._stopping:
                self._send_error(
                    connection, frame_id, "shutting_down",
                    "daemon is draining; no new requests",
                )
            elif kind == "execute":
                self._execute(connection, frame)
            elif kind == "health":
                self._send(connection, self._health_frame(frame_id))
            elif kind == "metrics":
                self._send(connection, self._metrics_frame(frame_id))
            elif kind == "plans":
                self._send(connection, self._plans_frame(frame_id))
            elif kind == "refresh":
                self._refresh(connection, frame_id)
            elif kind == "shutdown":
                self._send(
                    connection, dict(_base_frame("response", frame_id), draining=True)
                )
                self.request_shutdown()
            else:
                self._send_error(
                    connection, frame_id, "bad_request",
                    f"unknown request kind {kind!r}; expected one of "
                    f"{', '.join(REQUEST_KINDS)}",
                )
        except Exception as exc:  # one bad request must not end the loop
            _DAEMON_LOG.exception("request failed")
            self._send_error(connection, frame_id, "internal", repr(exc))

    def _execute(self, connection: _Connection, frame: Mapping) -> None:
        frame_id = frame.get("id")
        payload = frame.get("payload")
        if isinstance(payload, Mapping) and "prewarm" in payload:
            message = "a 'prewarm' block is for the daemon's own refreshes"
            self._send_error(connection, frame_id, "bad_request", message)
            return
        pool = self._pool
        try:
            request_id = pool.submit(payload)
        except AdmissionRejected as exc:
            self._send_error(connection, frame_id, "admission_rejected", str(exc))
        except ServingError as exc:
            code = "degraded" if pool.degraded else "internal"
            self._send_error(connection, frame_id, code, str(exc))
        except DatabaseError as exc:
            self._send_error(connection, frame_id, "bad_request", str(exc))
        else:
            self._outstanding[request_id] = (connection, frame_id, time.monotonic())

    def _send_error(self, connection, frame_id, code: str, message: str) -> None:
        self._send(connection, _error_frame(frame_id, code, message))

    def _send(self, connection: Optional[_Connection], frame: Mapping) -> None:
        """The one writer: encode ``frame`` behind the connection's unsent
        output and write what the peer takes now.  What it does not take
        waits in ``out`` for the socket to become writable, under the send
        deadline.  A connection that is already gone -- or none, for a
        timer refresh -- swallows the frame."""
        if connection is None or connection.closed:
            return
        try:
            data = encode_frame(frame, self.max_frame_bytes)
        except DaemonProtocolError:  # pragma: no cover - response too big
            frame = _error_frame(frame.get("id"), "internal", "response too large")
            data = encode_frame(frame)
        if frame["kind"] == "error":
            self.metrics.counter("error_frames").inc()
        blocked = bool(connection.out)
        connection.out += data
        if blocked:
            return
        self._flush(connection)
        if not connection.closed and connection.out:
            self._selector.modify(connection.sock, selectors.EVENT_WRITE, connection)
            connection.deadline = time.monotonic() + _SEND_TIMEOUT_SECONDS

    def _flush(self, connection: _Connection) -> None:
        """Write as much of the unsent output as the peer takes now."""
        try:
            sent = connection.sock.send(connection.out)
        except BlockingIOError:
            return
        except OSError:  # the peer is gone: noticed on the write side
            self._hangup(connection)
            return
        del connection.out[:sent]
        if sent and connection.out:  # a slow reader is not a stuck one
            connection.deadline = time.monotonic() + _SEND_TIMEOUT_SECONDS

    # -- inline request kinds ------------------------------------------
    def _status_frame(self, kind: str, frame_id) -> Dict[str, Any]:
        """The status snapshot both ``health`` and ``metrics`` frames are
        views over, taken on the loop thread -- the pool's only owner."""
        pool = self._pool
        frame = _base_frame(kind, frame_id)
        frame.update(
            generation=self._generation,
            uptime_seconds=(
                round(time.monotonic() - self.started_at, 3)
                if self.started_at is not None
                else 0.0
            ),
            queue_depth=pool.queue_depth,
            inflight=pool.inflight_count,
            pending=pool.pending_count,
            restarts=pool.restarts,
            degraded=pool.degraded,
            counters={
                name: self.metrics.counter(name).value for name in _COUNTERS
            },
            pid=os.getpid(),
        )
        return frame

    def _health_frame(self, frame_id) -> Dict[str, Any]:
        frame = self._status_frame("health", frame_id)
        if self._stopping:
            status = "draining"
        elif frame["degraded"]:
            status = "degraded"
        else:
            status = "ready"
        frame.update(
            status=status,
            store=str(self.store_path),
            workers=self.workers,
            worker_pids=sorted(
                report["pid"] for report in dict(self._pool.worker_reports).values()
            ),
            refresh_seconds=self.refresh_seconds,
        )
        return frame

    def _metrics_frame(self, frame_id) -> Dict[str, Any]:
        """The status snapshot plus request-latency quantiles (p50/p95/p99
        over the fixed exponential buckets) and the raw registry payload
        -- everything ``repro db metrics`` renders."""
        frame = self._status_frame("metrics", frame_id)
        frame.update(
            latency=self.metrics.histogram("request_latency_seconds").quantiles(),
            metrics=self.metrics.to_payload(),
        )
        return frame

    def _plans_frame(self, frame_id) -> Dict[str, Any]:
        frame = _base_frame("plans", frame_id)
        return dict(frame, generation=self._generation, payloads=self._payloads)

    # -- statistics refresh --------------------------------------------
    def _refresh_payload(self, analyze: bool) -> Dict[str, Any]:
        """One refresh as a pool request: re-analyze (or not) and re-plan
        the query set.  Planning takes no slice of the execution budget."""
        queries = [query_to_payload(query) for query in self.queries]
        return dict(
            format=SERVING_FORMAT, version=SERVING_VERSION, answer=self.answer,
            prewarm=dict(queries=queries, k_values=[*self.k_values], analyze=analyze),
            memory_budget_bytes=0,
        )

    def _refresh(self, connection: Optional[_Connection], frame_id) -> None:
        """Submit one refresh, asked for by ``connection`` or (``None``) by
        the timer; the loop answers it when the pool resolves it."""
        if not self.queries:
            self._send_error(
                connection, frame_id, "refresh_unavailable",
                "daemon was started without --query: no query set to re-plan",
            )
            return
        try:
            request_id = self._pool.submit(self._refresh_payload(True))
        except (AdmissionRejected, ServingError) as exc:
            self.metrics.counter("refresh_errors").inc()
            self._send_error(connection, frame_id, "refresh_failed", str(exc))
        else:
            self._refreshing[request_id] = (connection, frame_id, time.monotonic())

    def _refreshed(self, frame_id, started: float, response: Mapping) -> Dict[str, Any]:
        """Take one resolved refresh: swap its payload set in with a
        generation bump -- in-flight requests keep the payloads they hold,
        so there is no serving gap -- or count its failure.  Returns the
        reply for whoever asked."""
        if response["status"] != "ok":
            self.metrics.counter("refresh_errors").inc()
            return _error_frame(frame_id, "refresh_failed", str(response.get("error")))
        self._payloads = response["payloads"]
        self._generation += 1
        self.metrics.counter("refreshes").inc()
        return dict(
            _base_frame("response", frame_id), refreshed=True,
            generation=self._generation, seconds=round(time.monotonic() - started, 4),
        )


# ----------------------------------------------------------------------
# Client.
# ----------------------------------------------------------------------


class DaemonClient:
    """A small synchronous client for :class:`ServingDaemon`.

    One socket, one request at a time: each call sends a frame and blocks
    for the matching response (``id`` echo checked).  Structured error
    frames raise :class:`DaemonRequestError` (``.code`` holds the
    machine-readable code); transport failures raise
    :class:`DaemonDisconnected`.

    ``fault_plan`` arms the *client seam* of :mod:`repro.db.faults`:
    before each ``execute`` the plan is consulted
    (``connection_id`` = this client's ``connection_id``,
    ``request_index`` = the 0-based count of executes sent on this
    connection) and a matching ``client_disconnect`` / ``partial_frame``
    / ``stalled_reader`` rule is acted out on the wire -- the
    deterministic chaos the daemon tests and CI smoke replay.  Worker
    rules in the same plan are ignored here (they fire in the workers).
    """

    def __init__(
        self,
        address,
        *,
        timeout: float = 60.0,
        connection_id: int = 0,
        fault_plan=None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.address = parse_address(address) if isinstance(address, str) else address
        self.timeout = float(timeout)
        self.connection_id = int(connection_id)
        self.max_frame_bytes = int(max_frame_bytes)
        if fault_plan is None or isinstance(fault_plan, FaultPlan):
            self._fault_plan = fault_plan
        else:
            self._fault_plan = FaultPlan.from_payload(fault_plan)
        self._executes = 0
        self._ids = 0
        self._sock: Optional[socket.socket] = _connect(self.address, self.timeout)
        # One decoder for the connection's lifetime: bytes buffered past a
        # frame boundary (e.g. while skipping a stale response) must
        # survive into the next call.
        self._decoder = FrameDecoder(self.max_frame_bytes)

    # -- request kinds -------------------------------------------------
    def execute(self, payload: Mapping) -> Dict[str, Any]:
        """Serve one ``SERVING_FORMAT`` payload; returns the response
        record (including the pool's ``"serving"`` provenance block)."""
        request_index = self._executes
        self._executes += 1
        rule: Optional[FaultRule] = None
        if self._fault_plan is not None:
            rule = self._fault_plan.connection_action(
                connection_id=self.connection_id, request_index=request_index
            )
        frame = self._frame("execute")
        frame["payload"] = dict(payload)
        reply = self._request(frame, fault_rule=rule)
        return reply["response"]

    def health(self) -> Dict[str, Any]:
        return self._request(self._frame("health"))

    def metrics(self) -> Dict[str, Any]:
        """The daemon's metrics snapshot: counters, queue/in-flight
        depth, latency quantiles and the mergeable registry payload."""
        return self._request(self._frame("metrics"))

    def plans(self) -> Dict[str, Any]:
        """The daemon's current payload set: ``{"generation", "payloads"}``."""
        return self._request(self._frame("plans"))

    def refresh(self) -> Dict[str, Any]:
        """Force one statistics refresh; blocks until it completes."""
        return self._request(self._frame("refresh"))

    def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon to drain and exit (acknowledged immediately)."""
        return self._request(self._frame("shutdown"))

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- transport -----------------------------------------------------
    def _frame(self, kind: str) -> Dict[str, Any]:
        self._ids += 1
        return _base_frame(kind, self._ids)

    def _require_sock(self) -> socket.socket:
        if self._sock is None:
            raise DaemonDisconnected("client connection is closed")
        return self._sock

    def _request(
        self, frame: Dict[str, Any], fault_rule: Optional[FaultRule] = None
    ) -> Dict[str, Any]:
        sock = self._require_sock()
        sock.settimeout(self.timeout)  # the last read left what remained of its own
        data = encode_frame(frame, self.max_frame_bytes)
        if fault_rule is not None:
            self._act_out(sock, data, fault_rule)
            if fault_rule.kind != "stalled_reader":
                return self._await_drop(frame)
        else:
            try:
                sock.sendall(data)
            except OSError as exc:
                self.close()
                raise DaemonDisconnected(f"send failed: {exc}") from exc
        reply = self._read_reply(frame)
        if reply.get("kind") == "error":
            raise DaemonRequestError(reply)
        return reply

    def _read_reply(self, frame: Mapping) -> Dict[str, Any]:
        """The frame answering ``frame``, which must be complete within
        ``timeout`` seconds from now -- however the peer spaces its bytes."""
        sock = self._require_sock()
        deadline = time.monotonic() + self.timeout
        try:
            while True:
                reply = self._decoder.next_frame()
                if reply is None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise socket.timeout
                    sock.settimeout(remaining)
                    chunk = sock.recv(65536)
                    if not chunk:
                        raise DaemonDisconnected(
                            "daemon closed the connection before responding"
                        )
                    self._decoder.feed(chunk)
                elif reply.get("id") == frame.get("id") or reply.get("id") is None:
                    return reply
                # else a response to an older (faulted) request: keep reading.
        except socket.timeout:
            self.close()
            raise DaemonDisconnected(f"no response within {self.timeout}s") from None
        except (DaemonProtocolError, OSError) as exc:
            self.close()
            raise DaemonDisconnected(
                f"connection lost awaiting response: {exc}"
            ) from exc
        except DaemonDisconnected:
            self.close()
            raise

    # -- the scripted client seam --------------------------------------
    def _act_out(self, sock: socket.socket, data: bytes, rule: FaultRule) -> None:
        """Perform a connection fault on the wire.  ``client_disconnect``
        writes the *whole* request and hard-closes without reading the
        response -- the request is admitted and in flight when the daemon
        notices the disconnect, which is exactly the abandon-and-release
        path under test.  ``partial_frame`` writes half a frame and goes
        silent (the daemon's mid-frame deadline drops us before anything
        is admitted); ``stalled_reader`` stalls ``seconds`` mid-frame and
        then finishes (surviving iff the stall beats the daemon's I/O
        timeout)."""
        half = max(1, len(data) // 2)
        try:
            if rule.kind == "stalled_reader":
                sock.sendall(data[:half])
                time.sleep(rule.seconds)
                sock.sendall(data[half:])
                return
            if rule.kind == "partial_frame":
                sock.sendall(data[:half])
                return
            # client_disconnect: full request, then vanish mid-request.
            sock.sendall(data)
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                struct.pack("ii", 1, 0),  # hard close: RST, no FIN drain
            )
            self.close()
        except OSError as exc:
            self.close()
            raise DaemonDisconnected(
                f"injected {rule.kind} fault aborted the send: {exc}"
            ) from exc

    def _await_drop(self, frame: Mapping) -> Dict[str, Any]:
        """After ``client_disconnect``/``partial_frame`` the request can
        never be answered; surface the injected fault as the disconnect
        the script expects."""
        if self._sock is not None:  # partial_frame: wait for the daemon
            try:  # to notice the stall and drop us
                self._read_reply(frame)
            except DaemonDisconnected:
                pass
            finally:
                self.close()
        raise DaemonDisconnected(
            "injected connection fault: this request was deliberately lost"
        )


__all__ = [
    "DAEMON_FORMAT",
    "DAEMON_VERSION",
    "DEFAULT_MAX_FRAME_BYTES",
    "ERROR_CODES",
    "REQUEST_KINDS",
    "DaemonClient",
    "DaemonDisconnected",
    "DaemonError",
    "DaemonProtocolError",
    "DaemonRequestError",
    "FrameDecoder",
    "ServingDaemon",
    "decode_frame",
    "encode_frame",
    "format_address",
    "parse_address",
]
