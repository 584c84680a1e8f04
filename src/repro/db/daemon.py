"""Long-lived serving daemon: a socket front-end for the worker pool.

:class:`~repro.db.serving.ServingPool` (PR 7/8) made serving
process-parallel and crash-tolerant, but every client still had to live
in the pool's own process.  This module puts the pool behind a
Unix-domain or TCP socket so the serving plane survives its *clients*
too: a long-lived :class:`ServingDaemon` owns one supervised pool plus a
background statistics-refresh loop, and any number of processes talk to
it with :class:`DaemonClient` -- ``repro db daemon <store>`` runs it,
``repro db serve --daemon <addr>`` drives the QPS/oracle harness through
it.

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
  re-plan, the timer loop's body) and report the new generation.
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
                            then the connection is dropped
stall mid-frame             dropped after ``io_timeout_seconds`` (a
                            *started* frame must finish in time; an idle
                            connection may stay silent forever)
``AdmissionRejected``       ``admission_rejected`` error frame; the
                            connection stays open for a retry
pool degraded               ``degraded`` error frame per execute; health
                            reports ``status: "degraded"`` + the reason
SIGTERM / SIGINT /          drain-then-exit: stop accepting, finish or
``shutdown`` request        deadline-out in-flight work (bounded by
                            ``drain_timeout_seconds``), close the pool
                            (no orphan workers), exit 0
statistics refresh          runs concurrently on its own thread; the
                            refreshed payload set is hot-swapped
                            atomically between requests -- no serving gap
==========================  =============================================

Client-side faults are scriptable through the same
``REPRO_SERVE_FAULTS`` plan language as worker faults
(:mod:`repro.db.faults`, kinds ``client_disconnect`` /
``partial_frame`` / ``stalled_reader``), so the whole matrix replays
deterministically in tests and CI chaos smokes.

Threading model
---------------
The pool is single-owner: only the *dispatcher* thread touches it
(``submit`` / ``abandon``, and one ``pump`` per loop whose resolved ids it
collects and answers).  Each connection gets a reader thread that
decodes frames and forwards ``execute`` commands to the dispatcher over a
queue; ``health``, ``metrics`` and ``plans`` are answered inline from
state safe to read concurrently; ``refresh`` runs on the dedicated
refresh thread (planning may take a while and must not stall serving).
Responses go out under a per-connection send lock, so dispatcher and
reader never interleave bytes on one socket.
"""

from __future__ import annotations

import json
import logging
import os
import queue
import signal
import socket
import struct
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.db.faults import FaultPlan, FaultRule
from repro.db.serving import (
    AdmissionRejected,
    ServingError,
    ServingPool,
    prewarm,
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

#: Socket-level timeouts: the accept/read tick (how fast threads notice
#: shutdown) and the send timeout (a stalled response write drops the
#: connection rather than wedging the sender).
_TICK_SECONDS = 0.2
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
    except (ValueError, UnicodeDecodeError) as exc:
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


def _recv_some(sock: socket.socket) -> Optional[bytes]:
    """One recv with the tick timeout: bytes, ``b""`` on EOF, ``None``
    on a tick with no data."""
    try:
        return sock.recv(65536)
    except socket.timeout:
        return None
    except OSError:
        return b""  # reset/closed under us: same as EOF for the reader


#: Sentinel :meth:`_FrameReader.read` returns when the daemon is
#: draining and the peer is at a frame boundary -- distinct from ``None``
#: (peer EOF), because a drain must NOT abandon the peer's in-flight
#: requests the way a real hangup does.
_STOPPED = object()


class _FrameReader:
    """Incremental frame decoder over a socket with the daemon's
    idle-vs-stalled policy: a connection may sit idle between frames
    forever, but once the first byte of a frame arrives the rest must
    follow within ``io_timeout`` seconds."""

    def __init__(
        self,
        sock: socket.socket,
        *,
        max_frame_bytes: int,
        io_timeout: float,
        stop_event: threading.Event,
    ) -> None:
        self._sock = sock
        self._max = max_frame_bytes
        self._io_timeout = io_timeout
        self._stop = stop_event
        self._buffer = b""

    def read(self):
        """The next frame; ``None`` on clean peer EOF, :data:`_STOPPED`
        when the stop event fired at a frame boundary.  Raises
        :class:`DaemonProtocolError` on garbage and
        :class:`DaemonDisconnected` on mid-frame EOF or stall."""
        started_at = None if not self._buffer else time.monotonic()
        while True:
            frame = self._try_decode()
            if frame is not None:
                return frame
            if self._stop.is_set() and not self._buffer:
                return _STOPPED
            chunk = _recv_some(self._sock)
            if chunk is None:  # tick: no data
                if self._buffer:
                    if started_at is None:
                        started_at = time.monotonic()
                    elif time.monotonic() - started_at > self._io_timeout:
                        raise DaemonDisconnected(
                            f"peer stalled mid-frame for more than "
                            f"{self._io_timeout}s"
                        )
                continue
            if chunk == b"":
                if self._buffer:
                    raise DaemonDisconnected("peer closed mid-frame")
                return None
            if not self._buffer:
                started_at = time.monotonic()
            self._buffer += chunk

    def _try_decode(self) -> Optional[Dict[str, Any]]:
        if len(self._buffer) < _HEADER.size:
            return None
        (length,) = _HEADER.unpack(self._buffer[: _HEADER.size])
        if length == 0 or length > self._max:
            raise DaemonProtocolError(
                f"frame header declares {length:,} bytes "
                f"(limit {self._max:,}): not a daemon frame"
            )
        if len(self._buffer) < _HEADER.size + length:
            return None
        body = self._buffer[_HEADER.size : _HEADER.size + length]
        self._buffer = self._buffer[_HEADER.size + length :]
        return decode_frame(body)


# ----------------------------------------------------------------------
# Server.
# ----------------------------------------------------------------------


class _Connection:
    """One accepted client socket: a reader thread plus a locked sender."""

    def __init__(self, daemon: "ServingDaemon", sock: socket.socket, conn_id: int):
        self.daemon = daemon
        self.sock = sock
        self.conn_id = conn_id
        self.send_lock = threading.Lock()
        self.closed = threading.Event()
        self.thread = threading.Thread(
            target=self._run, name=f"repro-daemon-conn-{conn_id}", daemon=True
        )

    def start(self) -> None:
        self.sock.settimeout(_TICK_SECONDS)
        self.thread.start()

    def send(self, frame: Mapping) -> bool:
        """Serialise + write one frame; ``False`` (never raises) when the
        peer is gone or stalls past the send timeout -- the caller then
        treats the connection as hung up."""
        try:
            data = encode_frame(frame, self.daemon.max_frame_bytes)
        except DaemonProtocolError:  # pragma: no cover - response too big
            data = encode_frame(
                _error_frame(frame.get("id"), "internal", "response too large")
            )
        with self.send_lock:
            if self.closed.is_set():
                return False
            try:
                self.sock.settimeout(_SEND_TIMEOUT_SECONDS)
                self.sock.sendall(data)
                return True
            except OSError:
                return False
            finally:
                try:
                    self.sock.settimeout(_TICK_SECONDS)
                except OSError:  # pragma: no cover - socket torn down
                    pass

    def close(self) -> None:
        if self.closed.is_set():
            return
        self.closed.set()
        try:
            self.sock.close()
        except OSError:  # pragma: no cover
            pass

    # -- reader thread -------------------------------------------------
    def _run(self) -> None:
        daemon = self.daemon
        reader = _FrameReader(
            self.sock,
            max_frame_bytes=daemon.max_frame_bytes,
            io_timeout=daemon.io_timeout_seconds,
            stop_event=daemon._stop_event,
        )
        dropped = False
        draining = False
        try:
            while not self.closed.is_set():
                try:
                    frame = reader.read()
                except DaemonProtocolError as exc:
                    # Garbage: one best-effort error frame, then drop.
                    self.send(_error_frame(None, "bad_frame", str(exc)))
                    dropped = True
                    break
                except DaemonDisconnected:
                    dropped = True
                    break
                if frame is _STOPPED:
                    # Drain: stop reading, but the peer's in-flight
                    # requests still complete -- no hangup, the
                    # dispatcher keeps delivering on this socket.
                    draining = True
                    break
                if frame is None:  # the peer closed cleanly
                    break
                self._handle(frame)
        except Exception:  # pragma: no cover - reader must never kill the daemon
            dropped = True
        finally:
            if dropped:
                daemon.metrics.counter("connections_dropped").inc()
            if not draining:
                daemon._hangup(self)

    def _handle(self, frame: Mapping) -> None:
        daemon = self.daemon
        frame_id = frame.get("id")
        kind = frame.get("kind")
        if kind not in REQUEST_KINDS:
            self.send(
                _error_frame(
                    frame_id,
                    "bad_request",
                    f"unknown request kind {kind!r}; expected one of "
                    f"{', '.join(REQUEST_KINDS)}",
                )
            )
            return
        if kind == "execute":
            daemon._commands.put(("execute", self, dict(frame)))
        elif kind == "health":
            self.send(daemon._health_frame(frame_id))
        elif kind == "metrics":
            self.send(daemon._metrics_frame(frame_id))
        elif kind == "plans":
            self.send(daemon._plans_frame(frame_id))
        elif kind == "refresh":
            daemon._refresh_requests.put((self, frame_id))
        elif kind == "shutdown":
            self.send(dict(_base_frame("response", frame_id), draining=True))
            daemon.request_shutdown()


class ServingDaemon:
    """The long-lived serving front-end; see the module docstring for
    the wire protocol and the fault matrix.

    Parameters mirror :class:`~repro.db.serving.ServingPool` where they
    are forwarded verbatim (``workers``, budgets, restart/deadline
    knobs).  ``queries`` (with ``k_values``/``answer``) enables the
    planning side: the ``plans`` request kind and the statistics-refresh
    loop (every ``refresh_seconds``, plus on-demand ``refresh``
    requests).  Without queries the daemon is a pure executor for
    client-supplied payloads.

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
        plan_cache=None,
        trace_out=None,
        **pool_options,
    ) -> None:
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
        self.plan_cache = plan_cache
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
        self._planning_db = None
        self._listener: Optional[socket.socket] = None
        self._connections: Dict[int, _Connection] = {}
        self._connections_lock = threading.Lock()
        self._next_conn_id = 0
        self._commands: "queue.Queue" = queue.Queue()
        self._refresh_requests: "queue.Queue" = queue.Queue()
        self._payloads: List[Dict[str, Any]] = []
        self._payload_lock = threading.Lock()
        self._generation = 0
        self._stop_event = threading.Event()
        self._finished = threading.Event()
        self._threads: List[threading.Thread] = []

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ServingDaemon":
        """Bind, prewarm, spawn the pool and all service threads.  After
        this returns the daemon is serving; :attr:`address` carries the
        actually-bound address (TCP port 0 resolves here)."""
        if self._pool is not None:
            raise DaemonError("daemon already started")
        # Fork the workers *before* spawning our own service threads:
        # forking a single-threaded process is the safe order.
        self._pool = ServingPool(self.store_path, workers=self.workers,
                                 trace=self._trace_recorder,
                                 metrics=self.metrics,
                                 **self.pool_options)
        try:
            if self.queries:
                from repro.db.database import Database

                self._planning_db = Database.open(self.store_path)
                self._refresh_payloads(analyze=False)  # stats are fresh at save
            self._listener = self._bind()
        except BaseException:
            self._pool.close()
            raise
        self.started_at = time.monotonic()
        for name, target in (
            ("repro-daemon-accept", self._accept_loop),
            ("repro-daemon-dispatch", self._dispatch_loop),
            ("repro-daemon-refresh", self._refresh_loop),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
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
        listener.settimeout(_TICK_SECONDS)
        return listener

    def request_shutdown(self) -> None:
        """Begin drain-then-exit (idempotent, signal-safe): stop
        accepting, let in-flight work finish or deadline out, then close
        everything.  Returns immediately; :meth:`wait` blocks until the
        drain completes."""
        self._stop_event.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._finished.wait(timeout)

    def shutdown(self, *, drain: bool = True) -> int:
        """Drain (unless ``drain=False``, which abandons in-flight work
        immediately) and tear everything down.  Returns the exit code
        (0 = clean)."""
        if not drain:
            self.drain_timeout_seconds = 0.0
        self.request_shutdown()
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
        while not self._stop_event.wait(_TICK_SECONDS):
            pass  # polling wait: robust to signal delivery edge cases
        return self._finish()

    def _finish(self) -> int:
        """Tear-down, run by whichever thread called shutdown/serve_forever:
        close the listener, join the service threads (the dispatcher drains
        first), close connections and the pool, unlink the socket file."""
        if self._finished.is_set():
            return self.exit_code if self.exit_code is not None else 0
        self._stop_event.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
        join_deadline = time.monotonic() + self.drain_timeout_seconds + 10.0
        for thread in self._threads:
            thread.join(timeout=max(0.1, join_deadline - time.monotonic()))
        with self._connections_lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for connection in connections:
            connection.close()
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
        stuck = [t for t in self._threads if t.is_alive()]
        self.exit_code = 1 if stuck else 0
        self._finished.set()
        return self.exit_code

    def __enter__(self) -> "ServingDaemon":
        return self if self._pool is not None else self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- accept loop ---------------------------------------------------
    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stop_event.is_set():
            try:
                sock, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:  # listener closed: shutting down
                break
            if self._stop_event.is_set():
                sock.close()
                break
            with self._connections_lock:
                self._next_conn_id += 1
                connection = _Connection(self, sock, self._next_conn_id)
                self._connections[connection.conn_id] = connection
            self.metrics.counter("connections_accepted").inc()
            connection.start()

    def _hangup(self, connection: _Connection) -> None:
        """A connection's reader exited (EOF, garbage, stall): tell the
        dispatcher to abandon its in-flight requests, then close."""
        with self._connections_lock:
            self._connections.pop(connection.conn_id, None)
        self._commands.put(("hangup", connection, None))
        connection.close()

    # -- dispatcher (the only thread that touches the pool) ------------
    def _next_command(self, timeout: float = 0.0):
        """The next reader-thread command, waiting up to ``timeout``
        seconds for one; ``None`` when the queue stays empty."""
        try:
            return self._commands.get(timeout > 0, timeout)
        except queue.Empty:
            return None

    def _dispatch_loop(self) -> None:
        pool = self._pool
        # request_id -> (connection, frame_id, submit time); the third
        # slot feeds the request_latency_seconds histogram on delivery.
        outstanding: Dict[int, Tuple[_Connection, Any, float]] = {}
        drain_deadline = None
        while True:
            stopping = self._stop_event.is_set()
            if stopping and drain_deadline is None:
                drain_deadline = time.monotonic() + self.drain_timeout_seconds
            if stopping and (
                not outstanding or time.monotonic() > drain_deadline
            ):
                break
            # Idle: block on the command queue.  Work outstanding: block
            # (briefly) on the pool instead, so crash recovery and
            # deadlines advance between commands.
            command = self._next_command(0.0 if outstanding else _TICK_SECONDS)
            wait = 0.05 if outstanding and command is None else 0.0
            while command is not None:
                try:
                    self._handle_command(command, outstanding)
                except Exception as exc:  # one bad command must not kill serving
                    _DAEMON_LOG.exception("command failed")
                    _, connection, frame = command
                    if frame is not None:
                        self._send_error(
                            connection, frame.get("id"), "internal", repr(exc)
                        )
                command = self._next_command()
            for request_id in pool.pump(wait):
                connection, frame_id, started = outstanding.pop(request_id)
                self.metrics.histogram("request_latency_seconds").observe(
                    time.monotonic() - started
                )
                reply = dict(
                    _base_frame("response", frame_id),
                    response=pool.collect(request_id),
                )
                if connection.send(reply):
                    self.metrics.counter("requests_served").inc()
                # A failed send surfaces as the connection's own hangup.
        # Drain over (or timed out): everything still in flight is
        # abandoned and answered with a structured error.
        for request_id, (connection, frame_id, _started) in outstanding.items():
            pool.abandon(request_id)
            self.metrics.counter("abandoned_requests").inc()
            connection.send(
                _error_frame(
                    frame_id,
                    "shutting_down",
                    "daemon drained before this request completed",
                )
            )
        # ...and commands that raced the drain get an answer, not silence.
        while (command := self._next_command()) is not None:
            action, connection, frame = command
            if action == "execute":
                self._send_error(
                    connection, frame.get("id"), "shutting_down",
                    "daemon is draining; no new requests",
                )

    def _handle_command(self, command, outstanding) -> None:
        pool = self._pool
        action, connection, frame = command
        if action == "hangup":
            for request_id in [
                rid for rid, entry in outstanding.items() if entry[0] is connection
            ]:
                del outstanding[request_id]
                pool.abandon(request_id)
                self.metrics.counter("abandoned_requests").inc()
            return
        frame_id = frame.get("id")
        if self._stop_event.is_set():
            self._send_error(
                connection, frame_id, "shutting_down",
                "daemon is draining; no new requests",
            )
            return
        try:
            request_id = pool.submit(frame.get("payload"))
        except AdmissionRejected as exc:
            self._send_error(connection, frame_id, "admission_rejected", str(exc))
        except ServingError as exc:
            code = "degraded" if pool.degraded else "internal"
            self._send_error(connection, frame_id, code, str(exc))
        except DatabaseError as exc:
            self._send_error(connection, frame_id, "bad_request", str(exc))
        else:
            outstanding[request_id] = (connection, frame_id, time.monotonic())

    def _send_error(self, connection, frame_id, code: str, message: str) -> None:
        self.metrics.counter("error_frames").inc()
        connection.send(_error_frame(frame_id, code, message))

    # -- inline request kinds ------------------------------------------
    def _status_frame(self, kind: str, frame_id) -> Dict[str, Any]:
        """The status snapshot both ``health`` and ``metrics`` frames are
        views over.  Read from reader threads: counters are lock-protected
        and the pool's depth views take atomic snapshots."""
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
        if self._stop_event.is_set():
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
        with self._payload_lock:
            payloads = list(self._payloads)
            generation = self._generation
        frame = _base_frame("plans", frame_id)
        frame.update(generation=generation, payloads=payloads)
        return frame

    # -- statistics refresh --------------------------------------------
    def _refresh_payloads(self, analyze: bool = True) -> int:
        """One refresh: re-analyze + re-plan the query set, then
        atomically hot-swap the published payload set.  In-flight and
        concurrent requests keep executing whatever payload they already
        hold -- there is no serving gap, only a generation bump."""
        payloads = prewarm(
            self._planning_db,
            self.queries,
            k_values=self.k_values,
            plan_cache=self.plan_cache,
            analyze=analyze,
            answer=self.answer,
        )
        with self._payload_lock:
            self._payloads = payloads
            self._generation += 1
            return self._generation

    def _refresh_loop(self) -> None:
        while not self._stop_event.is_set():
            timeout = self.refresh_seconds if self.refresh_seconds else _TICK_SECONDS
            try:
                request = self._refresh_requests.get(timeout=timeout)
            except queue.Empty:
                # Timer tick: refresh only when configured to.
                if not self.refresh_seconds:
                    continue
                request = None
            if self._stop_event.is_set():
                break
            connection: Optional[_Connection] = None
            frame_id = None
            if request is not None:
                connection, frame_id = request
            if self._planning_db is None:
                if connection is not None:
                    self._send_error(
                        connection, frame_id, "refresh_unavailable",
                        "daemon was started without --query; there is no "
                        "query set to re-plan",
                    )
                continue
            started = time.monotonic()
            try:
                generation = self._refresh_payloads(analyze=True)
            except Exception as exc:  # keep serving on a failed refresh
                self.metrics.counter("refresh_errors").inc()
                if connection is not None:
                    self._send_error(
                        connection, frame_id, "refresh_failed", str(exc)
                    )
                continue
            self.metrics.counter("refreshes").inc()
            if connection is not None:
                connection.send(
                    dict(
                        _base_frame("response", frame_id),
                        refreshed=True,
                        generation=generation,
                        seconds=round(time.monotonic() - started, 4),
                    )
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
        # One reader for the connection's lifetime: bytes buffered past a
        # frame boundary (e.g. while skipping a stale response) must
        # survive into the next call.
        self._reader = _FrameReader(
            self._sock,
            max_frame_bytes=self.max_frame_bytes,
            io_timeout=self.timeout,
            stop_event=threading.Event(),  # never set: deadline rules here
        )

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
        self._require_sock()
        deadline = time.monotonic() + self.timeout
        reader = self._reader
        while True:
            if time.monotonic() > deadline:
                self.close()
                raise DaemonDisconnected(
                    f"no response within {self.timeout}s"
                )
            try:
                reply = reader.read()
            except (DaemonProtocolError, DaemonDisconnected) as exc:
                self.close()
                raise DaemonDisconnected(
                    f"connection lost awaiting response: {exc}"
                ) from exc
            if reply is None or reply is _STOPPED:
                self.close()
                raise DaemonDisconnected(
                    "daemon closed the connection before responding"
                )
            if reply.get("id") == frame.get("id") or reply.get("id") is None:
                return reply
            # A response to an older (faulted) request: keep reading.

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
    "ServingDaemon",
    "decode_frame",
    "encode_frame",
    "format_address",
    "parse_address",
]
