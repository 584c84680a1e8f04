"""serve_rows and serve_open: the daemon subprocess over a Unix socket.

Both workloads serve one store -- chain4 relations for three answer sizes
plus cycle6 -- through ``python -m repro.cli db daemon`` with a two-worker
pool and two client connections.  ``serve_rows`` is a closed loop of big
``rows`` answers; ``serve_open`` is an open loop of mostly small ``digest``
requests that arrive on a schedule while the daemon refreshes statistics in
the background."""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.db.daemon import (
    DAEMON_FORMAT,
    DAEMON_VERSION,
    DaemonClient,
    DaemonError,
    decode_frame,
    encode_frame,
)
from repro.db.database import Database
from repro.db.serving import TRACE_KEY, ServingPool, execute_payload, prewarm
from repro.db.storage import PlanCache
from repro.obs.trace import TraceRecorder

from bench import inputs, oracle
from bench.daemonproc import DaemonProcess
from bench.harness import (
    Ctx,
    Run,
    closed_loop,
    cpu_seconds,
    directory_bytes,
    metric,
    now,
    percentile,
)

# Frozen calibration constants (see bench/README.md).
CLIENTS = 2  # connections, one thread each: the machine has two cores
WORKERS = 2
K_VALUES = (2, 3)  # the daemon's default prewarm bounds
REFRESH_SECONDS = 2.0  # serve_open: background statistics refresh period
OPEN_RATE_RPS = 20  # serve_open: 520 requests in 26 s, about a third of the two-client closed-loop capacity (see README)
OPEN_BLOCK = ("c6",) * 9 + ("l",)  # serve_open: one big answer in ten requests
SLO_MS = 250.0  # serve_open: latency limit from the due time
PROBE_REPEATS = 7  # one-at-a-time tier probes per answer size (traced run)
HEALTH_POLL_S = 0.05  # traced serve_open: how often the generation is read

ROWS_NAME = "serve_rows"
ROWS_WHY = (
    "kernels are cheap and the answer path (id decode, JSON in the worker, queue, "
    "JSON frame, client decode) dominates: a wire-format fix shows here and "
    "barely moves exec_replay"
)
OPEN_NAME = "serve_open"
OPEN_WHY = (
    "small requests that arrive on a schedule beside a background refresh: fixed "
    "per-request overhead, queueing and refresh stalls show as latency_p95_ms here"
)


@dataclass
class State:
    store: Path
    database: Database  # the opened store: oracle and in-process probes
    payloads: Dict[str, Dict[str, object]]
    daemon: DaemonProcess
    clients: List[DaemonClient]
    trace_out: Optional[Path] = None
    expected: Dict[str, Dict[str, object]] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Set-up shared by both workloads.
# ----------------------------------------------------------------------


def _build_store(ctx: Ctx) -> Tuple[Path, Database, Dict[str, Dict[str, object]]]:
    """generate -> save -> open -> analyze -> cold prewarm through a
    PlanCache in the place the daemon looks for it."""
    spans = ctx.spans
    store = ctx.scratch / "store"
    generated = inputs.redraw(inputs.serving_bases(), ctx.seed)
    with spans.span("storage.save"):
        generated.save(store)
    with spans.span("storage.open"):
        database = Database.open(store)
    with spans.span("storage.analyze"):
        database.analyze()
    queries = inputs.queries_by_name()
    cache = PlanCache(store / "plans")

    def plan_all() -> Dict[str, Dict[str, object]]:
        return {
            name: prewarm(
                database, [query], k_values=K_VALUES, plan_cache=cache,
                answer="digest" if name == "c6" else "rows",
            )[0]
            for name, query in queries.items()
        }

    with spans.span("storage.plan_cache_write"):
        payloads = plan_all()
    if ctx.traced:
        with spans.span("storage.plan_cache_replay"):
            plan_all()
    return store, database, payloads


def _setup(ctx: Ctx, daemon_arguments: Sequence[str], warm_up: Sequence[str]) -> State:
    store, database, payloads = _build_store(ctx)
    arguments = ["--workers", str(WORKERS), *daemon_arguments]
    trace_out = None
    if ctx.traced:
        trace_out = ctx.scratch / "daemon-trace.json"
        arguments += ["--trace-out", str(trace_out)]
    daemon = DaemonProcess(store, ctx.scratch, arguments).start()
    state = State(store, database, payloads, daemon, [], trace_out)
    try:
        for _ in range(CLIENTS):
            state.clients.append(DaemonClient(daemon.address))
        for client in state.clients:
            for name in warm_up:
                client.execute(payloads[name])
    except BaseException:
        teardown(state)
        raise
    return state


def setup_rows(ctx: Ctx) -> State:
    return _setup(ctx, (), tuple(inputs.ROWS_SIZES))


def setup_open(ctx: Ctx) -> State:
    arguments = (
        "--query", inputs.CYCLE6_TEXT, "--refresh-seconds", str(REFRESH_SECONDS),
        "--answer", "digest",
    )
    return _setup(ctx, arguments, ("c6", "l"))


def prepare_oracle(state: State, ctx: Ctx) -> None:
    """The serial in-process answers the pooled and daemon tiers must equal."""
    for name, payload in state.payloads.items():
        state.expected[name] = oracle.expected_response(payload, state.database)


def teardown(state: State) -> None:
    for client in state.clients:
        client.close()
    state.clients.clear()
    state.daemon.stop()


# ----------------------------------------------------------------------
# Sending requests.
# ----------------------------------------------------------------------


def _send(state: State, client: DaemonClient, name: str):
    """One request; the response, or the error that refused or lost it."""
    try:
        return client.execute(state.payloads[name])
    except DaemonError as exc:  # structured refusal, timeout or lost connection
        return exc


def _verdict(state: State, name: str, answer) -> Tuple[str, int]:
    """``("ok" | "failed" | "mismatch", attempts)`` -- called after the op's
    end time was taken, so checking costs the op nothing."""
    if isinstance(answer, DaemonError) or answer.get("status") != "ok":
        return "failed", 0
    attempts = answer.get("serving", {}).get("attempts", 0)
    if not oracle.matches(answer, state.expected[name]):
        return "mismatch", attempts
    return "ok", attempts


def _in_threads(targets: Sequence[Callable[[], None]]) -> None:
    """Run the client threads to completion; re-raise what one of them raised."""
    errors: List[BaseException] = []

    def guarded(target):
        try:
            target()
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _as_run(rows, wall_s: float, cpu_s: float) -> Run:
    """``rows`` are ``(latency_s, verdict)``."""
    return Run(
        latencies_s=[latency for latency, verdict in rows if verdict == "ok"],
        attempted=len(rows),
        failed=sum(verdict == "failed" for _, verdict in rows),
        mismatches=sum(verdict == "mismatch" for _, verdict in rows),
        wall_s=wall_s,
        cpu_s=cpu_s,
    )


# ----------------------------------------------------------------------
# serve_rows: closed loop.
# ----------------------------------------------------------------------


def _rows_loop(state: State, seconds: float, ctx: Ctx):
    """Each client thread runs whole seeded passes of the 1:1:1 size mix.
    Returns the ``(size, start, end, (verdict, attempts))`` rows of all
    threads and their summary."""
    per_client: List[list] = [[] for _ in state.clients]

    def client_loop(index: int) -> None:
        client = state.clients[index]
        rows, _ = closed_loop(
            tuple(inputs.ROWS_SIZES), seconds, ctx.rng(f"{ROWS_NAME}:{index}"),
            lambda name: _send(state, client, name),
            check=lambda name, answer: _verdict(state, name, answer),
        )
        per_client[index] = rows

    cpu0 = cpu_seconds(state.daemon.pids())
    _in_threads([lambda i=i: client_loop(i) for i in range(len(state.clients))])
    cpu_s = cpu_seconds(state.daemon.pids()) - cpu0
    rows = [row for rows in per_client for row in rows]
    wall_s = max(end for _, _, end, _ in rows) - min(start for _, start, _, _ in rows)
    return rows, _as_run(
        [(end - start, verdict) for _, start, end, (verdict, _) in rows], wall_s, cpu_s
    )


def run_rows(state: State, seconds: float, ctx: Ctx) -> Run:
    return _rows_loop(state, seconds, ctx)[1]


def trace_rows(state: State, seconds: float, ctx: Ctx) -> Tuple[Run, Dict[str, Dict]]:
    """The tier probes -- the same payload one at a time through
    ``execute_payload``, a pool of the benchmark's own and the daemon -- then
    the closed loop against the daemon started with ``--trace-out``."""
    layers = _storage_layers(state, ctx)
    layers.update(_tier_probes(state, ctx))
    before = state.clients[0].metrics()
    rows, result = _rows_loop(state, seconds, ctx)
    after = state.clients[0].metrics()
    layers.update(_service_counters(before, after, rows, result))
    return result, layers


def _storage_layers(state: State, ctx: Ctx) -> Dict[str, Dict]:
    spans = ctx.spans
    layers = {
        f"storage.{stage}_ms": metric(spans.p50(f"storage.{stage}"), "ms")
        for stage in ("save", "open", "analyze", "plan_cache_write", "plan_cache_replay")
    }
    columns = directory_bytes(state.store) - directory_bytes(state.store / "plans")
    layers["storage.store_bytes"] = metric(columns, "bytes")
    layers["storage.bytes_per_tuple"] = metric(
        columns / state.database.total_tuples(), "bytes"
    )
    return layers


def _tier_probes(state: State, ctx: Ctx) -> Dict[str, Dict]:
    spans = ctx.spans
    client = state.clients[0]
    rows_of = {name: state.expected[name]["cardinality"] for name in inputs.ROWS_SIZES}
    served_by_size = {}
    with ServingPool(state.store, workers=WORKERS, trace=TraceRecorder()) as pool:
        for name in inputs.ROWS_SIZES:
            payload = state.payloads[name]
            traced_payload = {**payload, "trace": True}
            pool.collect(pool.submit(payload))  # first touch of each worker's pages
            for _ in range(PROBE_REPEATS):
                with spans.span(f"serving.serial.{name}"):
                    serial = execute_payload(traced_payload, state.database)
                with spans.span(f"serving.pool.{name}"):
                    pooled = pool.collect(pool.submit(payload))
                with spans.span(f"daemon.request.{name}"):
                    served = client.execute(payload)
                for tier in (serial, pooled, served):
                    if not oracle.matches(tier, state.expected[name]):
                        raise AssertionError(f"tier probe of size {name} differs from the oracle")
            served_by_size[name] = served
    layers: Dict[str, Dict] = {}
    for name in inputs.ROWS_SIZES:
        serial_ms = spans.p50(f"serving.serial.{name}")
        pool_ms = spans.p50(f"serving.pool.{name}")
        request_ms = spans.p50(f"daemon.request.{name}")
        layers[f"serving.serial_ms.{name}"] = metric(serial_ms, "ms")
        layers[f"serving.pool_ms.{name}"] = metric(pool_ms, "ms")
        layers[f"serving.pool_hop_ms.{name}"] = metric(pool_ms - serial_ms, "ms")
        layers[f"daemon.request_ms.{name}"] = metric(request_ms, "ms")
        layers[f"daemon.socket_hop_ms.{name}"] = metric(request_ms - pool_ms, "ms")
    # Least squares of the daemon's request time over the answer size.
    points = [
        (rows_of[name] / 1000.0, ms)
        for name in inputs.ROWS_SIZES
        for ms in spans.ms(f"daemon.request.{name}")
    ]
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / sum(
        (x - mean_x) ** 2 for x, _ in points
    )
    layers["daemon.ms_per_krow"] = metric(slope, "ms")
    layers["daemon.fixed_ms"] = metric(mean_y - slope * mean_x, "ms")
    # Framing cost of the largest answer, on the frame an untraced client
    # gets: the span block a --trace-out daemon attaches would make the
    # frame's length a timing.
    frame = {
        "format": DAEMON_FORMAT, "version": DAEMON_VERSION, "kind": "response", "id": 1,
        "response": {k: v for k, v in served_by_size["l"].items() if k != TRACE_KEY},
    }
    for _ in range(PROBE_REPEATS):
        with spans.span("daemon.encode_frame"):
            wire = encode_frame(frame)
        with spans.span("daemon.decode_frame"):
            decode_frame(wire[4:])
    layers["daemon.encode_frame_ms"] = metric(spans.p50("daemon.encode_frame"), "ms")
    layers["daemon.decode_frame_ms"] = metric(spans.p50("daemon.decode_frame"), "ms")
    layers["daemon.response_bytes"] = metric(len(wire), "bytes")
    return layers


def _service_counters(before: Mapping, after: Mapping, rows, result: Run) -> Dict[str, Dict]:
    """Retries, restarts and refusals the daemon counted during the loop,
    and its own view of request latency against the clients'."""

    def counted(name: str) -> int:
        return (
            after["metrics"]["counters"].get(name, 0)
            - before["metrics"]["counters"].get(name, 0)
        )

    served = after["latency"]["count"] - before["latency"]["count"]
    server_ms = (after["latency"]["sum"] - before["latency"]["sum"]) / served * 1e3
    client_ms = sum(result.latencies_s) / len(result.latencies_s) * 1e3
    attempts = [attempts for _, _, _, (verdict, attempts) in rows if verdict == "ok"]
    return {
        "serving.attempts_per_request": metric(sum(attempts) / len(attempts), "count"),
        "serving.retries": metric(counted("retries"), "count"),
        "serving.restarts": metric(after["restarts"] - before["restarts"], "count"),
        "serving.admission_rejected": metric(counted("admission_rejected"), "count"),
        "daemon.server_latency_ms": metric(server_ms, "ms"),
        "daemon.client_overhead_ms": metric(client_ms - server_ms, "ms"),
    }


# ----------------------------------------------------------------------
# serve_open: open loop.
# ----------------------------------------------------------------------


def _open_loop(state: State, seconds: float, ctx: Ctx):
    """Requests fall due at seeded Poisson arrival times -- ``OPEN_RATE_RPS *
    seconds`` of them, uniform over the window, which is a Poisson process
    given its count -- and go out on whichever connection is free first.
    Latency counts from the due time, so a stall charges every request it
    delays.  Returns the ``(name, due, ready, sent, done, verdict)`` rows and
    their summary."""
    rng = ctx.rng(OPEN_NAME)
    count = int(OPEN_RATE_RPS * seconds)
    offsets = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    names: List[str] = []
    while len(names) < count:
        block = list(OPEN_BLOCK)
        rng.shuffle(block)
        names += block
    rows: List[tuple] = []
    lock = threading.Lock()
    cursor = iter(range(count))
    cpu0 = cpu_seconds(state.daemon.pids())
    origin = now() + 0.05

    def sender(client: DaemonClient) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = origin + offsets[index]
            ready = max(due, now())  # a busy connection is the system's delay
            time.sleep(max(0.0, ready - now()))
            sent = now()
            answer = _send(state, client, names[index])
            done = now()
            verdict, _ = _verdict(state, names[index], answer)
            with lock:
                rows.append((names[index], due, ready, sent, done, verdict))

    _in_threads([lambda c=client: sender(c) for client in state.clients])
    cpu_s = cpu_seconds(state.daemon.pids()) - cpu0
    wall_s = max(row[4] for row in rows) - origin
    return rows, _as_run(
        [(done - due, verdict) for _, due, _, _, done, verdict in rows], wall_s, cpu_s
    )


def run_open(state: State, seconds: float, ctx: Ctx) -> Run:
    return _open_loop(state, seconds, ctx)[1]


def trace_open(state: State, seconds: float, ctx: Ctx) -> Tuple[Run, Dict[str, Dict]]:
    """The open loop against the daemon started with ``--trace-out``, beside
    a third connection that reads ``health`` to time the refresh generations.
    The daemon is drained at the end: it writes its spans on exit."""
    bumps: List[Tuple[float, float]] = []  # (last poll before, first poll after)
    stop = threading.Event()

    def watch_generation() -> None:
        with DaemonClient(state.daemon.address) as watcher:
            seen_at, generation = now(), watcher.health()["generation"]
            while not stop.wait(HEALTH_POLL_S):
                polled_at, current = now(), watcher.health()["generation"]
                if current != generation:
                    bumps.append((seen_at, polled_at))
                seen_at, generation = polled_at, current

    watcher = threading.Thread(target=watch_generation)
    before = state.clients[0].health()
    watcher.start()
    try:
        rows, result = _open_loop(state, seconds, ctx)
    finally:
        stop.set()
        watcher.join()
    after = state.clients[0].health()

    during: List[float] = []  # latencies of requests that span a generation bump
    quiet: List[float] = []
    misses = 0
    for _, due, _, _, done, verdict in rows:
        ms = (done - due) * 1e3
        misses += verdict != "ok" or ms > SLO_MS
        if verdict == "ok":
            spans_bump = any(due <= seen and done >= last_quiet for last_quiet, seen in bumps)
            (during if spans_bump else quiet).append(ms)
    lag_ms = [(sent - ready) * 1e3 for _, _, ready, sent, _, _ in rows]
    first_due = min(row[1] for row in rows)
    layers = {
        "daemon.refreshes": metric(
            after["counters"].get("refreshes", 0) - before["counters"].get("refreshes", 0),
            "count",
        ),
        "daemon.refresh_overlap_ops": metric(len(during), "count"),
        # With no request across a refresh the stall it caused is the quiet one.
        "daemon.latency_during_refresh_p95_ms": metric(percentile(during or quiet, 95), "ms"),
        "daemon.latency_quiet_p95_ms": metric(percentile(quiet, 95), "ms"),
        "daemon.slo_miss_share": metric(misses / len(rows), "ratio"),
        "bench.gen_lag_p95_ms": metric(percentile(lag_ms, 95), "ms"),
        "bench.offered_rps": metric(len(rows) / seconds, "1/s"),
        "bench.achieved_rps": metric(
            result.ok / (max(row[4] for row in rows) - first_due), "1/s"
        ),
    }
    teardown(state)  # the drain writes the daemon's spans
    layers.update(_daemon_spans(state.trace_out))
    return result, layers


def _daemon_spans(trace_out: Path) -> Dict[str, Dict]:
    """Median admission, queue and attempt time from the daemon's own
    ``serving``-category spans (Chrome trace events, microseconds)."""
    events = json.loads(trace_out.read_text())["traceEvents"]
    layers = {}
    for phase in ("admission", "queue", "attempt"):
        durations_ms = [
            event["dur"] / 1e3
            for event in events
            if event["cat"] == "serving" and event["name"] == phase
        ]
        layers[f"serving.{phase}_ms"] = metric(percentile(durations_ms, 50), "ms")
    return layers
