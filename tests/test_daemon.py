"""Contract tests for the long-lived serving daemon (:mod:`repro.db.daemon`).

The headline contract: a payload served through the daemon's socket is
**byte-identical** (provenance-stripped) to the serial
:func:`~repro.db.serving.execute_payload` oracle -- pinned by Hypothesis
over join-order permutations and answer modes, and under concurrent
clients.  Around it, the fault matrix from the module docstring, each
cell driven deterministically through the :mod:`repro.db.faults`
connection seam:

* garbage on the wire -- one ``bad_frame`` error frame, the connection is
  dropped, every *other* connection keeps serving;
* client disconnect mid-request -- the in-flight request is abandoned and
  its admission slice released (a one-slice budget admits the next
  client);
* a frame stalling mid-write -- dropped after ``io_timeout_seconds``; a
  stall that finishes inside the timeout survives;
* a client that stops reading its responses -- they wait in that
  connection's out-buffer, every other connection is served at once, and
  the connection is dropped when the buffer outlives the send timeout;
* ``AdmissionRejected`` / unknown kinds / malformed payloads / a
  response over ``max_frame_bytes`` -- structured error frames on a
  connection that stays open;
* drain -- a ``shutdown`` request (and SIGTERM against the real CLI
  daemon in a subprocess) stops accepting, completes in-flight work,
  exits 0 and leaves no orphan workers and no socket file;
* statistics refresh -- one pool request: it swaps the payload set in
  with a generation bump, the published set is the serial oracle's plan,
  post-refresh responses still match the oracle, a worker dying
  mid-refresh is retried and answered, one raising is a ``refresh_failed``
  frame that leaves the generation alone, and a refresh during a drain is
  ``shutting_down``.

The CI matrix re-runs this module under ``REPRO_SERVE_MP_CONTEXT=spawn``.
"""

import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.db.daemon as daemon_module
from repro.db.daemon import (
    DAEMON_FORMAT,
    DAEMON_VERSION,
    DaemonClient,
    DaemonDisconnected,
    DaemonError,
    DaemonProtocolError,
    DaemonRequestError,
    ServingDaemon,
    decode_frame,
    encode_frame,
    format_address,
    parse_address,
)
from repro.db.database import Database
from repro.db.faults import FaultPlan, FaultRule
from repro.db.relation import Relation
from repro.db.serving import (
    execute_payload,
    query_to_payload,
    strip_provenance,
)
from repro.exceptions import DatabaseError
from repro.query.conjunctive import build_query
from repro.workloads.synthetic import workload_database

ATOMS = ["r0", "r1", "r2", "r3", "r4"]


def _query():
    body = [(f"r{i}", [f"X{i}", f"X{(i + 1) % 5}"]) for i in range(5)]
    return build_query(body, output_variables=["X0", "X2"], name="cycle_out")


def _payload(order=None, answer="digest", **knobs):
    base = {
        "format": "repro-serving",
        "version": 1,
        "query": query_to_payload(_query()),
        "plan": {"kind": "join_order", "order": list(order or ATOMS)},
        "answer": answer,
        "planning_seconds": 0.0,
    }
    base.update({k: v for k, v in knobs.items() if v is not None})
    return json.loads(json.dumps(base))


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    target = tmp_path_factory.mktemp("daemon") / "store"
    database = workload_database(
        _query(), tuples_per_relation=60, domain_size=10, seed=11
    )
    database.save(target)
    return target


@pytest.fixture(scope="module")
def serial_db(store):
    return Database.open(store)


@pytest.fixture(scope="module")
def daemon(store, tmp_path_factory):
    sock = tmp_path_factory.mktemp("sock") / "daemon.sock"
    served = ServingDaemon(
        store, f"unix:{sock}", workers=2, queries=[_query()]
    ).start()
    yield served
    served.shutdown()


@pytest.fixture()
def client(daemon):
    with DaemonClient(daemon.address) as c:
        yield c


def _spawn_daemon(store, tmp_path, **options):
    """A function-scoped daemon on its own socket (fault-matrix tests
    mutate restart/drop counters, so they do not share the module one)."""
    return ServingDaemon(
        store, f"unix:{tmp_path / 'fault.sock'}", **options
    ).start()


def _recv_frame(sock):
    """Read one raw frame off a plain socket (test-side decoder)."""
    header = b""
    while len(header) < 4:
        chunk = sock.recv(4 - len(header))
        if not chunk:
            return None
        header += chunk
    (length,) = struct.unpack(">I", header)
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        if not chunk:
            return None
        body += chunk
    return decode_frame(body)


# ----------------------------------------------------------------------
# Framing + addresses (pure units).
# ----------------------------------------------------------------------


class TestFraming:
    @settings(max_examples=50, deadline=None)
    @given(
        data=st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=8), inner, max_size=3),
            max_leaves=10,
        ),
        frame_id=st.none() | st.integers() | st.text(max_size=8),
    )
    def test_roundtrip(self, data, frame_id):
        frame = {
            "format": DAEMON_FORMAT,
            "version": DAEMON_VERSION,
            "id": frame_id,
            "kind": "execute",
            "payload": data,
        }
        wire = encode_frame(frame)
        (length,) = struct.unpack(">I", wire[:4])
        assert length == len(wire) - 4
        assert decode_frame(wire[4:]) == frame

    def test_oversized_frame_rejected_at_encode(self):
        frame = {"format": DAEMON_FORMAT, "version": DAEMON_VERSION, "x": "y" * 100}
        with pytest.raises(DaemonProtocolError, match="exceeds"):
            encode_frame(frame, max_frame_bytes=16)

    @pytest.mark.parametrize(
        "body",
        [
            b"\xff\xfe not json",
            b"[1, 2, 3]",
            b'{"format": "something-else", "version": 1}',
            b'{"format": "repro-daemon", "version": 999}',
            pytest.param(b"[" * 100_000, id="nested-past-the-recursion-limit"),
        ],
    )
    def test_decode_rejects_non_frames(self, body):
        with pytest.raises(DaemonProtocolError):
            decode_frame(body)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("unix:/run/repro.sock", ("unix", "/run/repro.sock")),
            ("/var/tmp/d.sock", ("unix", "/var/tmp/d.sock")),
            ("rel/path.sock", ("unix", "rel/path.sock")),
            ("tcp:localhost:7070", ("tcp", ("localhost", 7070))),
            ("127.0.0.1:0", ("tcp", ("127.0.0.1", 0))),
        ],
    )
    def test_parse_address(self, text, expected):
        assert parse_address(text) == expected
        assert parse_address(format_address(expected)) == expected

    @pytest.mark.parametrize("text", ["", "justahost", "host:notaport", ":7070"])
    def test_parse_address_rejects_garbage(self, text):
        with pytest.raises(DaemonError):
            parse_address(text)


# ----------------------------------------------------------------------
# Connection-fault rules (the client seam of repro.db.faults).
# ----------------------------------------------------------------------


class TestConnectionFaultRules:
    def test_connection_kind_cannot_anchor_on_worker(self):
        with pytest.raises(DatabaseError, match="worker_id"):
            FaultRule("client_disconnect", worker_id=0)

    def test_worker_kind_cannot_anchor_on_connection(self):
        with pytest.raises(DatabaseError, match="connection_id"):
            FaultRule("worker_exit", connection_id=0)

    def test_payload_roundtrip(self):
        rule = FaultRule(
            "stalled_reader", connection_id=3, request_id=1, seconds=0.25
        )
        clone = FaultRule.from_payload(rule.to_payload())
        assert clone.to_payload() == rule.to_payload()

    def test_seams_are_disjoint(self):
        connection_rule = FaultRule("client_disconnect", connection_id=1)
        worker_rule = FaultRule("worker_exit", worker_id=0)
        assert not connection_rule.matches(worker_id=1, request_id=0, attempt=1)
        assert not worker_rule.matches_connection(
            connection_id=0, request_index=0, attempt=1
        )
        assert connection_rule.matches_connection(
            connection_id=1, request_index=0, attempt=1
        )

    def test_connection_action_matches_and_decrements(self):
        plan = FaultPlan(
            [FaultRule("client_disconnect", connection_id=2, request_id=1)]
        )
        assert (
            plan.connection_action(connection_id=1, request_index=1) is None
        )
        assert (
            plan.connection_action(connection_id=2, request_index=0) is None
        )
        rule = plan.connection_action(connection_id=2, request_index=1)
        assert rule is not None and rule.kind == "client_disconnect"
        # The fire budget (times=1) is spent: the same slot never refires.
        assert (
            plan.connection_action(connection_id=2, request_index=1) is None
        )


# ----------------------------------------------------------------------
# Serving through the socket.
# ----------------------------------------------------------------------


#: Daemon settings the wire's rules refuse, by constructor keyword (the
#: refresh period is the first case of the test that uses them).
_BAD_DAEMON_KNOBS = {
    "default_deadline_seconds": (-1, 0, float("nan"), float("inf")),
    "io_timeout_seconds": (-1, 0, float("nan"), float("inf")),
    "drain_timeout_seconds": (-1, float("nan"), float("inf")),
    "default_memory_budget_bytes": (0, -400),
    "global_memory_budget_bytes": (0, -1),
    "workers": (0, -1),
    "max_pending": (0,),
    "max_worker_restarts": (-1,),
    "default_max_attempts": (0,),
    "retry_backoff_seconds": (-1, float("nan"), float("inf")),
}

#: The same settings as ``repro db daemon`` flags.
_BAD_CLI_KNOBS = [
    ("--deadline", "inf"), ("--deadline", "nan"), ("--deadline", "0"),
    ("--io-timeout", "inf"), ("--drain-timeout", "inf"),
    ("--drain-timeout", "-1"), ("--memory-budget-bytes", "0"),
    ("--global-memory-budget-bytes", "-1"),
    ("--workers", "0"), ("--max-attempts", "0"), ("--max-worker-restarts", "-3"),
]


class TestDaemonServes:
    def test_health_ready(self, daemon, client):
        health = client.health()
        assert health["status"] == "ready"
        assert health["workers"] == 2
        assert len(health["worker_pids"]) == 2
        for pid in health["worker_pids"]:
            os.kill(pid, 0)  # alive
        assert health["generation"] >= 1
        assert health["restarts"] == 0
        assert health["counters"]["connections_accepted"] >= 1
        assert health["pid"] == os.getpid()

    def test_plans_carry_prewarmed_payloads(self, client, serial_db):
        plans = client.plans()
        assert plans["generation"] >= 1
        assert plans["payloads"], "daemon was started with a query set"
        for payload in plans["payloads"]:
            assert payload["format"] == "repro-serving"
            # Every published payload is executable as-is.
            execute_payload(payload, serial_db)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            # One long-lived client across examples is the point: the
            # daemon connection is stateful but requests are independent.
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        order=st.permutations(ATOMS),
        answer=st.sampled_from(["rows", "digest"]),
    )
    def test_execute_matches_serial_oracle(self, client, serial_db, order, answer):
        payload = _payload(order=order, answer=answer)
        response = client.execute(payload)
        assert "serving" in response  # pool provenance survives the wire
        assert strip_provenance(response) == execute_payload(payload, serial_db)

    def test_concurrent_clients_all_match_oracle(self, daemon, serial_db):
        payload = _payload()
        oracle = execute_payload(payload, serial_db)
        results = {}

        def drive(slot):
            with DaemonClient(daemon.address) as c:
                results[slot] = [c.execute(payload) for _ in range(3)]

        threads = [
            threading.Thread(target=drive, args=(slot,)) for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert sorted(results) == [0, 1, 2, 3]
        for responses in results.values():
            assert [strip_provenance(r) for r in responses] == [oracle] * 3

    def test_refresh_bumps_generation_and_keeps_serving(self, client, serial_db):
        before = client.health()["generation"]
        refreshed = client.refresh()
        assert refreshed["refreshed"] is True
        assert refreshed["generation"] == before + 1
        plans = client.plans()
        assert plans["generation"] >= before + 1
        # The hot-swapped payloads still serve and still match the oracle.
        payload = plans["payloads"][0]
        response = client.execute(payload)
        assert strip_provenance(response) == execute_payload(payload, serial_db)

    def test_refreshed_plans_are_the_serial_oracle(self, client, store):
        """A refresh is one pool request answered by ``execute_payload``,
        so the published set is what the serial oracle plans from the same
        payload (``planning_seconds`` aside: the cache may be warm)."""
        refresh = {
            "format": "repro-serving",
            "version": 1,
            "prewarm": {
                "queries": [query_to_payload(_query())],
                "k_values": [2, 3],
                "analyze": True,
            },
            "answer": "digest",
            "memory_budget_bytes": 0,
        }
        client.refresh()
        oracle = execute_payload(refresh, Database.open(store))
        assert oracle["status"] == "ok"

        def unclocked(payloads):
            return [dict(p, planning_seconds=None) for p in payloads]

        assert unclocked(client.plans()["payloads"]) == unclocked(oracle["payloads"])

    def test_execute_with_a_prewarm_block_is_bad_request(self, client):
        """Planning and plan-cache writes are the daemon's own requests: a
        client payload carrying a ``prewarm`` block is never admitted."""
        payload = dict(
            _payload(),
            prewarm={
                "queries": [query_to_payload(_query())],
                "k_values": [2],
                "analyze": True,
            },
        )
        admitted = client.metrics()["metrics"]["counters"]["requests_admitted"]
        with pytest.raises(DaemonRequestError) as excinfo:
            client.execute(payload)
        assert excinfo.value.code == "bad_request"
        metrics = client.metrics()
        assert metrics["metrics"]["counters"]["requests_admitted"] == admitted
        assert client.health()["status"] == "ready"

    def test_refresh_timer_bumps_generation(self, store, tmp_path):
        with _spawn_daemon(
            store, tmp_path, workers=1, queries=[_query()], refresh_seconds=0.1
        ) as daemon:
            with DaemonClient(daemon.address) as client:
                deadline = time.monotonic() + 30.0
                while client.health()["counters"]["refreshes"] < 2:
                    assert time.monotonic() < deadline, "the timer never fired"
                    time.sleep(0.02)
                health = client.health()
        # The start-up plan is generation 1; every refresh adds one.
        assert health["generation"] == 1 + health["counters"]["refreshes"]
        assert health["counters"]["refresh_errors"] == 0

    @pytest.mark.parametrize(
        "knob, value",
        [
            pytest.param("refresh_seconds", seconds, id=str(seconds))
            for seconds in (-1, 0, float("nan"), float("inf"))
        ]
        + [
            pytest.param(knob, value, id=f"{knob}={value}")
            for knob, values in _BAD_DAEMON_KNOBS.items()
            for value in values
        ],
    )
    def test_refresh_period_must_be_positive_and_finite(
        self, store, tmp_path, knob, value
    ):
        """Not a period is refused at construction, not found out later by
        the timer; "no timer" is spelled ``None``.  The daemon's other time
        and budget settings follow the wire's rules the same way: an
        infinite deadline or I/O timeout used to kill the loop at the
        first request or stalled frame, an infinite drain timeout
        ``shutdown()``, and a budget below one byte admitted everything."""
        with pytest.raises(DaemonError, match=knob):
            ServingDaemon(store, f"unix:{tmp_path / 'never.sock'}", **{knob: value})

    def test_cli_refuses_a_negative_refresh_period(self, store, capsys):
        from repro.cli import main

        for flag, value in [("--refresh-seconds", "-1")] + _BAD_CLI_KNOBS:
            assert main(["db", "daemon", str(store), flag, value]) == 2, flag
            err = capsys.readouterr().err
            assert err.startswith("repro: error:") and err.count("\n") == 1, err

    def test_unknown_kind_is_structured_error(self, client):
        before = client.health()["counters"]["error_frames"]
        frame = client._frame("bogus_kind")
        with pytest.raises(DaemonRequestError) as excinfo:
            client._request(frame)
        assert excinfo.value.code == "bad_request"
        health = client.health()
        assert health["status"] == "ready"  # connection survived
        # Every error frame is counted, whichever path produced it.
        assert health["counters"]["error_frames"] == before + 1

    def test_malformed_payload_is_bad_request(self, client):
        with pytest.raises(DaemonRequestError) as excinfo:
            client.execute({"format": "not-a-serving-payload", "version": 999})
        assert excinfo.value.code == "bad_request"
        assert client.health()["status"] == "ready"

    def test_bad_threads_knob_is_bad_request(self, client, serial_db):
        """``threads`` is checked at ``submit`` with the other knobs: it used
        to be dispatched and come back as a worker's ``"error"`` response
        carrying a ``ValueError``."""
        with pytest.raises(DaemonRequestError) as excinfo:
            client.execute(_payload(threads="x"))
        assert excinfo.value.code == "bad_request"
        assert "threads" in str(excinfo.value)
        payload = _payload()
        assert strip_provenance(client.execute(payload)) == (
            execute_payload(payload, serial_db)
        )

    def test_zero_byte_memory_slice_is_bad_request(self, client, serial_db):
        """A 0-byte slice would be charged nothing at admission and run
        unbudgeted; it is refused before admission, and the connection
        keeps serving."""
        with pytest.raises(DaemonRequestError) as excinfo:
            client.execute(_payload(memory_budget_bytes=0))
        assert excinfo.value.code == "bad_request"
        assert "memory_budget_bytes" in str(excinfo.value)
        payload = _payload()
        assert strip_provenance(client.execute(payload)) == (
            execute_payload(payload, serial_db)
        )

    def test_bad_execute_frames_never_kill_the_dispatcher(
        self, store, tmp_path, serial_db, monkeypatch
    ):
        """A payload knob of the wrong type used to raise ``ValueError``
        out of admission and kill the dispatcher thread -- no execute on
        any connection was ever answered again and the drain hung.  It is
        a ``bad_request`` now, and an exception nobody foresaw is one
        ``internal`` error frame, not the end of serving."""
        daemon = _spawn_daemon(store, tmp_path, workers=1)
        try:
            with DaemonClient(daemon.address) as vandal:
                with pytest.raises(DaemonRequestError) as excinfo:
                    vandal.execute(_payload(memory_budget_bytes="lots"))
                assert excinfo.value.code == "bad_request"
                assert "memory_budget_bytes" in str(excinfo.value)
                real_submit = daemon._pool.submit
                monkeypatch.setattr(
                    daemon._pool, "submit", lambda payload: 1 // 0
                )
                with pytest.raises(DaemonRequestError) as excinfo:
                    vandal.execute(_payload())
                assert excinfo.value.code == "internal"
                monkeypatch.setattr(daemon._pool, "submit", real_submit)
            payload = _payload()
            with DaemonClient(daemon.address) as healthy:
                assert strip_provenance(healthy.execute(payload)) == (
                    execute_payload(payload, serial_db)
                )
                assert healthy.health()["counters"]["error_frames"] == 2
        finally:
            assert daemon.shutdown() == 0

    def test_tcp_executor_without_queries(self, store, serial_db):
        with ServingDaemon(store, "tcp:127.0.0.1:0", workers=1) as daemon:
            family, (host, port) = daemon.address
            assert family == "tcp" and port != 0  # port 0 resolved at bind
            payload = _payload()
            with DaemonClient(f"tcp:{host}:{port}") as client:
                response = client.execute(payload)
                assert strip_provenance(response) == execute_payload(
                    payload, serial_db
                )
                # No query set: refresh is a structured error, not a hang.
                with pytest.raises(DaemonRequestError) as excinfo:
                    client.refresh()
                assert excinfo.value.code == "refresh_unavailable"

    def test_one_thread_whatever_the_number_of_connections(self, store, tmp_path):
        """The architecture: one loop thread owns every socket, the pool
        and every timer, the refresh period's included; planning runs in
        the workers -- connections and refreshes add no threads."""
        others = set(threading.enumerate())  # e.g. the module's daemon
        with _spawn_daemon(
            store, tmp_path, workers=1, queries=[_query()], refresh_seconds=0.2
        ) as daemon:
            clients = [DaemonClient(daemon.address) for _ in range(8)]
            try:
                for c in clients:  # answered, hence accepted
                    assert c.health()["status"] == "ready"
                clients[0].refresh()
                names = sorted(
                    t.name for t in set(threading.enumerate()) - others
                    if t.name.startswith("repro-daemon-")
                )
                assert names == ["repro-daemon-loop"]
            finally:
                for c in clients:
                    c.close()

    def test_client_timeout_covers_a_silent_peer(self, tmp_path):
        """``timeout`` bounds the whole wait for a reply: a peer that
        accepts and then says nothing used to block the client forever
        (the deadline was only looked at between frames)."""
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(str(tmp_path / "silent.sock"))
        listener.listen(1)
        try:
            with DaemonClient(f"unix:{tmp_path / 'silent.sock'}", timeout=1.0) as c:
                started = time.monotonic()
                with pytest.raises(
                    DaemonDisconnected, match=r"no response within 1\.0s"
                ):
                    c.health()
                assert 0.9 < time.monotonic() - started < 5.0
        finally:
            listener.close()


# ----------------------------------------------------------------------
# The fault matrix.
# ----------------------------------------------------------------------


class TestConnectionFaultMatrix:
    def test_garbage_drops_connection_others_keep_serving(
        self, store, tmp_path, serial_db
    ):
        with _spawn_daemon(store, tmp_path, workers=1) as daemon:
            healthy = DaemonClient(daemon.address)
            vandal = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            vandal.connect(str(daemon.address[1]))
            vandal.settimeout(10.0)
            vandal.sendall(b"GET / HTTP/1.1\r\nHost: daemon\r\n\r\n")
            reply = _recv_frame(vandal)
            assert reply["kind"] == "error" and reply["code"] == "bad_frame"
            assert vandal.recv(4096) == b""  # ...and then we are dropped
            vandal.close()
            # The healthy connection never noticed.
            payload = _payload()
            response = healthy.execute(payload)
            assert strip_provenance(response) == execute_payload(
                payload, serial_db
            )
            counters = healthy.health()["counters"]
            assert counters["connections_dropped"] >= 1
            assert counters["error_frames"] == 1  # the bad_frame frame counts
            healthy.close()

    def test_body_the_decoder_chokes_on_costs_one_connection(
        self, store, tmp_path, serial_db, monkeypatch
    ):
        """A well-framed body far under the size limit can still make the
        JSON decoder raise something that is not a ``ValueError`` (100 kB
        of ``[``: ``RecursionError``).  That is garbage like any other --
        and an exception nobody foresaw, wherever one connection's bytes
        raise it, drops that connection, never the loop under all of them."""
        payload = _payload()
        real_decode = daemon_module.decode_frame

        def decode(body):
            if b"unforeseen" in body:
                raise RuntimeError("no handler knows this one")
            return real_decode(body)

        monkeypatch.setattr(daemon_module, "decode_frame", decode)
        daemon = _spawn_daemon(store, tmp_path, workers=1)
        try:
            healthy = DaemonClient(daemon.address)
            for body, answered in ((b"[" * 100_000, True), (b"unforeseen", False)):
                vandal = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                vandal.connect(str(daemon.address[1]))
                vandal.settimeout(10.0)
                vandal.sendall(struct.pack(">I", len(body)) + body)
                if answered:
                    reply = _recv_frame(vandal)
                    assert reply["kind"] == "error" and reply["code"] == "bad_frame"
                assert vandal.recv(4096) == b""  # dropped
                vandal.close()
                # The connection that was open all along never noticed.
                assert strip_provenance(healthy.execute(payload)) == (
                    execute_payload(payload, serial_db)
                )
            counters = healthy.health()["counters"]
            assert counters["connections_dropped"] == 2
            assert counters["error_frames"] == 1
            healthy.close()
        finally:
            assert daemon.shutdown() == 0

    def test_client_disconnect_releases_admission_slice(
        self, store, tmp_path, serial_db
    ):
        """The fault-matrix centrepiece: the victim writes a full execute
        frame and hard-closes; a scripted delay keeps the request in
        flight while the hangup lands, so the daemon must *abandon* it and
        release its admission slice.  Under a one-slice global budget a
        leak would reject every later request forever.  (How the release
        interleaves with a worker death is the core's business:
        ``test_lifecycle.py`` pins both orders without a clock.)"""
        slice_bytes = 1 << 20
        with _spawn_daemon(
            store,
            tmp_path,
            workers=1,
            global_memory_budget_bytes=slice_bytes,
            default_memory_budget_bytes=slice_bytes,
            fault_plan=FaultPlan([FaultRule("delay", request_id=0, seconds=1.0)]),
        ) as daemon:
            payload = _payload()
            with DaemonClient(daemon.address) as healthy:
                # Connected (and served) first, so the victim's execute is
                # certainly request 0 -- the one the delay holds in flight.
                assert healthy.health()["pending"] == 0
                victim = DaemonClient(
                    daemon.address,
                    connection_id=7,
                    fault_plan=FaultPlan(
                        [FaultRule("client_disconnect", connection_id=7, request_id=0)]
                    ),
                )
                with pytest.raises(DaemonDisconnected, match="deliberately lost"):
                    victim.execute(_payload())
                victim.close()
                deadline = time.monotonic() + 30.0
                while healthy.health()["counters"]["abandoned_requests"] < 1:
                    assert time.monotonic() < deadline, "hangup never noticed"
                    time.sleep(0.02)
                # Abandoned means released: the one-slice budget admits
                # the next request at once (it then waits for the worker).
                health = healthy.health()
                assert health["pending"] == 0 and health["inflight"] == 1
                response = healthy.execute(payload)
                # The oracle runs what the pool shipped: the admitted
                # slice is written into the payload and bounds the kernels.
                shipped = dict(payload, memory_budget_bytes=slice_bytes)
                assert strip_provenance(response) == execute_payload(
                    shipped, serial_db
                )
                counters = healthy.health()["counters"]
            assert counters["abandoned_requests"] == 1
            assert counters["admission_rejected"] == 0

    def test_partial_frame_dropped_after_io_timeout(self, store, tmp_path):
        with _spawn_daemon(
            store, tmp_path, workers=1, io_timeout_seconds=0.5
        ) as daemon:
            victim = DaemonClient(
                daemon.address,
                connection_id=1,
                fault_plan=FaultPlan(
                    [FaultRule("partial_frame", connection_id=1, request_id=0)]
                ),
            )
            started = time.monotonic()
            with pytest.raises(DaemonDisconnected):
                victim.execute(_payload())
            assert time.monotonic() - started < 30.0
            victim.close()
            with DaemonClient(daemon.address) as healthy:
                counters = healthy.health()["counters"]
            assert counters["connections_dropped"] >= 1
            # Nothing reached the pool: a half frame is never admitted.
            assert counters["abandoned_requests"] == 0

    def test_stalled_reader_survives_short_stall(self, store, tmp_path, serial_db):
        with _spawn_daemon(
            store, tmp_path, workers=1, io_timeout_seconds=5.0
        ) as daemon:
            client = DaemonClient(
                daemon.address,
                connection_id=1,
                fault_plan=FaultPlan(
                    [
                        FaultRule(
                            "stalled_reader",
                            connection_id=1,
                            request_id=0,
                            seconds=0.3,
                        )
                    ]
                ),
            )
            payload = _payload()
            response = client.execute(payload)  # slow but inside the budget
            assert strip_provenance(response) == execute_payload(
                payload, serial_db
            )
            client.close()

    def test_stalled_reader_dropped_past_io_timeout(self, store, tmp_path):
        with _spawn_daemon(
            store, tmp_path, workers=1, io_timeout_seconds=0.4
        ) as daemon:
            client = DaemonClient(
                daemon.address,
                connection_id=1,
                fault_plan=FaultPlan(
                    [
                        FaultRule(
                            "stalled_reader",
                            connection_id=1,
                            request_id=0,
                            seconds=1.5,
                        )
                    ]
                ),
            )
            with pytest.raises(DaemonDisconnected):
                client.execute(_payload())
            client.close()

    @pytest.fixture()
    def stuck(self, request, tmp_path, monkeypatch):
        """A daemon over a store whose ``rows`` answer is far larger than
        a socket buffer, and a raw client that has sent two such executes
        and reads nothing.  Yields ``(daemon, small, oracle, sock)``: a
        digest payload for the healthy connections, its serial answer and
        that raw socket.  An indirect parameter shortens the send timeout
        first."""
        if hasattr(request, "param"):
            monkeypatch.setattr(
                daemon_module, "_SEND_TIMEOUT_SECONDS", request.param
            )
        wide = build_query(
            [("r", ["A", "B"]), ("s", ["B", "C"])],
            output_variables=["A", "B", "C"], name="wide",
        )
        workload_database(
            wide, tuples_per_relation=4000, domain_size=50, seed=3
        ).save(tmp_path / "wide")
        database = Database.open(tmp_path / "wide")

        def payload(answer):
            return dict(
                _payload(order=["r", "s"], answer=answer),
                query=query_to_payload(wide),
            )

        assert len(encode_frame(execute_payload(payload("rows"), database))) > 1 << 19
        with _spawn_daemon(tmp_path / "wide", tmp_path, workers=2) as daemon:
            # Opened after the workers forked, so closing it really closes it.
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(str(daemon.address[1]))
            # One write: both are admitted before either answer exists.
            sock.sendall(b"".join(
                encode_frame({
                    "format": DAEMON_FORMAT, "version": DAEMON_VERSION,
                    "id": frame_id, "kind": "execute", "payload": payload("rows"),
                })
                for frame_id in (1, 2)
            ))
            small = payload("digest")
            try:
                yield daemon, small, execute_payload(small, database), sock
            finally:
                sock.close()  # or the drain would wait for it to read

    def test_client_that_stops_reading_stalls_nobody(self, stuck):
        """Its responses wait in its own out-buffer; another connection's
        execute and health complete at once (a blocking send under the
        dispatcher used to stall them for two 30 s send timeouts)."""
        daemon, small, oracle, _ = stuck
        with DaemonClient(daemon.address) as healthy:
            deadline = time.monotonic() + 30.0
            while healthy.health()["counters"]["requests_served"] < 2:
                assert time.monotonic() < deadline, "wide answers never came"
                time.sleep(0.01)
            # Both wide answers are parked behind a peer that will not
            # take them; this connection does not wait for that.
            started = time.monotonic()
            response = healthy.execute(small)
            health = healthy.health()
            assert time.monotonic() - started < 1.0
            assert strip_provenance(response) == oracle
            assert health["status"] == "ready"
            assert health["counters"]["connections_dropped"] == 0

    @pytest.mark.parametrize("stuck", [0.5], indirect=True)
    def test_client_that_stops_reading_is_dropped(self, stuck):
        """Output the peer does not take within the send timeout (0.5 s
        here instead of 30) drops the connection: what it had in flight
        is abandoned, its admission slices are released, everybody else
        keeps being served."""
        daemon, small, oracle, _ = stuck
        with DaemonClient(daemon.address) as healthy:
            deadline = time.monotonic() + 20.0
            while healthy.health()["counters"]["connections_dropped"] < 1:
                assert time.monotonic() < deadline, "never dropped"
                time.sleep(0.02)
            assert healthy.health()["pending"] == 0
            assert strip_provenance(healthy.execute(small)) == oracle

    @pytest.mark.parametrize("stuck", [1.0], indirect=True)
    def test_slow_reader_that_keeps_reading_is_not_dropped(self, stuck):
        """The send timeout is for a peer that takes *nothing*: one that
        needs twice the timeout (1 s here) to take its two answers, 32 KiB
        every 40 ms, gets both of them whole."""
        daemon, _, _, sock = stuck
        decoder = daemon_module.FrameDecoder()
        replies = []
        started = time.monotonic()
        while len(replies) < 2:
            time.sleep(0.04)
            chunk = sock.recv(32768)
            assert chunk, "dropped although it kept reading"
            decoder.feed(chunk)
            while (frame := decoder.next_frame()) is not None:
                replies.append(frame)
        assert time.monotonic() - started > 2 * 1.0
        assert sorted(reply["id"] for reply in replies) == [1, 2]
        first, second = (strip_provenance(r["response"]) for r in replies)
        assert first == second and first["status"] == "ok"
        with DaemonClient(daemon.address) as healthy:
            assert healthy.health()["counters"]["connections_dropped"] == 0

    def test_admission_rejection_is_structured_not_a_hangup(
        self, store, tmp_path
    ):
        # A per-request slice larger than the whole global budget can
        # never be admitted: every execute must come back as a structured
        # admission_rejected frame on a connection that stays open.
        with _spawn_daemon(
            store,
            tmp_path,
            workers=1,
            global_memory_budget_bytes=1024,
            default_memory_budget_bytes=4096,
        ) as daemon:
            with DaemonClient(daemon.address) as client:
                for _ in range(3):
                    with pytest.raises(DaemonRequestError) as excinfo:
                        client.execute(_payload())
                    assert excinfo.value.code == "admission_rejected"
                health = client.health()
                assert health["status"] == "ready"
                assert health["counters"]["admission_rejected"] == 3
                assert health["counters"]["connections_dropped"] == 0

    def test_response_over_the_frame_limit_is_an_internal_error(self, tmp_path):
        # A 100 x 100 cross product: a ~150 kB rows frame, spliced in the
        # daemon, against a 64 KiB limit every other frame fits under.
        target = tmp_path / "big"
        Database(
            relations={
                "r": Relation("r", ["a", "b"], [(i, 0) for i in range(100)]),
                "s": Relation("s", ["b", "c"], [(0, 1000 + j) for j in range(100)]),
            }
        ).save(target)
        query = build_query(
            [("r", ["X", "Y"]), ("s", ["Y", "Z"])],
            output_variables=["X", "Y", "Z"], name="cross",
        )
        rows, digest = (
            dict(
                _payload(answer=answer),
                query=query_to_payload(query),
                plan={"kind": "join_order", "order": ["r", "s"]},
            )
            for answer in ("rows", "digest")
        )
        with _spawn_daemon(
            target, tmp_path, workers=1, max_frame_bytes=1 << 16
        ) as daemon:
            with DaemonClient(daemon.address) as client:
                before = client.health()["counters"]["error_frames"]
                with pytest.raises(DaemonRequestError, match="response too large") as excinfo:
                    client.execute(rows)
                assert excinfo.value.code == "internal"
                assert client.health()["counters"]["error_frames"] == before + 1
                # The same connection serves on, byte-identical to the oracle.
                response = client.execute(digest)
                assert strip_provenance(response) == execute_payload(
                    digest, Database.open(target)
                )
                assert response["cardinality"] == 10_000


class TestRefreshFaultMatrix:
    """A refresh is a pool request, so the lifecycle's crash handling
    covers it.  Request 0 is the start-up plan; the client's refresh is
    request 1."""

    def test_worker_dies_mid_refresh(self, store, tmp_path, serial_db):
        with _spawn_daemon(
            store,
            tmp_path,
            workers=1,
            queries=[_query()],
            fault_plan=FaultPlan([FaultRule("worker_exit", request_id=1)]),
        ) as daemon:
            with DaemonClient(daemon.address) as client:
                before = client.health()
                refreshed = client.refresh()
                after = client.health()
                assert refreshed["generation"] == before["generation"] + 1
                assert after["generation"] == before["generation"] + 1
                assert after["restarts"] == before["restarts"] + 1
                assert after["counters"]["refreshes"] == 1
                assert after["status"] == "ready"
                for payload in [_payload(), *client.plans()["payloads"]]:
                    assert strip_provenance(client.execute(payload)) == (
                        execute_payload(payload, serial_db)
                    )

    def test_refresh_that_raises_keeps_the_generation(
        self, store, tmp_path, serial_db
    ):
        with _spawn_daemon(
            store,
            tmp_path,
            workers=1,
            queries=[_query()],
            fault_plan=FaultPlan([FaultRule("raise", request_id=1)]),
        ) as daemon:
            with DaemonClient(daemon.address) as client:
                before = client.health()
                plans = client.plans()
                with pytest.raises(DaemonRequestError) as excinfo:
                    client.refresh()
                assert excinfo.value.code == "refresh_failed"
                after = client.health()
                assert after["generation"] == before["generation"]
                assert after["counters"]["refresh_errors"] == 1
                assert after["counters"]["refreshes"] == 0
                assert after["status"] == "ready" and after["restarts"] == 0
                again = client.plans()
                assert again["generation"] == plans["generation"]
                assert again["payloads"] == plans["payloads"]
                payload = _payload()
                assert strip_provenance(client.execute(payload)) == (
                    execute_payload(payload, serial_db)
                )


# ----------------------------------------------------------------------
# Drain-then-exit.
# ----------------------------------------------------------------------


class TestDrain:
    def test_shutdown_request_drains_and_exits_zero(self, store, tmp_path):
        daemon = _spawn_daemon(store, tmp_path, workers=2)
        runner = {}

        def run():
            runner["code"] = daemon.serve_forever(handle_signals=False)

        thread = threading.Thread(target=run)
        thread.start()
        with DaemonClient(daemon.address) as client:
            pids = client.health()["worker_pids"]
            assert client.shutdown()["draining"] is True
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert runner["code"] == 0
        for pid in pids:  # no orphan workers
            with pytest.raises(OSError):
                os.kill(pid, 0)
        assert not (tmp_path / "fault.sock").exists()  # socket unlinked

    def test_a_loop_that_failed_is_a_nonzero_exit(
        self, store, tmp_path, monkeypatch
    ):
        """What is not one connection's fault (here: the pool's pump
        raising) ends serving -- loudly: connections closed, workers
        reaped, exit code 1 rather than a silent 0."""
        daemon = _spawn_daemon(store, tmp_path, workers=1)
        with DaemonClient(daemon.address) as client:
            pids = client.health()["worker_pids"]
            monkeypatch.setattr(daemon._pool, "pump", lambda *args: 1 // 0)
            with pytest.raises(DaemonDisconnected):
                client.health()  # wakes the loop; answered or not, it ends
                client.health()
        monkeypatch.undo()
        assert daemon.shutdown() == 1
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)

    def test_inflight_request_completes_during_drain(
        self, store, tmp_path, serial_db
    ):
        # A worker kill forces a respawn+retry, so the request is still in
        # flight when the drain starts -- it must complete, not be dropped.
        daemon = _spawn_daemon(
            store,
            tmp_path,
            workers=1,
            max_worker_restarts=2,
            fault_plan=FaultPlan(
                [FaultRule("worker_exit", worker_id=0, attempt=1, times=1)]
            ),
        )
        payload = _payload()
        outcome = {}

        def drive():
            with DaemonClient(daemon.address) as client:
                outcome["response"] = client.execute(payload)

        thread = threading.Thread(target=drive)
        thread.start()
        time.sleep(0.05)
        daemon.request_shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert daemon.shutdown() == 0
        assert strip_provenance(outcome["response"]) == execute_payload(
            payload, serial_db
        )

    def test_execute_after_drain_gets_an_answer_not_silence(
        self, store, tmp_path
    ):
        """An execute racing the drain is answered -- either a structured
        ``shutting_down`` error (it reached the dispatcher) or a prompt
        connection close (it did not) -- never an unbounded hang."""
        daemon = _spawn_daemon(store, tmp_path, workers=1)
        code = {}
        with DaemonClient(daemon.address, timeout=20.0) as client:
            client.health()
            daemon.request_shutdown()
            # Completing the drain closes the connection under the client.
            closer = threading.Thread(
                target=lambda: code.__setitem__("exit", daemon.shutdown())
            )
            closer.start()
            with pytest.raises((DaemonRequestError, DaemonDisconnected)) as excinfo:
                client.execute(_payload())
            if isinstance(excinfo.value, DaemonRequestError):
                assert excinfo.value.code == "shutting_down"
            closer.join(timeout=30)
        assert code["exit"] == 0

    def test_refresh_during_drain_is_shutting_down(
        self, store, tmp_path, serial_db
    ):
        """A ``refresh`` that arrives while the daemon drains is answered
        like an execute (it used to get no answer, then a bare disconnect
        when the drain ended).  A delayed execute -- request 1, after the
        start-up plan -- keeps the drain going meanwhile."""
        daemon = _spawn_daemon(
            store,
            tmp_path,
            workers=1,
            queries=[_query()],
            fault_plan=FaultPlan([FaultRule("delay", request_id=1, seconds=2.0)]),
        )
        payload = _payload()
        outcome = {}
        try:
            held = DaemonClient(daemon.address)
            asker = DaemonClient(daemon.address)
            closer = DaemonClient(daemon.address)
            asker.health()  # all three accepted before the listener closes
            closer.health()
            thread = threading.Thread(
                target=lambda: outcome.setdefault("response", held.execute(payload))
            )
            thread.start()
            deadline = time.monotonic() + 30.0
            while asker.health()["inflight"] < 1:
                assert time.monotonic() < deadline, "the execute never went out"
                time.sleep(0.01)
            assert closer.shutdown()["draining"] is True
            with pytest.raises(DaemonRequestError) as excinfo:
                asker.refresh()
            assert excinfo.value.code == "shutting_down"
            thread.join(timeout=30)
            for c in (held, asker, closer):
                c.close()
        finally:
            assert daemon.shutdown() == 0
        assert strip_provenance(outcome["response"]) == execute_payload(
            payload, serial_db
        )

    def test_cli_daemon_sigterm_drains(self, store, tmp_path, serial_db):
        """The real thing: ``repro db daemon`` in a subprocess, killed
        with SIGTERM mid-flight, must drain, exit 0, unlink its socket
        and leave no orphan worker processes."""
        sock = tmp_path / "cli.sock"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "db", "daemon", str(store),
                "--address", f"unix:{sock}", "--workers", "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            assert "listening" in process.stdout.readline()
            payload = _payload()
            with DaemonClient(f"unix:{sock}") as client:
                response = client.execute(payload)
                assert strip_provenance(response) == execute_payload(
                    payload, serial_db
                )
                pids = client.health()["worker_pids"]
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
            for pid in pids:
                with pytest.raises(OSError):
                    os.kill(pid, 0)
            assert not sock.exists()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
