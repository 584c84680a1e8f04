"""Observability-plane tests: tracing and metrics as a write-only sidecar.

The load-bearing invariant, pinned property-based: answers, row order and
every ``OperatorStats`` counter are **byte-identical with tracing on or
off** -- at every thread count, every memory budget, through
``execute_payload`` and through a real 2-worker pool (including a
fault-plan retry).  Knobs are held fixed on both sides of each comparison;
only the tracing toggle moves (budgeted runs legitimately differ from
unbudgeted ones in ``peak_transient_elements``, which is a knob effect,
not a tracing effect).

Alongside: unit coverage of the recorder/metrics/export primitives and an
end-to-end daemon session whose
``--trace-out`` export must parse as valid Chrome trace-event JSON with
admission / queue / attempt / kernel spans for every request.
"""

import json
import threading

import pytest

np = pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db.database import Database
from repro.db.executor import execute_plan
from repro.db.serving import (
    PROVENANCE_KEY,
    TRACE_KEY,
    ServingPool,
    execute_payload,
    query_to_payload,
    strip_provenance,
)
from repro.exceptions import DatabaseError
from repro.obs.export import (
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
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
def database():
    return workload_database(
        _query(), tuples_per_relation=120, domain_size=10, seed=5
    )


@pytest.fixture(scope="module")
def store(tmp_path_factory, database):
    target = tmp_path_factory.mktemp("obs") / "store"
    database.save(target)
    return target


@pytest.fixture(scope="module")
def serial_db(store):
    return Database.open(store)


@pytest.fixture(scope="module")
def hypertree_plan(database):
    from repro.planner.cost_k_decomp import cost_k_decomp

    return cost_k_decomp(_query(), database.statistics, 2, completion="fresh")


# ----------------------------------------------------------------------
# Recorder primitives.
# ----------------------------------------------------------------------


class TestTraceRecorder:
    def test_span_nesting_and_active_stack(self):
        recorder = TraceRecorder()
        assert current_span() is None
        with recorder.span("outer", "test") as outer:
            assert current_span() is outer
            with recorder.span("inner", "test") as inner:
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is None
        assert [s.name for s in recorder.spans()] == ["inner", "outer"]
        assert all(s.end >= s.start for s in recorder.spans())

    def test_note_reaches_innermost_span_only(self):
        recorder = TraceRecorder()
        note("orphan")  # no active span: a silent no-op
        with recorder.span("outer", "test") as outer:
            with recorder.span("inner", "test") as inner:
                note("morsels")
                note("morsels", 2)
                note("rows", 40)
        assert inner.attrs == {"morsels": 3, "rows": 40}
        assert "morsels" not in outer.attrs

    def test_null_context_discards_everything(self):
        with span_context(None, "whatever", "test") as span:
            assert span is NULL_SPAN
            span.attrs["rows"] = 123  # discarded, not an error
        assert NULL_SPAN.attrs == {}

    def test_exception_still_records_the_span(self):
        recorder = TraceRecorder()
        with pytest.raises(RuntimeError):
            with recorder.span("doomed", "test"):
                raise RuntimeError("boom")
        assert [s.name for s in recorder.spans()] == ["doomed"]
        assert current_span() is None

    def test_thread_safety_of_recording(self):
        recorder = TraceRecorder()

        def work(tid):
            for i in range(50):
                with recorder.span(f"t{tid}-{i}", "test"):
                    note("ticks")

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(recorder) == 200
        assert all(s.attrs == {"ticks": 1} for s in recorder.spans())

    def test_payload_roundtrip_and_ingest(self):
        recorder = TraceRecorder()
        recorder.add_span("a", "test", 1.0, 2.0, trace_id="req-1",
                          attrs={"rows": 7})
        payload = recorder.to_payload()
        clone = Span.from_payload(payload[0])
        assert (clone.name, clone.category, clone.trace_id) == ("a", "test", "req-1")
        assert clone.attrs == {"rows": 7} and clone.duration == 1.0

        sink = TraceRecorder()
        assert sink.ingest({"spans": payload}) == 1
        assert sink.ingest(payload) == 1  # bare list form
        assert sink.ingest(None) == 0
        assert sink.ingest({"spans": ["garbage", None]}) == 0  # skipped
        assert len(sink) == 2

    def test_trace_ids_are_unique(self):
        recorder = TraceRecorder()
        ids = {recorder.new_trace_id("req") for _ in range(10)}
        assert len(ids) == 10


# ----------------------------------------------------------------------
# Metrics primitives.
# ----------------------------------------------------------------------


class TestMetrics:
    def test_histogram_quantile_semantics(self):
        hist = Histogram(buckets=(1.0, 2.0))
        assert hist.quantile(0.5) == 0.0  # empty
        for value in (0.5, 1.5, 3.0):
            hist.observe(value)
        # Rank 1.5 lands in the second bucket: its upper edge.
        assert hist.quantile(0.5) == 2.0
        # The overflow bucket reports the recorded maximum.
        assert hist.quantile(1.0) == 3.0
        with pytest.raises(ValueError):
            hist.quantile(0.0)
        labels = hist.quantiles()
        assert set(labels) == {"p50", "p95", "p99", "count", "sum", "max"}
        assert labels["count"] == 3 and labels["max"] == 3.0

    def test_histogram_merge_is_exact(self):
        left, right = Histogram(), Histogram()
        for value in (0.0007, 0.3):
            left.observe(value)
        for value in (0.0007, 20.0):
            right.observe(value)
        merged = Histogram()
        merged.merge(left.to_payload())
        merged.merge(right.to_payload())
        expect = Histogram()
        for value in (0.0007, 0.3, 0.0007, 20.0):
            expect.observe(value)
        got, want = merged.to_payload(), expect.to_payload()
        # Summation order differs between merge and direct observation.
        assert got.pop("sum") == pytest.approx(want.pop("sum"))
        assert got == want

    def test_histogram_merge_rejects_other_buckets(self):
        with pytest.raises(ValueError, match="differing buckets"):
            Histogram().merge(Histogram(buckets=(1.0,)).to_payload())

    def test_histogram_rejects_non_increasing_buckets(self):
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram(buckets=(1.0, 1.0))

    def test_registry_roundtrip_and_merge(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.gauge("depth").set(7)
        registry.histogram("lat").observe(0.02)
        assert registry.counter("hits") is registry.counter("hits")

        merged = MetricsRegistry()
        merged.merge(registry.to_payload())
        merged.merge(registry.to_payload())
        payload = merged.to_payload()
        assert payload["counters"]["hits"] == 6
        assert payload["gauges"]["depth"] == 7.0
        assert payload["histograms"]["lat"]["count"] == 2
        assert payload["histograms"]["lat"]["buckets"] == list(DEFAULT_BUCKETS)

    def test_resolve_registry(self):
        live = MetricsRegistry()
        assert resolve_registry(live) is live
        assert isinstance(resolve_registry(None), MetricsRegistry)


# ----------------------------------------------------------------------
# Chrome trace-event export.
# ----------------------------------------------------------------------


class TestChromeExport:
    def _recorder(self):
        recorder = TraceRecorder()
        recorder.add_span("b", "test", 2.0, 2.5, trace_id="req-1")
        recorder.add_span("a", "test", 1.0, 1.0, trace_id="req-1")  # 0-width
        return recorder

    def test_events_are_sorted_with_duration_floor(self):
        document = chrome_trace_events(self._recorder())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert [e["name"] for e in events] == ["a", "b"]
        assert events[0]["dur"] == 1  # 1µs floor keeps Perfetto happy
        assert events[1]["dur"] == 500_000
        assert all(e["ph"] == "X" for e in events)
        assert all(e["args"]["trace"] == "req-1" for e in events)

    def test_write_and_validate_roundtrip(self, tmp_path):
        target = tmp_path / "trace.json"
        assert write_chrome_trace(target, self._recorder()) == 2
        events = validate_chrome_trace(target.read_text())
        assert len(events) == 2

    @pytest.mark.parametrize(
        "document",
        [
            "not json at all",
            "{}",
            '{"traceEvents": 5}',
            '{"traceEvents": [{"ph": "X"}]}',
            '{"traceEvents": [{"name": "a", "ph": "X", "ts": 1,'
            ' "pid": 1, "tid": 1}]}',  # complete event without dur
            '{"traceEvents": [{"name": "a", "ph": "X", "ts": -1, "dur": 1,'
            ' "pid": 1, "tid": 1}]}',
        ],
    )
    def test_validate_rejects_malformed_documents(self, document):
        with pytest.raises(ValueError):
            validate_chrome_trace(document)


# ----------------------------------------------------------------------
# The tentpole invariant: tracing is a write-only sidecar of the engine.
# ----------------------------------------------------------------------


def _identical(traced, untraced):
    assert traced.relation.attributes == untraced.relation.attributes
    assert traced.relation.rows == untraced.relation.rows  # incl. row order
    assert traced.stats.snapshot() == untraced.stats.snapshot()
    assert traced.stats.operations == untraced.stats.operations


class TestExecutorByteIdentity:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        threads=st.sampled_from([1, 2, 4]),
        memory_budget=st.sampled_from([None, 2_048, 1 << 20]),
    )
    def test_hypertree_plan_identical_with_tracing(
        self, database, hypertree_plan, threads, memory_budget
    ):
        # Same knobs on both sides; only the tracing toggle moves.
        knobs = dict(
            budget=5_000_000, threads=threads,
            memory_budget_bytes=memory_budget,
        )
        untraced = execute_plan(hypertree_plan.to_ir(), database, **knobs)
        recorder = TraceRecorder()
        traced = execute_plan(
            hypertree_plan.to_ir(), database,
            trace=recorder, trace_id="req-hyper", **knobs,
        )
        _identical(traced, untraced)
        spans = recorder.spans()
        assert spans and all(s.trace_id == "req-hyper" for s in spans)
        names = {s.name for s in spans}
        assert any(n.startswith("up:") for n in names)
        assert any(n.startswith("fold:") for n in names)
        assert "project:answer" in names

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(threads=st.sampled_from([1, 2, 4]))
    def test_baseline_plan_identical_with_tracing(self, database, threads):
        from repro.planner.baseline import baseline_plan

        plan = baseline_plan(_query(), database.statistics)
        knobs = dict(budget=20_000_000, threads=threads)
        untraced = execute_plan(plan.to_ir(), database, **knobs)
        recorder = TraceRecorder()
        traced = execute_plan(plan.to_ir(), database, trace=recorder, **knobs)
        _identical(traced, untraced)
        names = {s.name for s in recorder.spans()}
        assert any(n.startswith("scan:") for n in names)
        assert "join" in names and "project:answer" in names

    @pytest.mark.parametrize("shape", ["hypertree", "baseline"])
    def test_span_set_is_thread_count_independent(
        self, database, hypertree_plan, shape
    ):
        # One request records the same (category, name) multiset at every
        # thread count: the whole fold stays attributed at threads > 1.
        from collections import Counter

        from repro.planner.baseline import baseline_plan

        plan = hypertree_plan
        if shape == "baseline":
            plan = baseline_plan(_query(), database.statistics)

        def span_multiset(threads):
            recorder = TraceRecorder()
            execute_plan(
                plan.to_ir(), database,
                budget=20_000_000, threads=threads, trace=recorder,
            )
            return Counter((s.category, s.name) for s in recorder.spans())

        serial = span_multiset(1)
        assert span_multiset(2) == serial
        assert span_multiset(4) == serial
        for atom in ATOMS:
            assert serial[("plan", f"scan:{atom}")] >= 1
        if shape == "baseline":
            assert set(serial) == {("plan", f"scan:{a}") for a in ATOMS} | {
                ("plan", "join"), ("plan", "project:answer"),
            }
            return
        nodes = hypertree_plan.decomposition.node_ids()
        inner = [n for n in nodes if hypertree_plan.decomposition.children(n)]
        below_root = [n for n in nodes if n != hypertree_plan.decomposition.root]
        expected = Counter(
            [("yannakakis", f"expr:{n}") for n in nodes]
            + [("yannakakis", f"up:{n}") for n in inner]
            + [("yannakakis", f"down:{n}") for n in below_root]
            + [("yannakakis", f"fold:{n}") for n in below_root]
            + [("yannakakis", "project:answer")]
            # Each E(p) is one join under one (unnamed) projection.
            + [("plan", "join"), ("plan", "project:answer")] * len(nodes)
        )
        yannakakis_and_operators = Counter(
            {key: n for key, n in serial.items() if not key[1].startswith("scan:")}
        )
        assert yannakakis_and_operators == expected

    def test_morsel_counters_appear_under_memory_budget(
        self, database, hypertree_plan
    ):
        recorder = TraceRecorder()
        execute_plan(
            hypertree_plan.to_ir(), database,
            budget=5_000_000, memory_budget_bytes=2_048,
            trace=recorder,
        )
        merged = {}
        for span in recorder.spans():
            for key, value in span.attrs.items():
                if isinstance(value, int):
                    merged[key] = merged.get(key, 0) + value
        assert merged.get("emit_morsels", 0) > 0
        assert merged.get("emitted", 0) > 0


# ----------------------------------------------------------------------
# Serving: the "trace" response block next to the "serving" one.
# ----------------------------------------------------------------------


class TestServingTraceBlock:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        order=st.permutations(ATOMS),
        answer=st.sampled_from(["digest", "rows"]),
        memory_budget=st.sampled_from([None, 1 << 20]),
        trace_request=st.sampled_from([True, {"id": "req-abc"}]),
    )
    def test_strip_provenance_restores_the_oracle(
        self, serial_db, order, answer, memory_budget, trace_request
    ):
        payload = _payload(
            order=order, answer=answer, memory_budget_bytes=memory_budget
        )
        untraced = execute_payload(payload, serial_db)
        traced_payload = dict(payload, trace=trace_request)
        traced = execute_payload(traced_payload, serial_db)
        # Tracing adds exactly one block, and stripping removes every
        # non-deterministic block -- digest, rows and stats byte-identical.
        assert TRACE_KEY in traced and PROVENANCE_KEY not in traced
        assert strip_provenance(traced) == strip_provenance(untraced)
        block = traced[TRACE_KEY]
        expected_id = (
            "req-abc" if isinstance(trace_request, dict) else "cycle_out"
        )
        assert block["id"] == expected_id
        assert any(s["name"] == "execute" for s in block["spans"])
        assert any(s["cat"] == "plan" for s in block["spans"])

    def test_digest_excludes_the_trace_block(self, serial_db):
        untraced = execute_payload(_payload(), serial_db)
        traced = execute_payload(dict(_payload(), trace=True), serial_db)
        assert traced["digest"] == untraced["digest"]
        assert traced["stats"] == untraced["stats"]

    def test_malformed_trace_request_is_rejected(self, serial_db):
        with pytest.raises(DatabaseError, match="trace"):
            execute_payload(dict(_payload(), trace="yes"), serial_db)
        with pytest.raises(DatabaseError, match="trace"):
            execute_payload(dict(_payload(), trace={"id": [1]}), serial_db)


class TestTracedPool:
    @pytest.fixture(scope="class")
    def traced_pool(self, store):
        recorder = TraceRecorder()
        with ServingPool(store, workers=2, trace=recorder) as pool:
            yield pool, recorder

    def test_pool_responses_identical_and_spans_complete(
        self, traced_pool, serial_db
    ):
        pool, recorder = traced_pool
        batch = [_payload(), _payload(order=list(reversed(ATOMS))),
                 _payload(answer="rows")]
        oracle = [
            strip_provenance(execute_payload(payload, serial_db))
            for payload in batch
        ]
        responses = pool.run(batch)
        for response, expect in zip(responses, oracle):
            assert strip_provenance(response) == expect
            assert response[TRACE_KEY]["spans"]
        spans = recorder.spans()
        by_trace = {}
        for span in spans:
            by_trace.setdefault(span.trace_id, set()).add(span.name)
        # Every request shows the full lifecycle: pool-side admission /
        # queue / attempt plus the worker's execute + kernel spans.
        request_traces = [t for t in by_trace if t and t.startswith("req-")]
        assert len(request_traces) == len(batch)
        for trace_id in request_traces:
            names = by_trace[trace_id]
            assert {"admission", "queue", "attempt", "execute"} <= names
            assert any(n.startswith("scan:") for n in names)
        metrics = pool.metrics.to_payload()
        assert metrics["counters"]["requests_admitted"] == len(batch)
        assert metrics["counters"]["dispatches"] >= len(batch)
        assert metrics["histograms"]["worker_startup_seconds"]["count"] == 2
        assert metrics["histograms"]["worker_execute_seconds"]["count"] >= len(batch)

    def test_startup_seconds_reported_by_every_worker(self, traced_pool):
        pool, _ = traced_pool
        reports = dict(pool.worker_reports)
        assert len(reports) == 2
        for report in reports.values():
            assert report["startup_seconds"] >= 0.0

    def test_retry_after_worker_crash_stays_identical(self, store, serial_db):
        # A worker dies mid-attempt; the retry must still produce the
        # byte-identical answer and the trace shows both attempts.
        recorder = TraceRecorder()
        pool = ServingPool(
            store,
            workers=1,
            trace=recorder,
            max_worker_restarts=2,
            fault_plan=[{"kind": "worker_exit", "request_index": 0}],
        )
        try:
            request = pool.submit(_payload())
            response = pool.collect(request, timeout=60.0)
        finally:
            pool.close()
        assert strip_provenance(response) == strip_provenance(
            execute_payload(_payload(), serial_db)
        )
        attempts = [s for s in recorder.spans() if s.name == "attempt"]
        assert {s.attrs.get("attempt") for s in attempts} >= {1, 2}
        assert pool.metrics.to_payload()["counters"]["retries"] >= 1


# ----------------------------------------------------------------------
# Daemon: metrics request kind, enriched health, trace export.
# ----------------------------------------------------------------------


class TestDaemonObservability:
    def test_daemon_session_exports_valid_chrome_trace(
        self, store, serial_db, tmp_path
    ):
        from repro.db.daemon import DaemonClient, ServingDaemon

        trace_path = tmp_path / "daemon-trace.json"
        daemon = ServingDaemon(
            store,
            f"unix:{tmp_path / 'obs.sock'}",
            workers=2,
            trace_out=trace_path,
        ).start()
        batch = [_payload(), _payload(order=list(reversed(ATOMS)))]
        try:
            with DaemonClient(daemon.address) as client:
                health = client.health()
                assert health["status"] == "ready"
                for key in ("queue_depth", "inflight", "pending",
                            "uptime_seconds"):
                    assert key in health
                for payload in batch:
                    response = client.execute(payload)
                    assert strip_provenance(response) == strip_provenance(
                        execute_payload(payload, serial_db)
                    )
                frame = client.metrics()
                assert frame["kind"] == "metrics"
                assert frame["latency"]["count"] == len(batch)
                assert frame["latency"]["p50"] <= frame["latency"]["p99"]
                assert frame["queue_depth"] == 0 and frame["inflight"] == 0
                assert frame["restarts"] == 0
                assert frame["counters"]["requests_served"] == len(batch)
                registry = frame["metrics"]
                assert registry["counters"]["requests_admitted"] == len(batch)
                assert (
                    registry["histograms"]["request_latency_seconds"]["count"]
                    == len(batch)
                )
        finally:
            assert daemon.shutdown() == 0
        events = validate_chrome_trace(trace_path.read_text())
        by_trace = {}
        for event in events:
            trace_id = event["args"].get("trace")
            by_trace.setdefault(trace_id, set()).add(event["name"])
        request_traces = [t for t in by_trace if t and t.startswith("req-")]
        assert len(request_traces) == len(batch)
        for trace_id in request_traces:
            names = by_trace[trace_id]
            assert {"admission", "queue", "attempt", "execute"} <= names
            assert any(n.startswith("scan:") for n in names)

    def test_metrics_is_a_known_request_kind(self):
        from repro.db.daemon import REQUEST_KINDS

        assert "metrics" in REQUEST_KINDS
