"""exec_replay: one warm ``execute_payload`` per op on an opened store,
closed loop, one thread, ``threads=1``, digest answers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.db.database import Database
from repro.db.executor import execute_plan
from repro.db.plan_ir import plan_ir_from_payload
from repro.db.serving import (
    answer_digest,
    execute_payload,
    plan_to_payload,
    prewarm,
    query_from_payload,
)
from repro.db.storage import PlanCache
from repro.obs.trace import TraceRecorder
from repro.planner import baseline_plan

from bench import inputs, oracle
from bench.harness import Ctx, Run, closed_loop, cpu_seconds, metric, percentile

NAME = "exec_replay"
WHY = (
    "executor, yannakakis and columnar kernels do most of the work, the plan is "
    "replayed and nothing crosses a process: a kernel gain shows here, a "
    "transport change must not"
)

#: The program's own spans are summed by these name prefixes.
_KERNEL_PREFIXES = ("scan", "up", "down", "fold", "project")


@dataclass
class State:
    databases: Dict[str, Database] = field(default_factory=dict)
    payloads: Dict[str, Dict[str, object]] = field(default_factory=dict)
    bases: Dict[str, Database] = field(default_factory=dict)
    expected: Dict[str, Dict[str, object]] = field(default_factory=dict)
    mix: List[inputs.ExecCase] = field(default_factory=list)


def setup(ctx: Ctx) -> State:
    state = State()
    for case in inputs.EXEC_CASES:
        base = case.make_base()
        store = ctx.scratch / case.name
        inputs.redraw([base], ctx.seed).save(store)
        database = Database.open(store)
        database.analyze()
        if case.k_values:
            payload = prewarm(
                database, [case.query], k_values=case.k_values,
                plan_cache=PlanCache(store / "plans"), answer="digest", threads=1,
            )[0]
        else:
            plan = baseline_plan(case.query, database.statistics)
            with ctx.spans.span("planner.plan_to_payload"):
                payload = plan_to_payload(plan, answer="digest", threads=1)
        state.bases[case.name] = base
        state.databases[case.name] = database
        state.payloads[case.name] = payload
        state.mix += [case] * case.weight
    for case in state.mix:  # warm-up pass
        execute_payload(state.payloads[case.name], state.databases[case.name])
    return state


def prepare_oracle(state: State, ctx: Ctx) -> None:
    """The same payloads on the row engine, over the identical redraw."""
    for name, base in state.bases.items():
        row_twin = inputs.redraw([base], ctx.seed, columnar=False)
        state.expected[name] = oracle.expected_response(
            state.payloads[name], row_twin, across_engines=True
        )


def teardown(state: State) -> None:
    pass


def _finish(state: State, timed, wall_s: float, cpu_s: float) -> Run:
    """``timed`` rows are ``(case, latency_s, response)``."""
    latencies, failed, mismatches = [], 0, 0
    for case, latency, response in timed:
        if response.get("status") != "ok":
            failed += 1
        elif not oracle.matches(response, state.expected[case.name], across_engines=True):
            mismatches += 1
        else:
            latencies.append(latency)
    return Run(latencies, len(timed), failed, mismatches, wall_s, cpu_s)


def run(state: State, seconds: float, ctx: Ctx) -> Run:
    cpu0 = cpu_seconds()
    rows, wall_s = closed_loop(
        state.mix, seconds, ctx.rng(NAME),
        lambda case: execute_payload(state.payloads[case.name], state.databases[case.name]),
    )
    timed = [(case, end - start, response) for case, start, end, response in rows]
    return _finish(state, timed, wall_s, cpu_seconds() - cpu0)


def trace(state: State, seconds: float, ctx: Ctx) -> Tuple[Run, Dict[str, Dict]]:
    """Every op runs with the payload's ``"trace": true`` (the program's own
    kernel spans come back in the response) and is followed by a replay of
    ``execute_payload``'s stages through their public entry points."""
    spans = ctx.spans
    kernel_rows: List[Dict[str, float]] = []

    def op(case: inputs.ExecCase):
        payload = state.payloads[case.name]
        database = state.databases[case.name]
        with spans.span("serving.execute_payload") as whole:
            response = execute_payload({**payload, "trace": True}, database)
        kernel_rows.append(_kernel_split(response["trace"]["spans"]))
        _replay_stages(payload, database, spans, whole)
        return response, whole

    cpu0 = cpu_seconds()
    rows, wall_s = closed_loop(state.mix, seconds, ctx.rng(NAME), op)
    timed = [
        (case, spans.rows[whole]["end"] - spans.rows[whole]["start"], response)
        for case, _, _, (response, whole) in rows
    ]
    result = _finish(state, timed, wall_s, cpu_seconds() - cpu0)
    return result, _layers(spans, kernel_rows, timed)


def _replay_stages(payload: Mapping, database: Database, spans, op: int) -> None:
    with spans.span("serving.plan_replay", op=op, parent=op):
        query = query_from_payload(payload["query"])
        plan_ir = plan_ir_from_payload(query, payload["plan"])
    with spans.span("executor.execute_plan", op=op, parent=op):
        result = execute_plan(
            plan_ir, database, budget=payload.get("budget"),
            threads=payload.get("threads"),
            memory_budget_bytes=payload.get("memory_budget_bytes"),
            trace=TraceRecorder(), trace_id=query.name,
        )
    with spans.span("serving.answer_rows", op=op, parent=op):
        rows = result.answer_rows()
    probe = {"boolean": result.boolean}
    if rows is not None:
        probe.update(attributes=list(result.relation.attributes), rows=rows)
    with spans.span("serving.answer_digest", op=op, parent=op):
        answer_digest(probe)


def _kernel_split(program_spans: List[Mapping]) -> Dict[str, float]:
    """Milliseconds per kernel prefix of one traced response, plus the
    ``execute`` span and the part of it no other span covers."""
    split = {prefix: 0.0 for prefix in _KERNEL_PREFIXES}
    execute = None
    inner = []
    for span in program_spans:
        if span["name"] == "execute":
            execute = span
            continue
        inner.append((span["start"], span["end"]))
        prefix = span["name"].split(":", 1)[0]
        if prefix in split:
            split[prefix] += (span["end"] - span["start"]) * 1e3
    covered, reach = 0.0, execute["start"]
    for start, end in sorted(inner):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    split["execute"] = (execute["end"] - execute["start"]) * 1e3
    split["uncovered"] = split["execute"] - covered * 1e3
    return split


_STAGES = (
    "serving.plan_replay",
    "executor.execute_plan",
    "serving.answer_rows",
    "serving.answer_digest",
)


def _layers(spans, kernel_rows, timed) -> Dict[str, Dict]:
    self_ms = [
        stages["serving.execute_payload"] - sum(stages[name] for name in _STAGES)
        for stages in spans.by_op("serving.execute_payload")
    ]
    layers = {
        f"{name}_ms": metric(spans.p50(name), "ms")
        for name in _STAGES + ("serving.execute_payload", "planner.plan_to_payload")
    }
    layers["serving.self_ms"] = metric(percentile(self_ms, 50), "ms")
    # Means, not medians: only the case with an answer relation has top-down
    # and fold spans, and the parts should add up to the mean execute span.
    for prefix in _KERNEL_PREFIXES:
        layers[f"executor.{prefix}_ms"] = metric(
            sum(row[prefix] for row in kernel_rows) / len(kernel_rows), "ms"
        )
    layers["executor.unattributed_share"] = metric(
        sum(row["uncovered"] for row in kernel_rows)
        / sum(row["execute"] for row in kernel_rows),
        "ratio",
    )
    # Counts: one value per case, so the weighted mean over one pass of the
    # mix does not depend on how many passes the loop made.
    stats_of: Dict[str, List[Mapping]] = {}
    for case, _, response in timed:
        stats_of.setdefault(case.name, []).append(response["stats"])
    per_case = {
        name: oracle.require_exact_repeat(f"stats of {name}", stats)
        for name, stats in stats_of.items()
    }
    passes = sum(case.weight for case in inputs.EXEC_CASES)
    for key in ("total_work", "tuples_read", "tuples_emitted"):
        layers[f"executor.{key}_per_op"] = metric(
            sum(case.weight * per_case[case.name][key] for case in inputs.EXEC_CASES)
            / passes,
            "count",
        )
    layers["executor.peak_transient_elements"] = metric(
        max(stats["peak_transient_elements"] for stats in per_case.values()), "count"
    )
    return layers
