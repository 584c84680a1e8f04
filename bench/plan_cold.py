"""plan_cold: one cold ``cost_k_decomp`` per op, closed loop, one thread."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.decomposition import CandidatesGraph, minimal_k_decomp
from repro.decomposition.minimal import evaluate_candidates_graph
from repro.planner import baseline_plan, cost_k_decomp
from repro.weights import QueryCostTAF

from bench import inputs, oracle
from bench.harness import Ctx, Run, closed_loop, cpu_seconds, metric, percentile

NAME = "plan_cold"
WHY = (
    "decomposition, weights and planner do all the work, executor and serving "
    "none: a candidates-graph or TAF change shows here and nowhere else"
)


@dataclass
class State:
    cases: List[inputs.PlanCase]
    mix: List[inputs.PlanCase]  # one pass: every case ``weight`` times


def setup(ctx: Ctx) -> State:
    cases = inputs.plan_cases()
    for case in cases:  # warm-up: every case once
        cost_k_decomp(case.query, case.statistics, case.k)
    return State(cases, [case for case in cases for _ in range(case.weight)])


def prepare_oracle(state: State, ctx: Ctx) -> None:
    """Plans are checked against each other after the loop; nothing to prepare."""


def teardown(state: State) -> None:
    pass


def _finish(timed, wall_s: float, cpu_s: float) -> Run:
    """``timed`` rows are ``(case, latency_s, plan)``."""
    wrong = oracle.plan_mismatches([(case, plan) for case, _, plan in timed])
    return Run(
        latencies_s=[latency for (_, latency, _), bad in zip(timed, wrong) if not bad],
        attempted=len(timed),
        failed=0,  # a planning error propagates: every case has a width-k plan
        mismatches=sum(wrong),
        wall_s=wall_s,
        cpu_s=cpu_s,
    )


def run(state: State, seconds: float, ctx: Ctx) -> Run:
    cpu0 = cpu_seconds()
    rows, wall_s = closed_loop(
        state.mix, seconds, ctx.rng(NAME),
        lambda case: cost_k_decomp(case.query, case.statistics, case.k),
    )
    timed = [(case, end - start, plan) for case, start, end, plan in rows]
    return _finish(timed, wall_s, cpu_seconds() - cpu0)


def trace(state: State, seconds: float, ctx: Ctx) -> Tuple[Run, Dict[str, Dict]]:
    """The same loop with every op followed by a replay of its stages through
    their public entry points, each under a span of the benchmark's own.  The
    replay is not part of the op's latency."""
    spans = ctx.spans
    sizes: Dict[str, List[Dict[str, int]]] = {}
    case_of_op: Dict[int, str] = {}

    def op(case: inputs.PlanCase):
        with spans.span("planner.cost_k_decomp") as whole:
            plan = cost_k_decomp(case.query, case.statistics, case.k)
        case_of_op[whole] = case.name
        sizes.setdefault(case.name, []).append(_replay_stages(case, spans, whole))
        return plan, whole

    cpu0 = cpu_seconds()
    rows, wall_s = closed_loop(state.mix, seconds, ctx.rng(NAME), op)
    timed = [
        (case, spans.rows[whole]["end"] - spans.rows[whole]["start"], plan)
        for case, _, _, (plan, whole) in rows
    ]
    result = _finish(timed, wall_s, cpu_seconds() - cpu0)

    families = {}
    for case in state.cases:
        families.setdefault(case.name.rsplit("_k", 1)[0], case)
    for case in families.values():
        with spans.span("planner.baseline_plan"):
            baseline_plan(case.query, case.statistics)

    return result, _layers(state, spans, sizes, case_of_op)


def _replay_stages(case: inputs.PlanCase, spans, op: int) -> Dict[str, int]:
    """What ``cost_k_decomp`` does, stage by stage, from outside; ``op`` is
    the span of the whole call, which the stage spans name as their parent.

    The TAF memoises label costs and the graph builds its id arrays on first
    use, so evaluation is replayed twice on fresh objects: once alone, once
    inside ``minimal_k_decomp``, which adds the selection of one minimal
    hypertree (no public entry point of its own) and is the stage summed into
    the attributed time."""
    planned_query = case.query.with_fresh_head_variables()
    hypergraph = planned_query.hypergraph()

    def fresh_taf():
        taf = QueryCostTAF(planned_query, case.statistics)
        taf.bind_mask_space(hypergraph.bitset())
        return taf

    with spans.span("weights.taf_setup", op=op, parent=op):
        taf = fresh_taf()
    with spans.span("decomposition.graph_build", op=op, parent=op):
        graph = CandidatesGraph(hypergraph, case.k)
    with spans.span("decomposition.graph_eval", op=op, parent=op):
        evaluate_candidates_graph(graph, taf)

    taf, graph = fresh_taf(), CandidatesGraph(hypergraph, case.k)
    with spans.span("decomposition.minimal_k_decomp", op=op, parent=op):
        decomposition = minimal_k_decomp(hypergraph, case.k, taf, graph=graph)
    with spans.span("weights.weigh", op=op, parent=op):
        taf.weigh(decomposition)
        for node in decomposition.nodes():
            taf.node_estimate(node)
    return graph.size_report()


_STAGES = (
    "weights.taf_setup",
    "decomposition.graph_build",
    "decomposition.minimal_k_decomp",
    "weights.weigh",
)


def _layers(state: State, spans, sizes, case_of_op) -> Dict[str, Dict]:
    complete = spans.by_op("planner.cost_k_decomp")
    whole = [stages["planner.cost_k_decomp"] for stages in complete]
    attributed = [sum(stages[name] for name in _STAGES) for stages in complete]
    self_ms = [w - a for w, a in zip(whole, attributed)]

    layers = {
        "decomposition.graph_build_ms": metric(spans.p50("decomposition.graph_build"), "ms"),
        "decomposition.graph_eval_ms": metric(spans.p50("decomposition.graph_eval"), "ms"),
        "weights.taf_setup_ms": metric(spans.p50("weights.taf_setup"), "ms"),
        "weights.weigh_ms": metric(spans.p50("weights.weigh"), "ms"),
        "planner.cost_k_decomp_ms": metric(percentile(whole, 50), "ms"),
        "planner.self_ms": metric(percentile(self_ms, 50), "ms"),
        "planner.unattributed_share": metric(sum(self_ms) / sum(whole), "ratio"),
        "planner.baseline_plan_ms": metric(spans.p50("planner.baseline_plan"), "ms"),
    }
    # Counts: each case's graph has one size, so the weighted mean over one
    # pass of the mix does not depend on how many passes the loop made.
    for key in ("candidates", "subproblems", "solver_arcs"):
        per_pass = sum(
            case.weight
            * oracle.require_exact_repeat(
                f"{key} of {case.name}", [report[key] for report in sizes[case.name]]
            )
            for case in state.cases
        )
        layers[f"decomposition.{key}_per_op"] = metric(per_pass / len(state.mix), "count")
    for case in state.cases:
        case_ms = [
            (spans.rows[op]["end"] - spans.rows[op]["start"]) * 1e3
            for op, name in case_of_op.items()
            if name == case.name
        ]
        layers[f"planner.case.{case.name}.ms"] = metric(percentile(case_ms, 50), "ms")
    return layers
