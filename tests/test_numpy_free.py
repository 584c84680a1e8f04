"""The numpy-free fallback, exercised: eleven modules guard ``import numpy``
with ``except ImportError``; this runs the decomposition plane and the
planner in a subprocess where that import fails and compares everything it
produces with the numpy-backed parent process.

Run as a script, the module *is* the subprocess: it hides numpy, runs the
probe and prints its result as JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest


def probe() -> dict:
    """Q1's candidates graph at k = 5 (Ψ = 381: the matrix engine when
    numpy is there), Q1 planned at k = 3, and its k = 2..4 sweep, through
    the public entry points; JSON-able.  ``cost_weights`` pins the
    query-cost TAF's label batch (numpy columns in the parent, the
    per-label forms here) through every weight of Q1's k = 3 fold."""
    import repro
    import repro.cli  # noqa: F401 - the CLI must import without numpy too
    from repro.db.storage import decomposition_to_payload
    from repro.decomposition.candidates import CandidatesGraph
    from repro.decomposition.minimal import evaluate_candidates_graph
    from repro.planner.cost_k_decomp import best_plan_over_k
    from repro.query.examples import q1
    from repro.weights.querycost import QueryCostTAF
    from repro.workloads.paper_queries import fig5_statistics

    planned = q1().with_fresh_head_variables()
    hypergraph = planned.hypergraph()
    graph = CandidatesGraph(hypergraph, 5)
    snapshot = (
        graph.sub_keys,
        graph.cand_lambda,
        graph.cand_var,
        graph.cand_chi,
        graph.cand_comp,
        graph.cand_subs,
        graph.sub_solvers,
        graph.sub_dependents,
        graph.sub_order,
        sorted(graph.size_report().items()),
    )
    taf = repro.width_taf()
    narrowest = repro.minimal_k_decomp(hypergraph, 5, taf, graph=graph)
    plan = repro.cost_k_decomp(q1(), fig5_statistics(), 3)
    sweep = best_plan_over_k(q1(), fig5_statistics(), (2, 3, 4))
    cost_weights = evaluate_candidates_graph(
        CandidatesGraph(hypergraph, 3), QueryCostTAF(planned, fig5_statistics())
    ).weight_by_id
    return {
        "numpy": "numpy" in sys.modules and sys.modules["numpy"] is not None,
        "engine": graph.vectorized,
        "graph": hashlib.sha256(repr(snapshot).encode()).hexdigest(),
        "labels": graph.size_report()["labels"],
        "width_minimum": evaluate_candidates_graph(graph, taf).minimum_weight(),
        "width_decomposition": decomposition_to_payload(narrowest),
        "plan_cost": plan.estimated_cost,
        "plan_decomposition": decomposition_to_payload(plan.decomposition),
        "sweep": {str(k): swept.to_payload() for k, swept in sweep.items()},
        "cost_weights": [weight.hex() for weight in cost_weights],
    }


def test_numpy_free_fallback_matches_numpy_process():
    pytest.importorskip("numpy")
    script = os.path.abspath(__file__)
    src = os.path.join(os.path.dirname(os.path.dirname(script)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [sys.executable, script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    without = json.loads(completed.stdout)
    # Round-trip the parent's result through JSON too (tuples become lists).
    with_numpy = json.loads(json.dumps(probe()))
    assert with_numpy.pop("numpy") and not without.pop("numpy")
    # Q1 at k = 5 has Ψ >= 300: the parent really ran the matrix engine.
    assert with_numpy.pop("engine") and not without.pop("engine")
    assert without == with_numpy


if __name__ == "__main__":
    sys.modules["numpy"] = None  # every ``import numpy`` now raises ImportError
    print(json.dumps(probe()))
