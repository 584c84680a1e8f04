"""Decomposition-plane benchmarks: the search-side perf trajectory.

PR 2 gave the execution side engine-interleaved benchmarks; these do the
same for the paper's search side.  Each test runs its workload on both
engines *alternately within one test* -- scalar big-int loops vs the
vectorised mask-matrix kernels -- over the identical, equally-warm graphs,
and asserts the outputs are byte-identical:

* ``test_candidates_graph_construction_plane`` -- one big grid-query
  candidates graph (the Theorem 4.5 build phase), scalar vs vectorised.
"""

import time

from repro.decomposition.candidates import CandidatesGraph
from repro.hypergraph.generators import grid_hypergraph


def _interleaved(label_a, run_a, label_b, run_b, rounds=2):
    """Run two thunks alternately ``rounds`` times; return their last
    results and a ``{label: best seconds}`` timing dict."""
    timings = {label_a: [], label_b: []}
    results = {}
    for _ in range(rounds):
        for label, thunk in ((label_a, run_a), (label_b, run_b)):
            started = time.perf_counter()
            results[label] = thunk()
            timings[label].append(time.perf_counter() - started)
    return results, {label: min(times) for label, times in timings.items()}


def _graph_fingerprint(graph: CandidatesGraph):
    """Byte-identity proxy: all counts plus the exact node/arc arrays."""
    return (
        graph.size_report(),
        tuple(graph.cand_lambda),
        tuple(graph.cand_chi),
        tuple(graph.cand_comp),
        tuple(graph.cand_subs),
        tuple(graph.sub_solvers),
        tuple(graph.sub_order),
    )


def test_candidates_graph_construction_plane(benchmark):
    """Build phase on a 4x4 grid query at k=3 (Ψ=2324, 3,393 subproblems,
    30,788 live candidates of ~3M that pass the other two admission tests):
    per-component Ψ-length loops vs whole-array mask-matrix kernels."""
    hypergraph = grid_hypergraph(4, 4)
    hypergraph.bitset()  # one shared component memo: both engines equally warm

    def build(vectorized):
        return CandidatesGraph(hypergraph, 3, vectorized=vectorized)

    def run():
        return _interleaved(
            "scalar", lambda: build(False), "vectorized", lambda: build(True)
        )

    results, seconds = benchmark.pedantic(run, rounds=1, iterations=1)

    scalar_graph, dense_graph = results["scalar"], results["vectorized"]
    report = scalar_graph.size_report()
    assert (report["k_vertices"], report["subproblems"]) == (2_324, 3_393)
    assert (report["candidates"], report["solver_arcs"]) == (30_788, 71_284)
    assert _graph_fingerprint(scalar_graph) == _graph_fingerprint(dense_graph)

