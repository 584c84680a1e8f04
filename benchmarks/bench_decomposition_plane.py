"""Decomposition-plane benchmarks: the search-side perf trajectory.

PR 2 gave the execution side engine-interleaved benchmarks; these do the
same for the paper's search side.  Each test runs its workload on both
engines *alternately within one test* -- scalar big-int loops vs the
vectorised mask-matrix kernels (or fresh-per-k constructions vs the
k-incremental family) -- over the identical, equally-warm graphs, and asserts
the outputs are byte-identical:

* ``test_candidates_graph_construction_plane`` -- one big grid-query
  candidates graph (the Theorem 4.5 build phase), scalar vs vectorised;
* ``test_k_sweep_incremental`` -- the Fig. 8(A)-style k = 2..5 graph sweep
  over Q1's planning hypergraph, fresh scalar constructions vs the
  vectorised :class:`CandidatesGraphFamily` (``extend_to`` reuse).
"""

import time

from repro.decomposition.candidates import CandidatesGraph, CandidatesGraphFamily
from repro.hypergraph.generators import grid_hypergraph
from repro.query.examples import q1


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
    """Build phase on a 4x4 grid query at k=3 (Ψ=2324, ~3M candidates):
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
    assert scalar_graph.size_report()["candidates"] > 1_000_000
    assert _graph_fingerprint(scalar_graph) == _graph_fingerprint(dense_graph)


def test_k_sweep_incremental(benchmark):
    """The fig8a-style k = 2..5 candidates-graph sweep over Q1's planning
    hypergraph: four fresh scalar builds vs the k-incremental family."""
    hypergraph = q1().with_fresh_head_variables().hypergraph()
    hypergraph.bitset()
    k_values = (2, 3, 4, 5)

    def fresh_sweep():
        return [
            CandidatesGraph(hypergraph, k, vectorized=False) for k in k_values
        ]

    def family_sweep():
        family = CandidatesGraphFamily(hypergraph)
        return [family.graph(k) for k in k_values]

    def run():
        return _interleaved("fresh", fresh_sweep, "family", family_sweep)

    results, seconds = benchmark.pedantic(run, rounds=1, iterations=1)

    fresh_graphs, family_graphs = results["fresh"], results["family"]
    for fresh_graph, family_graph in zip(fresh_graphs, family_graphs):
        assert _graph_fingerprint(fresh_graph) == _graph_fingerprint(family_graph)
