"""Micro-benchmarks of the core algorithmic building blocks.

Not tied to a specific figure; these time the pieces whose costs appear in
the Theorem 4.5 analysis (building the candidates graph, evaluating it for a
TAF, extracting the minimal hypertree) and the relational substrate
(Yannakakis evaluation of a hypertree plan), so regressions in any layer are
visible.
"""

from repro.db.executor import execute_hypertree_plan
from repro.db.generator import uniform_database
from repro.decomposition.candidates import CandidatesGraph
from repro.decomposition.kdecomp import optimal_decomposition
from repro.decomposition.minimal import evaluate_candidates_graph, minimal_k_decomp
from repro.decomposition.normal_form import complete_decomposition
from repro.hypergraph.generators import paper_q0_hypergraph
from repro.query.examples import q0
from repro.weights.library import lexicographic_taf, width_taf


def test_candidates_graph_construction(benchmark):
    hypergraph = paper_q0_hypergraph()
    graph = benchmark(lambda: CandidatesGraph(hypergraph, 2))
    assert graph.num_candidates


def test_candidates_graph_evaluation(benchmark):
    hypergraph = paper_q0_hypergraph()
    graph = CandidatesGraph(hypergraph, 2)
    taf = lexicographic_taf(hypergraph)
    result = benchmark(lambda: evaluate_candidates_graph(graph, taf))
    assert result.root_candidates


def test_minimal_k_decomp_q0(benchmark):
    hypergraph = paper_q0_hypergraph()
    hd = benchmark(lambda: minimal_k_decomp(hypergraph, 2, width_taf()))
    assert hd.width == 2


def test_hypertree_plan_execution_q0(benchmark):
    query = q0()
    database = uniform_database(query, tuples_per_relation=100, domain_size=8, seed=1)
    decomposition = complete_decomposition(optimal_decomposition(query.hypergraph()))

    def run():
        return execute_hypertree_plan(query, database, decomposition)

    result = benchmark(run)
    assert result.boolean in (True, False)
