"""Equivalence of the vectorised decomposition search plane with the scalar
oracle.

The mask-matrix kernels run candidates-graph construction on whole numpy
arrays, under the same build driver as the scalar big-int kernels, which stay
in place as the oracle (and the numpy-free fallback).  These tests pin the
matrix engine to the scalar one on random hypergraphs, the one lowering of
TAFs to mask space to the name forms, and a k-sweep's shared TAF to
standalone planning:

* :class:`~repro.core.maskmatrix.MaskMatrix` against the big-int
  definitions of its three tests (including masks wider than one 64-bit
  word);
* ``CandidatesGraph(vectorized=True)`` against ``vectorized=False``:
  byte-identical nodes, arcs, orders, (λ, χ) labels and ``size_report()``,
  and the labels against their ``dict.fromkeys`` definition, and
  ``hypertree_width`` (a fresh graph per bound) against both engines;
* ``TreeAggregationFunction.bind_mask_space``: a name-only twin of every
  library TAF and of ``QueryCostTAF`` (lifted mask forms; the cost TAF's
  twin has its own estimator, is drawn over random queries and catalogs
  and is compared label by label and label batch to label batch too)
  evaluates, selects and recurses exactly like the native-mask original,
  and the cost TAF's numpy column batch equals its per-label forms
  ``float.hex`` for ``float.hex`` on χ masks two words wide;
* ``best_plan_over_k``, whose bounds share one ``QueryCostTAF``, against a
  standalone ``cost_k_decomp`` per bound: byte-identical plans, also for
  bounds fed out of order and revisited, and one TAF for the cold sweep;
* ``TieBreaker.choose`` with ``policy="first"`` picks the same candidate
  the full sort used to (satellite: ``min`` instead of an O(n log n) sort);
* the kernel-level projection pushdown leaves answers and
  ``OperatorStats`` byte-identical between engines.
"""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.maskmatrix import MaskMatrix
from repro.decomposition.candidates import CandidatesGraph
from repro.decomposition.kdecomp import has_width_at_most, hypertree_width
from repro.db.storage import decomposition_to_payload
from repro.decomposition.minimal import (
    TieBreaker,
    evaluate_candidates_graph,
    minimal_k_decomp,
)
from repro.decomposition.threshold import minimum_weight_recursive
from repro.exceptions import NoDecompositionExistsError, PlanningError
from repro.hypergraph.generators import (
    cycle_hypergraph,
    random_hypergraph,
    star_hypergraph,
)
from repro.weights.library import (
    largest_chi_taf,
    lexicographic_separator_taf,
    lexicographic_taf,
    node_count_taf,
    separator_taf,
    width_taf,
)
from repro.db.statistics import CatalogStatistics
from repro.decomposition.hypertree import DecompositionNode
from repro.planner.cost_k_decomp import (
    best_plan_over_k,
    cost_k_decomp,
)
from repro.weights.querycost import QueryCostTAF
from repro.weights.taf import TreeAggregationFunction, zero_edge_weight
from repro.workloads.paper_queries import fig5_statistics
from repro.workloads.synthetic import chain_query, random_cyclic_query
from repro.query.examples import q1

np = pytest.importorskip("numpy")


small_hypergraph_strategy = st.builds(
    random_hypergraph,
    num_vertices=st.integers(min_value=2, max_value=9),
    num_edges=st.integers(min_value=1, max_value=8),
    rank=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)


def graph_snapshot(graph: CandidatesGraph):
    """Every dense-id array of the graph (the byte-identity contract)."""
    return (
        graph.sub_keys,
        list(graph.cand_keys),
        list(graph.cand_lambda),
        list(graph.cand_var),
        list(graph.cand_chi),
        list(graph.cand_comp),
        list(graph.cand_subs),
        list(graph.cand_label),
        list(graph.label_lambda),
        list(graph.label_chi),
        list(graph.sub_solvers),
        list(graph.sub_dependents),
        list(graph.sub_order),
        graph.size_report(),
    )


# ----------------------------------------------------------------------
# MaskMatrix vs the big-int definitions
# ----------------------------------------------------------------------
#: Each matrix test, written as its one-line big-int definition.
_SCALAR = {
    "intersects": lambda m, p: bool(m & p),
    "subset_of": lambda m, p: not m & ~p,
    "covers": lambda m, p: not p & ~m,
}


class TestMaskMatrix:
    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
    @given(
        num_bits=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_queries_match_scalar_twin(self, num_bits, seed):
        rng = random.Random(seed)
        masks = [rng.getrandbits(num_bits) for _ in range(rng.randint(0, 20))]
        probe = rng.getrandbits(num_bits)
        dense = MaskMatrix(masks, num_bits)
        assert len(dense) == len(masks)
        for method, definition in _SCALAR.items():
            expected = [definition(m, probe) for m in masks]
            assert list(getattr(dense, method)(probe)) == expected, method
        assert np.flatnonzero(dense.covers(probe)).tolist() == [
            i for i, m in enumerate(masks) if not probe & ~m
        ]

    def test_semantics_against_definitions(self):
        masks = [0b1010, 0b0110, 0, 0b1111]
        matrix = MaskMatrix(masks, 4)
        assert list(matrix.intersects(0b0010)) == [True, True, False, True]
        assert list(matrix.subset_of(0b1110)) == [True, True, True, False]
        assert list(matrix.covers(0b1010)) == [True, False, False, True]

    def test_multiword_rows(self):
        masks = [1 << 130, (1 << 64) | 1, (1 << 200) - 1]
        matrix = MaskMatrix(masks, 201)
        assert matrix.width == 4
        assert list(matrix.covers((1 << 64) | 1)) == [False, True, True]


# ----------------------------------------------------------------------
# CandidatesGraph: vectorised engine == scalar oracle
# ----------------------------------------------------------------------
class TestVectorizedCandidatesGraph:
    @settings(max_examples=35, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        hypergraph=small_hypergraph_strategy,
        k=st.integers(min_value=1, max_value=4),
    )
    def test_engines_build_identical_graphs(self, hypergraph, k):
        scalar = CandidatesGraph(hypergraph, k, vectorized=False)
        dense = CandidatesGraph(hypergraph, k, vectorized=True)
        assert graph_snapshot(scalar) == graph_snapshot(dense)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        hypergraph=small_hypergraph_strategy,
        k=st.integers(min_value=1, max_value=4),
    )
    def test_labels_intern_first_occurrences(self, hypergraph, k):
        for engine in (False, True):
            graph = CandidatesGraph(hypergraph, k, vectorized=engine)
            pairs = list(zip(graph.cand_lambda, graph.cand_chi))
            firsts = list(dict.fromkeys(pairs))
            assert list(zip(graph.label_lambda, graph.label_chi)) == firsts
            label_of = {pair: label for label, pair in enumerate(firsts)}
            assert graph.cand_label == [label_of[pair] for pair in pairs]
            assert graph.size_report()["labels"] == len(firsts)

    def test_wider_than_one_word(self):
        # 70 vertices and 70 edges: every mask spans two uint64 words.
        hypergraph = cycle_hypergraph(70)
        scalar = CandidatesGraph(hypergraph, 2, vectorized=False)
        dense = CandidatesGraph(hypergraph, 2, vectorized=True)
        assert graph_snapshot(scalar) == graph_snapshot(dense)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(hypergraph=small_hypergraph_strategy)
    def test_width_is_the_least_bound_on_either_engine(self, hypergraph):
        # hypertree_width builds a fresh graph per bound; a fresh graph of
        # either engine must agree that hw is feasible and hw - 1 is not.
        width = hypertree_width(hypergraph)
        for engine in (False, True):
            assert has_width_at_most(
                hypergraph, width,
                graph=CandidatesGraph(hypergraph, width, vectorized=engine),
            )
            if width > 1:
                assert not has_width_at_most(
                    hypergraph, width - 1,
                    graph=CandidatesGraph(hypergraph, width - 1, vectorized=engine),
                )

    def test_solver_arc_dedup_on_star(self):
        # Stars make thousands of subproblems share one component; its one
        # shared solver tuple must still be the same on both engines.
        hypergraph = star_hypergraph(12)
        scalar = CandidatesGraph(hypergraph, 2, vectorized=False)
        dense = CandidatesGraph(hypergraph, 2, vectorized=True)
        assert graph_snapshot(scalar) == graph_snapshot(dense)


# ----------------------------------------------------------------------
# Lowering: lifted mask forms == native mask forms
# ----------------------------------------------------------------------
LIBRARY_TAFS = (
    lambda h: width_taf(),
    lexicographic_taf,
    lambda h: separator_taf(),
    lexicographic_separator_taf,
    lambda h: node_count_taf(),
    lambda h: largest_chi_taf(),
)


def name_only_twin(taf: TreeAggregationFunction) -> TreeAggregationFunction:
    """The same TAF through its name functions alone: every mask form the
    algorithms call is then the generic lift of ``bind_mask_space``."""
    separable = taf.edge_weight is not zero_edge_weight and taf.has_separable_edge
    return TreeAggregationFunction(
        semiring=taf.semiring,
        vertex_weight=taf.vertex_weight,
        edge_weight=taf.edge_weight,
        name=f"{taf.name}/names",
        edge_parent_part=taf.edge_parent_part if separable else None,
        edge_child_part=taf.edge_child_part if separable else None,
    )


def assert_lowering_agrees(hypergraph, k, graph, native, twin):
    expected = evaluate_candidates_graph(graph, native)
    lifted = evaluate_candidates_graph(graph, twin)
    assert list(lifted.weight_by_id) == list(expected.weight_by_id)
    assert bytes(lifted.removed) == bytes(expected.removed)
    assert lifted.survivors_by_sub == expected.survivors_by_sub
    minimum = expected.minimum_weight()
    assert minimum_weight_recursive(hypergraph, k, twin, graph=graph) == (
        minimum_weight_recursive(hypergraph, k, native, graph=graph)
    )
    try:
        selected = minimal_k_decomp(hypergraph, k, native, graph=graph)
    except NoDecompositionExistsError:
        with pytest.raises(NoDecompositionExistsError):
            minimal_k_decomp(hypergraph, k, twin, graph=graph)
        return
    assert decomposition_to_payload(
        minimal_k_decomp(hypergraph, k, twin, graph=graph)
    ) == decomposition_to_payload(selected)
    # ``weigh`` sums node contributions in tree order, the fold in subproblem
    # order: equal up to float rounding for the real-valued cost TAF.
    assert native.weigh(selected) == twin.weigh(selected)
    assert native.weigh(selected) == pytest.approx(minimum, rel=1e-12)


@st.composite
def costed_queries(draw, fresh=True):
    """A ``random_cyclic_query`` (with the planner's fresh completeness
    variables unless ``fresh=False``) and a catalog of drawn cardinalities
    and distinct counts."""
    query = random_cyclic_query(
        draw(st.integers(min_value=3, max_value=7)),
        draw(st.integers(min_value=3, max_value=8)),
        arity=draw(st.integers(min_value=2, max_value=4)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    if fresh:
        query = query.with_fresh_head_variables()
    cardinalities = {}
    selectivities = {}
    for atom in query.atoms:
        cardinality = draw(st.integers(min_value=1, max_value=10**6))
        cardinalities[atom.predicate] = cardinality
        selectivities[atom.predicate] = {
            variable: draw(st.integers(min_value=1, max_value=cardinality))
            for variable in atom.variables
        }
    return query, CatalogStatistics.from_declared(cardinalities, selectivities)


class TestLowering:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        hypergraph=small_hypergraph_strategy,
        k=st.integers(min_value=1, max_value=3),
        taf_index=st.integers(min_value=0, max_value=len(LIBRARY_TAFS) - 1),
    )
    def test_library_twins_match_native(self, hypergraph, k, taf_index):
        native = LIBRARY_TAFS[taf_index](hypergraph)
        graph = CandidatesGraph(hypergraph, k)
        assert_lowering_agrees(hypergraph, k, graph, native, name_only_twin(native))

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        hypergraph=small_hypergraph_strategy,
        k=st.integers(min_value=2, max_value=3),
    )
    def test_selected_decomposition_matches(self, hypergraph, k):
        graph = CandidatesGraph(hypergraph, k)
        taf = lexicographic_taf(hypergraph)
        try:
            selected = minimal_k_decomp(hypergraph, k, taf, graph=graph)
        except NoDecompositionExistsError:
            return
        assert taf.weigh(selected) == evaluate_candidates_graph(
            graph, taf
        ).minimum_weight()

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=costed_queries(), k=st.sampled_from([2, 3]))
    def test_querycost_twin_matches_native(self, case, k):
        query, statistics = case
        hypergraph = query.hypergraph()
        graph = CandidatesGraph(hypergraph, k)
        native = QueryCostTAF(query, statistics)
        # The twin has its own estimator and memos: nothing it computes is
        # read back from the native forms' work.
        twin = name_only_twin(QueryCostTAF(query, statistics))
        native.bind_mask_space(graph.bitset)
        twin.bind_mask_space(graph.bitset)
        for lambda_mask, chi_mask in zip(graph.label_lambda, graph.label_chi):
            assert native.mask_vertex_weight(lambda_mask, chi_mask) == (
                twin.mask_vertex_weight(lambda_mask, chi_mask)
            )
            assert native.mask_edge_parent_part(lambda_mask, chi_mask) == (
                twin.mask_edge_parent_part(lambda_mask, chi_mask)
            )
        # The native column batch against the twin's per-label map.
        labels = (graph.label_lambda, graph.label_chi)
        assert native.mask_label_weights(*labels) == twin.mask_label_weights(*labels)
        assert_lowering_agrees(hypergraph, k, graph, native, twin)

    def test_querycost_batch_matches_labels_on_multiword_chi(self):
        # With fresh head variables chain_query(33) has 67 vertices, so
        # some χ masks span two 64-bit words.  The catalog makes every cap
        # bind and exceed 2**53: its product of odd domain sizes rounds
        # differently in another order, so the batch must multiply in
        # ascending vertex order across both words to match.
        query = chain_query(33).with_fresh_head_variables()
        rng = random.Random(33)
        cardinalities = {}
        selectivities = {}
        for atom in query.atoms:
            cardinalities[atom.predicate] = 10**12 + rng.randrange(10**9)
            selectivities[atom.predicate] = {
                variable: rng.randrange(500, 5000) | 1 for variable in atom.variables
            }
        statistics = CatalogStatistics.from_declared(cardinalities, selectivities)
        hypergraph = query.hypergraph()
        graph = CandidatesGraph(hypergraph, 2)
        assert len(graph.bitset.vertices) == 67
        assert any(chi_mask >> 64 for chi_mask in graph.label_chi)
        native = QueryCostTAF(query, statistics)
        native.bind_mask_space(graph.bitset)
        vertex, parent, child = native.mask_label_weights(
            graph.label_lambda, graph.label_chi
        )
        assert child is parent
        # The per-label forms of a TAF with memos of its own.
        scalar = QueryCostTAF(query, statistics)
        scalar.bind_mask_space(graph.bitset)
        labels = list(zip(graph.label_lambda, graph.label_chi))
        assert [w.hex() for w in vertex] == [
            scalar.mask_vertex_weight(*label).hex() for label in labels
        ]
        assert [w.hex() for w in parent] == [
            scalar.mask_edge_parent_part(*label).hex() for label in labels
        ]
        assert_lowering_agrees(
            hypergraph, 2, graph,
            QueryCostTAF(query, statistics),
            name_only_twin(QueryCostTAF(query, statistics)),
        )

    def test_querycost_twin_matches_after_estimate_first(self):
        # A TAF whose first question is |E(p)| of a >= 3-atom λ (a name
        # form, no v* before it) still weighs every label like a twin that
        # never saw that question: the estimator computes a λ's joins in
        # one order whichever term is asked first.
        query = q1().with_fresh_head_variables()
        hypergraph = query.hypergraph()
        graph = CandidatesGraph(hypergraph, 3)
        bitset = graph.bitset
        native = QueryCostTAF(query, fig5_statistics())
        wide = [
            (lambda_mask, chi_mask)
            for lambda_mask, chi_mask in zip(graph.label_lambda, graph.label_chi)
            if lambda_mask.bit_count() >= 3
        ]
        assert wide
        for lambda_mask, chi_mask in wide[:5]:
            native.node_estimate(
                DecompositionNode(
                    -1, bitset.edge_names(lambda_mask), bitset.vertex_names(chi_mask)
                )
            )
        twin = name_only_twin(QueryCostTAF(query, fig5_statistics()))
        assert_lowering_agrees(hypergraph, 3, graph, native, twin)

    def test_binding_is_idempotent_and_rebindable(self):
        query = q1().with_fresh_head_variables()
        graph = CandidatesGraph(query.hypergraph(), 2)
        other = CandidatesGraph(cycle_hypergraph(5), 2)
        for taf in (
            QueryCostTAF(query, fig5_statistics()),
            name_only_twin(width_taf()),
        ):
            taf.bind_mask_space(graph.bitset)
            before = taf.mask_vertex_weight
            taf.bind_mask_space(graph.bitset)  # same bitset: memos stay warm
            assert taf.mask_vertex_weight is before
        # A lifted form translates through the bitset it was bound to, so one
        # TAF object serves graphs of different hypergraphs in turn.
        twin = name_only_twin(largest_chi_taf())
        for target in (graph, other, graph):
            assert list(evaluate_candidates_graph(target, twin).weight_by_id) == list(
                evaluate_candidates_graph(target, largest_chi_taf()).weight_by_id
            )


# ----------------------------------------------------------------------
# k-sweeps: one shared TAF == a standalone planner per bound
# ----------------------------------------------------------------------
def plan_fingerprint(plan):
    return (
        plan.estimated_cost.hex(),
        plan.node_estimates,
        decomposition_to_payload(plan.decomposition),
    )


class TestKSweep:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        case=costed_queries(fresh=False),
        k_values=st.lists(
            st.sampled_from([2, 3, 4]), min_size=1, max_size=3, unique=True
        ),
    )
    def test_shared_taf_sweep_matches_standalone_plans(self, case, k_values):
        query, statistics = case
        standalone = {}
        for k in k_values:
            try:
                standalone[k] = plan_fingerprint(cost_k_decomp(query, statistics, k))
            except PlanningError:
                pass
        try:
            swept = best_plan_over_k(query, statistics, k_values)
        except PlanningError:
            assert not standalone
            return
        assert {k: plan_fingerprint(plan) for k, plan in swept.items()} == standalone

    def test_sweep_replans_any_bound_like_a_standalone_planner(self):
        # Bounds out of order and revisited: the sweep keeps one TAF and no
        # graph, so every bound plans exactly like a standalone call.
        query, statistics = q1(), fig5_statistics()
        swept = best_plan_over_k(query, statistics, (3, 2, 3, 4, 2))
        assert list(swept) == [3, 2, 4]
        for k, plan in swept.items():
            assert plan_fingerprint(plan) == plan_fingerprint(
                cost_k_decomp(query, statistics, k)
            )

    def test_a_repeated_bound_is_planned_once(self, monkeypatch):
        searched = []
        planner_module = sys.modules["repro.planner.cost_k_decomp"]
        search = planner_module.minimal_k_decomp

        def counting_search(hypergraph, k, taf):
            searched.append(k)
            return search(hypergraph, k, taf)

        monkeypatch.setattr(planner_module, "minimal_k_decomp", counting_search)
        swept = best_plan_over_k(q1(), fig5_statistics(), (3, 2, 3, 4, 2))
        assert searched == [3, 2, 4]
        assert list(swept) == [3, 2, 4]

    def test_a_cold_sweep_builds_exactly_one_taf(self, monkeypatch):
        built = []

        class CountingTAF(QueryCostTAF):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        # (the package re-exports the function under the module's name)
        planner_module = sys.modules["repro.planner.cost_k_decomp"]
        monkeypatch.setattr(planner_module, "QueryCostTAF", CountingTAF)
        swept = best_plan_over_k(q1(), fig5_statistics(), (1, 2, 3, 4))
        assert sorted(swept) == [2, 3, 4]
        assert len(built) == 1


# ----------------------------------------------------------------------
# TieBreaker satellite
# ----------------------------------------------------------------------
class TestTieBreakerFirstPolicy:
    @settings(max_examples=60)
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=30), min_size=1, max_size=12
        )
    )
    def test_first_equals_sorted_head(self, values):
        breaker = TieBreaker(policy="first")
        assert breaker.choose(values) == sorted(values)[0]
        key = lambda v: (-v, v)  # noqa: E731
        assert breaker.choose(values, key=key) == sorted(values, key=key)[0]

    def test_random_policy_is_seed_stable(self):
        tied = [(frozenset({"b"}), frozenset({"Y"})), (frozenset({"a"}), frozenset({"X"}))]
        picks = {TieBreaker(policy="random", seed=s).choose(tied) for s in range(8)}
        assert picks == set(tied)  # both remain reachable
        assert (
            TieBreaker(policy="random", seed=3).choose(tied)
            == TieBreaker(policy="random", seed=3).choose(tied)
        )
