"""Equivalence of the vectorised decomposition search plane with the scalar
oracle.

The mask-matrix kernels run candidates-graph construction on whole numpy
arrays, under the same build driver as the scalar big-int kernels, which stay
in place as the oracle (and the numpy-free fallback).  These tests pin the
matrix engine to the scalar one on random hypergraphs, the one lowering of
TAFs to mask space to the name forms, and a k-sweep's shared TAF to
standalone planning:

* :class:`~repro.core.maskmatrix.MaskMatrix`'s block and pairs tests
  against the big-int definitions of its three set tests (including masks
  wider than one 64-bit word);
* ``CandidatesGraph(vectorized=True)`` (the block kernel, also cut into
  many small row blocks and on masks two words wide) against
  ``vectorized=False``: byte-identical nodes, arcs, orders, (λ, χ) labels
  and ``size_report()``, and the labels against their ``dict.fromkeys``
  definition, and ``hypertree_width`` (a fresh graph per bound) against
  both engines; the edge cases of the kernel's arrays; its transient
  memory bound;
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
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.maskmatrix import MaskMatrix
from repro.decomposition import candidates as candidates_module
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
from repro.hypergraph.hypergraph import Hypergraph
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
        list(graph._cand_kv_index),
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


def random_mask(rng, num_bits):
    """A dense, a sparse (one or two bits) or the empty mask."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.getrandbits(num_bits)
    if kind == 1:
        return (1 << rng.randrange(num_bits)) | (1 << rng.randrange(num_bits))
    return 0


def probe_masks(rng, masks, num_bits, count):
    """Random probes, most of them a row grown, cut or with one bit
    flipped, so ``subset_of`` and ``covers`` hold often enough to be tested
    and fail on a single word."""
    probes = []
    for _ in range(count):
        probe = random_mask(rng, num_bits)
        if masks and rng.random() < 3 / 4:
            row = rng.choice(masks)
            probe = rng.choice(
                [row | probe, row & probe, row ^ (1 << rng.randrange(num_bits))]
            )
        probes.append(probe)
    return probes


class TestMaskMatrix:
    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
    @given(
        num_bits=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_block_and_pairs_match_scalar_twin(self, num_bits, seed):
        rng = random.Random(seed)
        masks = [random_mask(rng, num_bits) for _ in range(rng.randint(0, 20))]
        probes = probe_masks(rng, masks, num_bits, rng.randint(1, 12))
        matrix = MaskMatrix(masks, num_bits)
        probe_matrix = MaskMatrix(probes, num_bits)
        assert len(matrix) == len(masks) and len(probe_matrix) == len(probes)
        lo = rng.randint(0, len(probes))
        hi = rng.randint(lo, len(probes))
        rows = [rng.randrange(len(masks)) for _ in range(15)] if masks else []
        probe_rows = [rng.randrange(len(probes)) for _ in rows]
        for test, definition in _SCALAR.items():
            block = matrix.block(test, probe_matrix, lo, hi)
            assert block.shape == (hi - lo, len(masks)), test
            assert block.tolist() == [
                [definition(mask, probe) for mask in masks] for probe in probes[lo:hi]
            ], test
            paired = matrix.pairs(
                test, np.array(rows, dtype=np.int64),
                probe_matrix, np.array(probe_rows, dtype=np.int64),
            )
            assert paired.tolist() == [
                definition(masks[row], probes[probe])
                for row, probe in zip(rows, probe_rows)
            ], test

    def test_semantics_against_definitions(self):
        matrix = MaskMatrix([0b1010, 0b0110, 0, 0b1111], 4)
        probes = MaskMatrix([0b0010, 0b1110, 0b1010], 4)
        assert matrix.block("intersects", probes, 0, 1).tolist() == [
            [True, True, False, True]
        ]
        assert matrix.block("subset_of", probes, 1, 2).tolist() == [
            [True, True, True, False]
        ]
        assert matrix.block("covers", probes, 2, 3).tolist() == [
            [True, False, False, True]
        ]
        # Rows against probes, not probes against rows.
        assert matrix.pairs("subset_of", [2, 3], probes, [0, 1]).tolist() == [
            True, False,
        ]

    def test_multiword_rows(self):
        masks = [1 << 130, (1 << 64) | 1, (1 << 200) - 1]
        matrix = MaskMatrix(masks, 201)
        assert matrix.width == 4
        probes = MaskMatrix([(1 << 64) | 1, 1 << 200], 201)
        assert matrix.block("covers", probes, 0, 2).tolist() == [
            [False, True, True],
            [False, False, False],
        ]
        assert matrix.block("intersects", probes, 1, 2).tolist() == [
            [False, False, False]
        ]
        assert matrix.pairs("subset_of", [0, 1], matrix, [2, 2]).tolist() == [
            True, True,
        ]


# ----------------------------------------------------------------------
# CandidatesGraph: vectorised engine == scalar oracle
# ----------------------------------------------------------------------
def padded(hypergraph: Hypergraph, pad: str) -> Hypergraph:
    """``hypergraph`` with masks two words wide: one more edge over 64 new
    vertices (``pad="vertices"``) or 64 copies of its first edge
    (``"edges"``).  The new names sort first, so the original vertices or
    edges all take bits of the second word."""
    edges = {name: hypergraph.edge_vertices(name) for name in hypergraph.edge_names}
    if pad == "vertices":
        anchor = min(hypergraph.vertices)
        edges["p"] = {f"P{i:02d}" for i in range(64)} | {anchor}
    else:
        first = edges[hypergraph.edge_names[0]]
        edges.update({f"a{i:02d}": first for i in range(64)})
    return Hypergraph(edges)


class TestVectorizedCandidatesGraph:
    @settings(max_examples=35, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        hypergraph=small_hypergraph_strategy,
        k=st.integers(min_value=1, max_value=4),
        pad=st.sampled_from([None, "vertices", "edges"]),
        block_cells=st.sampled_from([None, 1, 5, 64]),
    )
    def test_engines_build_identical_graphs(self, hypergraph, k, pad, block_cells):
        # ``block_cells`` shrinks the kernel's row blocks so that one graph
        # spans many of them (1: one component row per block); ``pad``
        # widens the masks past one 64-bit word.
        if pad is not None:
            hypergraph = padded(hypergraph, pad)
            k = min(k, 2)
        scalar = CandidatesGraph(hypergraph, k, vectorized=False)
        with pytest.MonkeyPatch.context() as patch:
            if block_cells is not None:
                patch.setattr(candidates_module, "_BLOCK_CELLS", block_cells)
            dense = CandidatesGraph(hypergraph, k, vectorized=True)
        assert graph_snapshot(scalar) == graph_snapshot(dense)
        # The kernel's ``cand_subs`` is a lazy sequence: index it like a list.
        ids = range(-dense.num_candidates, dense.num_candidates)
        assert [dense.cand_subs[i] for i in ids] == [scalar.cand_subs[i] for i in ids]

    def test_single_edge_graph_has_no_subproblem_arcs(self):
        # The one k-vertex covers every vertex: no component is left, so the
        # kernel's arc arrays are empty.
        hypergraph = Hypergraph({"e": ("A", "B")})
        for engine in (False, True):
            graph = CandidatesGraph(hypergraph, 1, vectorized=engine)
            assert graph.sub_keys == [(0, 0b11)]
            assert list(graph.cand_subs) == [()]
            assert list(graph.sub_dependents) == [()]
            assert list(graph.sub_solvers) == [(0,)]
        assert graph_snapshot(
            CandidatesGraph(hypergraph, 1, vectorized=False)
        ) == graph_snapshot(graph)

    def test_component_without_candidates(self):
        # Triangle at k = 1: the component {C} of var(ab) needs one edge
        # that meets C and covers its boundary {A, B}; none exists.  The
        # same holds for {A} and {B}, so every component row but the root's
        # admits nothing, the last row included.
        hypergraph = Hypergraph({"ab": ("A", "B"), "bc": ("B", "C"), "ca": ("C", "A")})
        scalar = CandidatesGraph(hypergraph, 1, vectorized=False)
        dense = CandidatesGraph(hypergraph, 1, vectorized=True)
        assert graph_snapshot(scalar) == graph_snapshot(dense)
        assert dense.public_subproblem(1) == (frozenset({"ab"}), frozenset({"C"}))
        assert dense.sub_solvers == [(0, 1, 2), (), (), ()]

    def test_block_cap_bounds_the_transient_peak(self):
        # cycle_hypergraph(70) at k = 2: 4,761 component rows × 2,485
        # k-vertices × 2 words.  Unchunked, the kernel's transients peaked
        # at about 127 MiB (traced); block by block the whole build peaks at
        # about 11 MiB, the graph included.  A first build warms the
        # hypergraph's component memo, so only the kernel's build is traced.
        hypergraph = cycle_hypergraph(70)
        CandidatesGraph(hypergraph, 2, vectorized=True)
        tracemalloc.start()
        try:
            CandidatesGraph(hypergraph, 2, vectorized=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

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
