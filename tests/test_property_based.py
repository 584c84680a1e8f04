"""Property-based tests (hypothesis) on the core structures and invariants.

These cover the properties the paper's correctness arguments lean on:

* semiring laws for the built-in semirings (Definition 4.1's preconditions);
* every decomposition produced by minimal-k-decomp on random hypergraphs is a
  valid, normal-form decomposition within the width bound, and its weight is
  what the algorithm reports;
* the bottom-up (minimal-k-decomp) and top-down (threshold-k-decomp) weight
  computations agree on random hypergraphs;
* [V]-components partition ``var(H) - V``;
* the relational algebra respects the classical identities Yannakakis'
  algorithm relies on (semijoin reduction preserves the join, join is
  commutative on bags up to reordering);
* hypertree-plan execution equals naive join evaluation on random databases.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db.algebra import natural_join, project, semijoin
from repro.db.executor import execute_plan
from repro.db.generator import uniform_database
from repro.db.plan_ir import hypertree_plan_ir, join_order_plan_ir
from repro.db.relation import Relation
from repro.decomposition.enumerate import enumerate_nf_decompositions
from repro.decomposition.kdecomp import hypertree_width, optimal_decomposition
from repro.decomposition.minimal import minimal_k_decomp, minimum_weight
from repro.decomposition.normal_form import complete_decomposition, is_normal_form
from repro.decomposition.threshold import minimum_weight_recursive
from repro.exceptions import NoDecompositionExistsError
from repro.hypergraph.components import components
from repro.hypergraph.generators import random_hypergraph
from repro.weights.library import lexicographic_taf, node_count_taf
from repro.weights.semiring import MAX_MIN, SUM_MIN
from repro.weights.semiring import INFINITY


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
weights_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=6
)

small_hypergraph_strategy = st.builds(
    random_hypergraph,
    num_vertices=st.integers(min_value=3, max_value=7),
    num_edges=st.integers(min_value=2, max_value=6),
    rank=st.integers(min_value=2, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)

relation_rows = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=0, max_size=20
)


# ----------------------------------------------------------------------
# Semirings
# ----------------------------------------------------------------------
@given(samples=weights_strategy)
def test_sum_semiring_laws(samples):
    SUM_MIN.verify(samples)


@given(samples=weights_strategy)
def test_max_semiring_laws(samples):
    MAX_MIN.verify(samples)


@given(samples=weights_strategy)
def test_min_distributes_over_combine(samples):
    # The key law exploited by minimal-k-decomp's bottom-up folding.
    a = samples[0]
    for semiring in (SUM_MIN, MAX_MIN):
        best_direct = min(semiring.combine(a, value) for value in samples)
        best_factored = semiring.combine(a, min(samples))
        assert abs(best_direct - best_factored) <= 1e-6 * max(1.0, abs(best_direct))


# ----------------------------------------------------------------------
# Components
# ----------------------------------------------------------------------
@given(hypergraph=small_hypergraph_strategy, data=st.data())
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_components_partition_remaining_vertices(hypergraph, data):
    vertices = sorted(hypergraph.vertices)
    separator = data.draw(st.sets(st.sampled_from(vertices), max_size=len(vertices)))
    comps = components(hypergraph, separator)
    union = set()
    total = 0
    for comp in comps:
        assert comp, "components are non-empty"
        assert not comp & separator
        union |= comp
        total += len(comp)
    assert union == hypergraph.vertices - separator
    assert total == len(union)


# ----------------------------------------------------------------------
# Decompositions
# ----------------------------------------------------------------------
@given(hypergraph=small_hypergraph_strategy)
@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_minimal_k_decomp_output_invariants(hypergraph):
    if not hypergraph.is_connected():
        return
    taf = lexicographic_taf(hypergraph)
    try:
        hd = minimal_k_decomp(hypergraph, 2, taf)
    except NoDecompositionExistsError:
        assert hypertree_width(hypergraph) > 2
        return
    assert hd.is_valid()
    assert is_normal_form(hd)
    assert hd.width <= 2
    assert taf.weigh(hd) == minimum_weight(hypergraph, 2, taf)


@given(hypergraph=small_hypergraph_strategy)
@settings(max_examples=15, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_bottom_up_and_top_down_minima_agree(hypergraph):
    if not hypergraph.is_connected():
        return
    taf = node_count_taf()
    bottom_up = minimum_weight(hypergraph, 2, taf)
    top_down = minimum_weight_recursive(hypergraph, 2, taf)
    if bottom_up == INFINITY or top_down == INFINITY:
        assert bottom_up == top_down
    else:
        assert abs(bottom_up - top_down) < 1e-9


@given(hypergraph=small_hypergraph_strategy)
@settings(max_examples=10, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_enumerated_decompositions_are_never_better_than_minimum(hypergraph):
    if not hypergraph.is_connected():
        return
    taf = lexicographic_taf(hypergraph)
    best = minimum_weight(hypergraph, 2, taf)
    for hd in enumerate_nf_decompositions(hypergraph, 2, limit=50):
        assert taf.weigh(hd) >= best - 1e-9


# ----------------------------------------------------------------------
# Relational algebra
# ----------------------------------------------------------------------
@given(rows_r=relation_rows, rows_s=relation_rows)
@settings(max_examples=60, deadline=None)
def test_semijoin_reduction_preserves_join(rows_r, rows_s):
    r = Relation("r", ["x", "y"], rows_r)
    s = Relation("s", ["y", "z"], rows_s)
    direct = natural_join(r, s)
    reduced = natural_join(semijoin(r, s), s)
    assert direct == reduced


@given(rows_r=relation_rows, rows_s=relation_rows)
@settings(max_examples=60, deadline=None)
def test_join_is_commutative_up_to_column_order(rows_r, rows_s):
    r = Relation("r", ["x", "y"], rows_r)
    s = Relation("s", ["y", "z"], rows_s)
    left = natural_join(r, s)
    right = natural_join(s, r)
    as_sets_left = {
        tuple(sorted(zip(left.attributes, row))) for row in left.rows
    }
    as_sets_right = {
        tuple(sorted(zip(right.attributes, row))) for row in right.rows
    }
    assert as_sets_left == as_sets_right


@given(rows_r=relation_rows)
@settings(max_examples=60, deadline=None)
def test_projection_is_idempotent(rows_r):
    r = Relation("r", ["x", "y"], rows_r)
    once = project(r, ["x"])
    twice = project(once, ["x"])
    assert once == twice


# ----------------------------------------------------------------------
# End-to-end: hypertree plans equal naive evaluation
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_atoms=st.integers(min_value=3, max_value=5),
)
@settings(max_examples=15, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_hypertree_plan_equals_naive_join_on_random_cycles(seed, num_atoms):
    from repro.workloads.synthetic import cycle_query

    query = cycle_query(num_atoms)
    database = uniform_database(query, tuples_per_relation=20, domain_size=3, seed=seed)
    decomposition = complete_decomposition(optimal_decomposition(query.hypergraph()))
    structural = execute_plan(hypertree_plan_ir(query, decomposition), database)
    naive = execute_plan(join_order_plan_ir(query), database)
    assert structural.boolean == naive.boolean
