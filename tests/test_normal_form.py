"""Tests for Definition 2.2 (normal form), treecomp, normalisation and
completion."""

import pytest

from repro.decomposition.hypertree import HypertreeDecomposition
from repro.decomposition.kdecomp import k_decomp
from repro.decomposition.normal_form import (
    child_component,
    complete_decomposition,
    is_normal_form,
    is_old_normal_form,
    normal_form_violations,
    normalize,
    treecomp,
)
from repro.exceptions import DecompositionError
from repro.hypergraph.generators import cycle_hypergraph
from repro.hypergraph.hypergraph import Hypergraph


class TestTreecomp:
    def test_root_treecomp_is_all_vertices(self, q0_hypergraph):
        hd = k_decomp(q0_hypergraph, 2)
        assert treecomp(hd, hd.root) == q0_hypergraph.vertices

    def test_child_components_shrink(self, q0_hypergraph):
        hd = k_decomp(q0_hypergraph, 2)
        for parent_id, child_id in hd.tree_edges():
            parent_comp = treecomp(hd, parent_id)
            child_comp = treecomp(hd, child_id)
            assert child_comp is not None
            assert child_comp <= parent_comp
            assert child_comp != parent_comp

    def test_child_component_none_for_redundant_child(self):
        # A child entirely covered by its parent has no associated component.
        h = Hypergraph({"e1": ["A", "B"], "e2": ["A", "B", "C"]})
        hd = HypertreeDecomposition.build(
            h,
            structure={0: [1], 1: []},
            lambdas={0: ["e2"], 1: ["e1"]},
            chis={0: ["A", "B", "C"], 1: ["A", "B"]},
        )
        assert child_component(hd, 0, 1) is None


class TestNormalFormCheck:
    def test_algorithmic_decompositions_are_nf(self, q0_hypergraph):
        hd = k_decomp(q0_hypergraph, 2)
        assert is_normal_form(hd)
        assert normal_form_violations(hd) == []

    def test_cycle_decomposition_is_nf(self):
        hd = k_decomp(cycle_hypergraph(6), 2)
        assert is_normal_form(hd)

    def test_redundant_child_not_nf(self):
        h = Hypergraph({"e1": ["A", "B"], "e2": ["A", "B", "C"]})
        hd = HypertreeDecomposition.build(
            h,
            structure={0: [1], 1: []},
            lambdas={0: ["e2"], 1: ["e1"]},
            chis={0: ["A", "B", "C"], 1: ["A", "B"]},
        )
        assert hd.is_valid()
        assert not is_normal_form(hd)
        assert any("condition 1" in v for v in normal_form_violations(hd))

    def test_new_nf_does_not_require_old_condition3(self, q0_hypergraph):
        # The new normal form (Definition 2.2) replaces NFo's condition
        # var(λ(s)) ∩ χ(r) ⊆ χ(s) by the stricter per-component equation for
        # χ(s); a λ edge may legitimately contribute variables of χ(r) that
        # lie outside var(edges(C_r)), so an NF decomposition need not be NFo.
        hd = k_decomp(q0_hypergraph, 2)
        assert is_normal_form(hd)
        # Every child still has a unique associated component (NFo cond. 1).
        for parent_id, child_id in hd.tree_edges():
            assert child_component(hd, parent_id, child_id) is not None


class TestNormalize:
    def test_normalize_is_identity_like_on_acyclic_nf(self):
        from repro.hypergraph.generators import path_hypergraph

        hd = k_decomp(path_hypergraph(4), 1)
        assert is_old_normal_form(hd)
        normalized = normalize(hd)
        assert normalized.width == hd.width
        assert normalized.is_valid()
        assert is_normal_form(normalized)

    def test_normalize_strips_useless_lambda_edges(self):
        # Build an NFo decomposition with a useless λ edge in the child: the
        # child decomposes component {C} but also carries e0 = {A}, which does
        # not meet var(edges({C})).
        h = Hypergraph({"e1": ["A", "B"], "e2": ["B", "C"], "e0": ["A"]})
        hd = HypertreeDecomposition.build(
            h,
            structure={0: [1], 1: []},
            lambdas={0: ["e1"], 1: ["e0", "e2"]},
            chis={0: ["A", "B"], 1: ["A", "B", "C"]},
        )
        assert hd.is_valid()
        assert is_old_normal_form(hd)
        assert not is_normal_form(hd)
        normalized = normalize(hd)
        assert normalized.is_valid()
        assert is_normal_form(normalized)
        assert normalized.node(1).lambda_edges == {"e2"}
        assert normalized.node(1).chi == {"B", "C"}
        assert normalized.width <= hd.width

    def test_normalize_rejects_non_nfo_input(self):
        h = Hypergraph({"e1": ["A", "B"], "e2": ["A", "B", "C"]})
        hd = HypertreeDecomposition.build(
            h,
            structure={0: [1], 1: []},
            lambdas={0: ["e2"], 1: ["e1"]},
            chis={0: ["A", "B", "C"], 1: ["A", "B"]},
        )
        with pytest.raises(DecompositionError):
            normalize(hd)


class TestCompletion:
    def test_complete_decomposition_strongly_covers_everything(self, q0_hypergraph):
        hd = k_decomp(q0_hypergraph, 2)
        completed = complete_decomposition(hd)
        assert completed.is_complete()
        assert completed.is_valid()
        assert completed.width == hd.width

    def test_completion_is_idempotent_on_complete_input(self, q0_hypergraph):
        hd = complete_decomposition(k_decomp(q0_hypergraph, 2))
        again = complete_decomposition(hd)
        assert again.num_nodes() == hd.num_nodes()

    def test_completion_adds_singleton_children(self):
        h = Hypergraph({"e1": ["A", "B"], "e2": ["B", "C"], "e3": ["A", "C"]})
        hd = HypertreeDecomposition.build(
            h,
            structure={0: []},
            lambdas={0: ["e1", "e2"]},
            chis={0: ["A", "B", "C"]},
        )
        completed = complete_decomposition(hd)
        assert completed.is_complete()
        assert completed.num_nodes() == 2
        new_node = [n for n in completed.nodes() if n.node_id != 0][0]
        assert new_node.lambda_edges == {"e3"}
        assert new_node.chi == {"A", "C"}

    def test_completed_decomposition_generally_not_nf(self, q0_hypergraph):
        # Section 6: the completion transformation can break the normal form.
        hd = k_decomp(q0_hypergraph, 2)
        completed = complete_decomposition(hd)
        if completed.num_nodes() > hd.num_nodes():
            assert not is_normal_form(completed)
