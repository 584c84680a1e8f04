"""Tests for [V]-adjacency, [V]-paths and [V]-components (Section 2.2)."""

import pytest

from repro.hypergraph.components import (
    component_frontier,
    component_of,
    components,
    components_under_edge_set,
    edges_of_component,
    find_path,
    is_adjacent,
    is_connected_set,
    sub_components,
)
from repro.hypergraph.hypergraph import Hypergraph


@pytest.fixture
def chain():
    # A - B - C - D as three binary edges.
    return Hypergraph({"e1": ["A", "B"], "e2": ["B", "C"], "e3": ["C", "D"]})


class TestAdjacency:
    def test_adjacent_within_edge(self, chain):
        assert is_adjacent(chain, "A", "B", separator=[])
        assert not is_adjacent(chain, "A", "C", separator=[])

    def test_separator_breaks_adjacency(self, chain):
        assert not is_adjacent(chain, "A", "B", separator=["B"])
        assert not is_adjacent(chain, "B", "A", separator=["A"])
        # A separator elsewhere leaves A-B adjacent and isolates D.
        assert is_adjacent(chain, "A", "B", separator=["C"])
        assert not any(is_adjacent(chain, "D", v, separator=["C"]) for v in "ABC")

    def test_adjacency_in_larger_edge(self):
        h = Hypergraph({"e": ["A", "B", "C"]})
        assert is_adjacent(h, "A", "C", separator=["B"])


class TestPaths:
    def test_path_exists(self, chain):
        path = find_path(chain, "A", "D", separator=[])
        assert path is not None
        assert path[0] == "A" and path[-1] == "D"

    def test_path_blocked_by_separator(self, chain):
        assert find_path(chain, "A", "D", separator=["C"]) is None

    def test_trivial_path(self, chain):
        assert find_path(chain, "A", "A", separator=[]) == ["A"]

    def test_path_endpoint_in_separator(self, chain):
        assert find_path(chain, "A", "B", separator=["B"]) is None

    def test_connected_set(self, chain):
        assert is_connected_set(chain, ["A", "B"], separator=[])
        assert not is_connected_set(chain, ["A", "D"], separator=["B"])
        assert is_connected_set(chain, [], separator=[])


class TestComponents:
    def test_whole_graph_single_component(self, chain):
        comps = components(chain, separator=[])
        assert comps == (frozenset({"A", "B", "C", "D"}),)

    def test_separator_splits_chain(self, chain):
        comps = components(chain, separator=["B"])
        assert frozenset({"A"}) in comps
        assert frozenset({"C", "D"}) in comps
        assert len(comps) == 2

    def test_components_exclude_separator(self, chain):
        for comp in components(chain, separator=["B"]):
            assert "B" not in comp

    def test_full_separator_gives_no_components(self, chain):
        assert components(chain, separator=["A", "B", "C", "D"]) == ()

    def test_component_of(self, chain):
        assert component_of(chain, "A", separator=["B"]) == {"A"}
        with pytest.raises(ValueError):
            component_of(chain, "B", separator=["B"])

    def test_components_are_maximal(self, q0_hypergraph):
        separator = q0_hypergraph.edge_vertices("s1") | q0_hypergraph.edge_vertices("s5")
        for comp in components(q0_hypergraph, separator):
            # No vertex outside the component (and outside the separator) is
            # adjacent to it.
            outside = q0_hypergraph.vertices - separator - comp
            for inside_vertex in comp:
                for outside_vertex in outside:
                    assert not is_adjacent(
                        q0_hypergraph, inside_vertex, outside_vertex, separator
                    )

    def test_components_partition_remaining_vertices(self, q0_hypergraph):
        separator = {"B", "D", "E", "G"}
        comps = components(q0_hypergraph, separator)
        union = set()
        total = 0
        for comp in comps:
            union |= comp
            total += len(comp)
        assert union == q0_hypergraph.vertices - separator
        assert total == len(union)  # pairwise disjoint


class TestComponentHelpers:
    def test_edges_of_component(self, chain):
        comp = component_of(chain, "C", separator=["B"])
        assert edges_of_component(chain, comp) == {"e2", "e3"}

    def test_component_frontier(self, chain):
        comp = component_of(chain, "C", separator=["B"])
        assert component_frontier(chain, comp) == {"B", "C", "D"}

    def test_components_under_edge_set(self, chain):
        comps = components_under_edge_set(chain, ["e2"])
        assert frozenset({"A"}) in comps
        assert frozenset({"D"}) in comps

    def test_sub_components(self, chain):
        outer = component_of(chain, "A", separator=[])
        subs = sub_components(chain, separator=["B"], inside=outer)
        assert frozenset({"A"}) in subs
        assert frozenset({"C", "D"}) in subs

    def test_sub_components_filters_outside(self, chain):
        subs = sub_components(chain, separator=["B"], inside={"A"})
        assert subs == (frozenset({"A"}),)


class TestQ0Components:
    def test_q0_component_structure(self, q0_hypergraph):
        # Removing var(s1) = {A, B, D} separates C, the E-side and G-side
        # remain connected through s5.
        comps = components(q0_hypergraph, q0_hypergraph.edge_vertices("s1"))
        assert frozenset({"C"}) in comps
        big = [c for c in comps if len(c) > 1]
        assert len(big) == 1
        assert big[0] == {"E", "F", "G", "H", "I", "J"}
