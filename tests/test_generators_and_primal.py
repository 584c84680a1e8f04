"""Tests for the hypergraph generators and the primal-graph helpers."""

import pytest

from repro.exceptions import HypergraphError
from repro.hypergraph.acyclicity import is_acyclic
from repro.hypergraph.generators import (
    acyclic_hypergraph,
    clique_hypergraph,
    cycle_hypergraph,
    grid_hypergraph,
    paper_q0_hypergraph,
    path_hypergraph,
    random_hypergraph,
    star_hypergraph,
)
from repro.hypergraph.primal import (
    primal_graph,
    treewidth_upper_bound,
)


class TestGenerators:
    def test_path_hypergraph(self):
        h = path_hypergraph(4)
        assert h.num_edges() == 4
        assert is_acyclic(h)
        assert h.is_connected()

    def test_path_with_larger_edges(self):
        h = path_hypergraph(3, edge_size=3)
        assert all(len(h.edge_vertices(e)) == 3 for e in h.edge_names)
        assert is_acyclic(h)

    def test_star_hypergraph(self):
        h = star_hypergraph(5)
        assert h.num_edges() == 5
        assert "Hub" in h.vertices
        assert is_acyclic(h)

    def test_cycle_hypergraph(self):
        h = cycle_hypergraph(6)
        assert h.num_edges() == 6
        assert not is_acyclic(h)
        assert all(len(h.edge_vertices(e)) == 2 for e in h.edge_names)

    def test_clique_hypergraph(self):
        h = clique_hypergraph(4)
        assert h.num_edges() == 6
        assert not is_acyclic(h)

    def test_grid_hypergraph(self):
        h = grid_hypergraph(2, 3)
        # 2x3 grid: 3 + 4 = 7 edges.
        assert h.num_edges() == 7
        assert h.is_connected()

    def test_acyclic_hypergraph_generator(self):
        for seed in range(5):
            h = acyclic_hypergraph(6, edge_size=3, seed=seed)
            assert is_acyclic(h), f"seed {seed} produced a cyclic hypergraph"
            assert h.num_edges() == 6

    def test_random_hypergraph_connected(self):
        for seed in range(5):
            h = random_hypergraph(8, 6, rank=3, seed=seed)
            assert h.is_connected(), f"seed {seed} produced a disconnected hypergraph"

    def test_random_hypergraph_deterministic(self):
        assert random_hypergraph(6, 5, seed=3) == random_hypergraph(6, 5, seed=3)

    def test_generators_validate_arguments(self):
        with pytest.raises(HypergraphError):
            path_hypergraph(0)
        with pytest.raises(HypergraphError):
            cycle_hypergraph(2)
        with pytest.raises(HypergraphError):
            clique_hypergraph(1)
        with pytest.raises(HypergraphError):
            grid_hypergraph(0, 3)
        with pytest.raises(HypergraphError):
            random_hypergraph(5, 3, rank=1)


class TestPrimal:
    def test_primal_graph_of_q0(self):
        h = paper_q0_hypergraph()
        graph = primal_graph(h)
        assert graph.number_of_nodes() == 10
        assert graph.has_edge("A", "B")
        assert graph.has_edge("E", "G")  # co-occur in s5
        assert not graph.has_edge("A", "J")

    def test_treewidth_upper_bound(self):
        assert treewidth_upper_bound(path_hypergraph(4)) <= 2
        assert treewidth_upper_bound(cycle_hypergraph(5)) >= 2
