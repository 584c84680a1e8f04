"""Primal (Gaifman) graph of a hypergraph.

The primal graph of a hypergraph has the same vertices and an edge between two
vertices whenever they co-occur in some hyperedge.  Graph-based structural
methods (biconnected components, tree decompositions) operate on this graph;
the paper compares hypertree decompositions against them in Section 1.1.

We keep this module thin: :mod:`networkx` provides the graph algorithms, and
we only add the translation plus a treewidth upper bound.
"""

from __future__ import annotations

import networkx as nx

from repro.hypergraph.hypergraph import Hypergraph


def primal_graph(hypergraph: Hypergraph) -> nx.Graph:
    """The Gaifman graph of the hypergraph as a :class:`networkx.Graph`."""
    graph = nx.Graph()
    graph.add_nodes_from(hypergraph.vertices)
    for name in hypergraph.edge_names:
        verts = sorted(hypergraph.edge_vertices(name))
        for i, u in enumerate(verts):
            for v in verts[i + 1:]:
                graph.add_edge(u, v)
    return graph


def treewidth_upper_bound(hypergraph: Hypergraph) -> int:
    """A treewidth upper bound of the primal graph (min-fill heuristic).

    Used only for reporting/workload characterisation; hypertree width is the
    measure the paper optimises.
    """
    graph = primal_graph(hypergraph)
    if graph.number_of_nodes() == 0:
        return 0
    width, _ = nx.algorithms.approximation.treewidth_min_fill_in(graph)
    return width
