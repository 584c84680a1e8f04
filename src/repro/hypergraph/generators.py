"""Synthetic hypergraph generators.

These produce the structured and random hypergraphs used by the test suite,
the ablation benchmarks and the scalability experiments: acyclic shapes
(paths, stars, trees), canonical cyclic shapes (cycles, grids, cliques) and
random hypergraphs with controlled rank and density.

All generators are deterministic given a ``seed``.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.exceptions import HypergraphError
from repro.hypergraph.hypergraph import Hypergraph


def path_hypergraph(num_edges: int, edge_size: int = 2) -> Hypergraph:
    """A chain of ``num_edges`` edges, consecutive edges sharing one vertex.

    Always α-acyclic; models chain joins ``R1(A0,A1) ⋈ R2(A1,A2) ⋈ ...``.
    """
    if num_edges < 1:
        raise HypergraphError("a path hypergraph needs at least one edge")
    if edge_size < 2:
        raise HypergraphError("edges of a path hypergraph need at least 2 vertices")
    edges: Dict[str, List[str]] = {}
    for i in range(num_edges):
        start = i * (edge_size - 1)
        edges[f"p{i}"] = [f"X{start + j}" for j in range(edge_size)]
    return Hypergraph(edges)


def star_hypergraph(num_rays: int, ray_size: int = 2) -> Hypergraph:
    """A star: one centre vertex shared by ``num_rays`` otherwise-disjoint
    edges.  Always α-acyclic; models star-schema joins."""
    if num_rays < 1:
        raise HypergraphError("a star hypergraph needs at least one ray")
    edges: Dict[str, List[str]] = {}
    for i in range(num_rays):
        edges[f"r{i}"] = ["Hub"] + [f"X{i}_{j}" for j in range(ray_size - 1)]
    return Hypergraph(edges)


def cycle_hypergraph(num_edges: int) -> Hypergraph:
    """A cycle of binary edges ``X0-X1, X1-X2, ..., X_{n-1}-X0``.

    For ``num_edges >= 3`` this is the canonical cyclic hypergraph with
    hypertree width 2.
    """
    if num_edges < 3:
        raise HypergraphError("a cycle needs at least three edges")
    edges = {
        f"c{i}": [f"X{i}", f"X{(i + 1) % num_edges}"]
        for i in range(num_edges)
    }
    return Hypergraph(edges)


def clique_hypergraph(num_vertices: int) -> Hypergraph:
    """All binary edges over ``num_vertices`` vertices (the primal clique).

    Hypertree width grows with the clique size, so these are the hard
    instances for bounded-k decomposition.
    """
    if num_vertices < 2:
        raise HypergraphError("a clique needs at least two vertices")
    edges: Dict[str, List[str]] = {}
    idx = 0
    for i in range(num_vertices):
        for j in range(i + 1, num_vertices):
            edges[f"k{idx}"] = [f"X{i}", f"X{j}"]
            idx += 1
    return Hypergraph(edges)


def grid_hypergraph(rows: int, cols: int) -> Hypergraph:
    """Binary edges of a ``rows × cols`` grid graph."""
    if rows < 1 or cols < 1:
        raise HypergraphError("grid dimensions must be positive")
    edges: Dict[str, List[str]] = {}
    idx = 0
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges[f"g{idx}"] = [f"V{r}_{c}", f"V{r}_{c + 1}"]
                idx += 1
            if r + 1 < rows:
                edges[f"g{idx}"] = [f"V{r}_{c}", f"V{r + 1}_{c}"]
                idx += 1
    return Hypergraph(edges)


def acyclic_hypergraph(num_edges: int, edge_size: int = 3, seed: int = 0) -> Hypergraph:
    """A random α-acyclic hypergraph built top-down along a random tree.

    Each new edge shares a random non-empty subset of an existing edge's
    vertices and adds fresh vertices, which keeps a running join tree and thus
    guarantees acyclicity.
    """
    if num_edges < 1:
        raise HypergraphError("need at least one edge")
    rng = random.Random(seed)
    edges: Dict[str, List[str]] = {"a0": [f"X{j}" for j in range(edge_size)]}
    fresh = edge_size
    for i in range(1, num_edges):
        parent = rng.choice(sorted(edges))
        parent_vertices = edges[parent]
        share = rng.randint(1, max(1, min(len(parent_vertices), edge_size - 1)))
        shared = rng.sample(sorted(parent_vertices), share)
        new_vertices = [f"X{fresh + j}" for j in range(edge_size - share)]
        fresh += edge_size - share
        edges[f"a{i}"] = shared + new_vertices
    return Hypergraph(edges)


def random_hypergraph(
    num_vertices: int,
    num_edges: int,
    rank: int = 3,
    seed: int = 0,
    connected: bool = True,
) -> Hypergraph:
    """A random hypergraph with ``num_edges`` edges of size ``<= rank``.

    When ``connected`` is requested (the default, matching the paper's
    standing assumption) the generator first lays down a random spanning
    structure so that the result is connected, then adds random edges.
    """
    if num_vertices < 1 or num_edges < 1:
        raise HypergraphError("need at least one vertex and one edge")
    if rank < 2:
        raise HypergraphError("rank must be at least 2")
    rng = random.Random(seed)
    vertices = [f"X{i}" for i in range(num_vertices)]
    edges: Dict[str, List[str]] = {}
    idx = 0

    if connected and num_vertices > 1:
        order = vertices[:]
        rng.shuffle(order)
        reached = [order[0]]
        for v in order[1:]:
            anchor = rng.choice(reached)
            size = rng.randint(2, rank)
            extra = [u for u in rng.sample(vertices, min(size, num_vertices)) if u not in (anchor, v)]
            edges[f"e{idx}"] = [anchor, v] + extra[: size - 2]
            reached.append(v)
            idx += 1
            if idx >= num_edges:
                break

    while idx < num_edges:
        size = rng.randint(2, rank)
        edges[f"e{idx}"] = rng.sample(vertices, min(size, num_vertices))
        idx += 1
    return Hypergraph(edges)


def paper_q0_hypergraph() -> Hypergraph:
    """The hypergraph ``H(Q0)`` of the paper's introductory example (Fig. 1).

    ``Q0: ans ← s1(A,B,D) ∧ s2(B,C,D) ∧ s3(B,E) ∧ s4(D,G) ∧ s5(E,F,G)
    ∧ s6(E,H) ∧ s7(F,I) ∧ s8(G,J)``
    """
    return Hypergraph(
        {
            "s1": ["A", "B", "D"],
            "s2": ["B", "C", "D"],
            "s3": ["B", "E"],
            "s4": ["D", "G"],
            "s5": ["E", "F", "G"],
            "s6": ["E", "H"],
            "s7": ["F", "I"],
            "s8": ["G", "J"],
        }
    )
