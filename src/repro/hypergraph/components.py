"""``[V]``-connectivity: adjacency, paths and components.

Section 2.2 of the paper defines, for a hypergraph ``H`` and a set of
variables ``V ⊆ var(H)``:

* ``X`` is **[V]-adjacent** to ``Y`` if some edge ``h`` has
  ``{X, Y} ⊆ h - V``;
* a **[V]-path** is a sequence of pairwise-[V]-adjacent variables;
* a set ``W`` is **[V]-connected** if every pair of its variables is linked by
  a [V]-path;
* a **[V]-component** is a maximal [V]-connected non-empty subset of
  ``var(H) - V``.

Components drive both the normal form (Definition 2.2) and the candidates
graph of minimal-k-decomp, so this module is a thin string-boundary wrapper
around the bitset core (:mod:`repro.core`): :func:`components` is a single
edge-BFS over integer masks, memoised per separator mask inside
:class:`~repro.core.bitset_hypergraph.BitsetHypergraph`, and the resulting
component frozensets are interned, so asking for the same separator twice is
a cache hit end to end.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.hypergraph.hypergraph import EdgeName, Hypergraph, Vertex


def is_adjacent(
    hypergraph: Hypergraph, x: Vertex, y: Vertex, separator: Iterable[Vertex]
) -> bool:
    """True iff ``x`` is [separator]-adjacent to ``y``."""
    sep = frozenset(separator)
    if x in sep or y in sep:
        return False
    for name in hypergraph.edges_of_vertex(x):
        remaining = hypergraph.edge_vertices(name) - sep
        if x in remaining and y in remaining:
            return True
    return False


def find_path(
    hypergraph: Hypergraph,
    source: Vertex,
    target: Vertex,
    separator: Iterable[Vertex],
) -> List[Vertex] | None:
    """A [separator]-path from ``source`` to ``target``, or ``None``.

    The path is returned as a list of vertices ``source = X0, ..., Xl = target``
    with consecutive vertices [separator]-adjacent.  A vertex is trivially
    connected to itself (a length-0 path) provided it is outside the
    separator.  The BFS expands neighbourhoods lazily from the bitset view
    instead of materialising the full adjacency map.
    """
    bitset = hypergraph.bitset()
    sep = bitset.vertex_mask(separator)
    vocab = bitset.vertices
    if source not in vocab or target not in vocab:
        return None
    source_bit = vocab.bit(source)
    target_bit = vocab.bit(target)
    if (source_bit | target_bit) & sep:
        return None
    if source == target:
        return [source]

    edge_masks = bitset.edge_masks
    vertex_edges = bitset.vertex_edges
    not_sep = bitset.all_vertices & ~sep
    parents: Dict[int, int] = {source_bit: source_bit}
    visited = source_bit
    frontier = [source_bit]
    while frontier:
        new_frontier: List[int] = []
        for bit in frontier:
            edges = vertex_edges[bit.bit_length() - 1]
            neighbours = 0
            while edges:
                edge_bit = edges & -edges
                neighbours |= edge_masks[edge_bit.bit_length() - 1]
                edges ^= edge_bit
            neighbours &= not_sep & ~visited
            visited |= neighbours
            while neighbours:
                next_bit = neighbours & -neighbours
                neighbours ^= next_bit
                parents[next_bit] = bit
                if next_bit == target_bit:
                    path_bits = [next_bit]
                    while path_bits[-1] != source_bit:
                        path_bits.append(parents[path_bits[-1]])
                    path_bits.reverse()
                    return [vocab.name_of(b.bit_length() - 1) for b in path_bits]
                new_frontier.append(next_bit)
        frontier = new_frontier
    return None


def is_connected_set(
    hypergraph: Hypergraph, vertex_set: Iterable[Vertex], separator: Iterable[Vertex]
) -> bool:
    """True iff ``vertex_set`` is [separator]-connected."""
    bitset = hypergraph.bitset()
    names = frozenset(vertex_set)
    if not names:
        return True
    if any(name not in bitset.vertices for name in names):
        return False  # an unknown vertex lies on no [separator]-path
    wanted = bitset.vertex_mask(names, strict=True)
    sep = bitset.vertex_mask(separator)
    if wanted & sep:
        return False
    return any(
        not wanted & ~component for component in bitset.components(sep)
    )


def components(
    hypergraph: Hypergraph, separator: Iterable[Vertex]
) -> Tuple[FrozenSet[Vertex], ...]:
    """All [separator]-components of the hypergraph.

    Returned as a tuple of frozensets, sorted by their smallest vertex so the
    result is deterministic.  Components are maximal [separator]-connected
    subsets of ``var(H) - separator``; by definition, the empty set is never a
    component.
    """
    bitset = hypergraph.bitset()
    sep = bitset.vertex_mask(separator)
    return tuple(
        bitset.vertex_names(component) for component in bitset.components(sep)
    )


def component_of(
    hypergraph: Hypergraph, vertex: Vertex, separator: Iterable[Vertex]
) -> FrozenSet[Vertex]:
    """The [separator]-component containing ``vertex`` (which must lie outside
    the separator)."""
    bitset = hypergraph.bitset()
    if vertex in bitset.vertices:
        sep = bitset.vertex_mask(separator)
        component = bitset.component_of(bitset.vertices.bit(vertex), sep)
        if component:
            return bitset.vertex_names(component)
    raise ValueError(f"vertex {vertex!r} lies inside the separator or is unknown")


def edges_of_component(
    hypergraph: Hypergraph, component: Iterable[Vertex]
) -> FrozenSet[EdgeName]:
    """``edges(C)``: all edges having at least one vertex in the component."""
    return hypergraph.edges_touching(component)


def component_frontier(
    hypergraph: Hypergraph, component: Iterable[Vertex]
) -> FrozenSet[Vertex]:
    """``var(edges(C))``: the component plus its boundary vertices."""
    return hypergraph.vertices_of_edges_touching(component)


def components_under_edge_set(
    hypergraph: Hypergraph, edge_names: Iterable[EdgeName]
) -> Tuple[FrozenSet[Vertex], ...]:
    """The [var(S)]-components for a set ``S`` of edges.

    A name-level view of the separators ``var(S)`` of Section 4; the
    candidates graph computes the same components on masks
    (``BitsetHypergraph.components``) and does not call this.
    """
    bitset = hypergraph.bitset()
    separator = bitset.var_of_edges(bitset.edge_mask(edge_names))
    return tuple(
        bitset.vertex_names(component)
        for component in bitset.components(separator)
    )


def sub_components(
    hypergraph: Hypergraph,
    separator: Iterable[Vertex],
    inside: Iterable[Vertex],
) -> Tuple[FrozenSet[Vertex], ...]:
    """The [separator]-components that are subsets of ``inside``.

    This is the set ``C = {C' | C' is a [var(S)]-component and C' ⊆ C}`` used
    by minimal-k-decomp and threshold-k-decomp when expanding a subproblem.
    """
    bitset = hypergraph.bitset()
    sep = bitset.vertex_mask(separator)
    region = bitset.vertex_mask(inside)
    return tuple(
        bitset.vertex_names(component)
        for component in bitset.components(sep)
        if not component & ~region
    )
