"""Core hypergraph data structure.

A hypergraph ``H = (V, H)`` is a set of vertices together with a set of
hyperedges, each hyperedge being a non-empty subset of the vertices
(Section 2.1 of the paper).  In the query setting the vertices are the query
variables and each hyperedge is the set of variables of one query atom, so we
follow the paper's notation: ``var(H)`` is the vertex set and ``edges(H)`` the
edge set.

Edges are *named*: two distinct query atoms may share the same variable set,
and the downstream machinery (decompositions, cost functions, relational
plans) must be able to tell them apart.  An edge name is any hashable,
printable identifier -- atom names such as ``"s1"`` in practice.

The class is immutable after construction.  All derived information
(vertex -> edges index, adjacency) is computed once and cached, because the
decomposition algorithms query it heavily.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Sequence, Tuple

from repro.exceptions import HypergraphError

Vertex = str
EdgeName = str


class Hypergraph:
    """An immutable named-edge hypergraph.

    Parameters
    ----------
    edges:
        Mapping from edge name to an iterable of vertices.  Every edge must be
        non-empty.
    vertices:
        Optional explicit vertex universe.  It must be a superset of the union
        of all edges; isolated vertices (vertices in no edge) are allowed but
        unusual, since the paper assumes connected hypergraphs.

    Examples
    --------
    >>> h = Hypergraph({"e1": ["A", "B"], "e2": ["B", "C"]})
    >>> sorted(h.vertices)
    ['A', 'B', 'C']
    >>> h.edge_vertices("e1") == frozenset({"A", "B"})
    True
    """

    __slots__ = ("_edges", "_vertices", "_vertex_to_edges", "_hash", "_bitset")

    def __init__(
        self,
        edges: Mapping[EdgeName, Iterable[Vertex]],
        vertices: Iterable[Vertex] | None = None,
    ) -> None:
        frozen: Dict[EdgeName, FrozenSet[Vertex]] = {}
        for name, verts in edges.items():
            vert_set = frozenset(verts)
            if not vert_set:
                raise HypergraphError(f"edge {name!r} is empty")
            frozen[str(name)] = vert_set
        self._edges: Dict[EdgeName, FrozenSet[Vertex]] = frozen

        covered = frozenset().union(*frozen.values()) if frozen else frozenset()
        if vertices is None:
            self._vertices: FrozenSet[Vertex] = covered
        else:
            universe = frozenset(vertices)
            if not covered <= universe:
                missing = sorted(covered - universe)
                raise HypergraphError(
                    f"edges mention vertices not in the vertex universe: {missing}"
                )
            self._vertices = universe

        index: Dict[Vertex, set] = {v: set() for v in self._vertices}
        for name, vert_set in frozen.items():
            for v in vert_set:
                index[v].add(name)
        self._vertex_to_edges: Dict[Vertex, FrozenSet[EdgeName]] = {
            v: frozenset(names) for v, names in index.items()
        }
        self._hash: int | None = None
        self._bitset = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> FrozenSet[Vertex]:
        """The vertex set ``var(H)``."""
        return self._vertices

    @property
    def edge_names(self) -> Tuple[EdgeName, ...]:
        """Edge names in a deterministic (sorted) order."""
        return tuple(sorted(self._edges))

    def edge_vertices(self, name: EdgeName) -> FrozenSet[Vertex]:
        """Return ``var(h)`` for the edge named ``name``."""
        try:
            return self._edges[name]
        except KeyError as exc:
            raise HypergraphError(f"unknown edge {name!r}") from exc

    def edges_of_vertex(self, vertex: Vertex) -> FrozenSet[EdgeName]:
        """Return the names of all edges containing ``vertex``."""
        try:
            return self._vertex_to_edges[vertex]
        except KeyError as exc:
            raise HypergraphError(f"unknown vertex {vertex!r}") from exc

    def num_vertices(self) -> int:
        return len(self._vertices)

    def num_edges(self) -> int:
        return len(self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[EdgeName]:
        return iter(self.edge_names)

    def __contains__(self, name: object) -> bool:
        return name in self._edges

    # ------------------------------------------------------------------
    # Bitset view
    # ------------------------------------------------------------------
    def bitset(self):
        """The cached :class:`~repro.core.bitset_hypergraph.BitsetHypergraph`
        view of this hypergraph.

        The decomposition core runs its set algebra on the integer masks of
        this view; strings only appear at the API boundary.  The view is
        built lazily, once, and shares the hypergraph's immutability.
        """
        if self._bitset is None:
            from repro.core.bitset_hypergraph import BitsetHypergraph

            self._bitset = BitsetHypergraph(self)
        return self._bitset

    # ------------------------------------------------------------------
    # Derived vertex sets
    # ------------------------------------------------------------------
    def var(self, edge_names: Iterable[EdgeName]) -> FrozenSet[Vertex]:
        """``var(S)`` for a set ``S`` of edge names: the union of their vertices."""
        result: set = set()
        for name in edge_names:
            result |= self.edge_vertices(name)
        return frozenset(result)

    def edges_touching(self, vertex_set: Iterable[Vertex]) -> FrozenSet[EdgeName]:
        """Names of all edges with at least one vertex in ``vertex_set``.

        This is the paper's ``edges(C)`` for a component ``C``.
        """
        wanted = frozenset(vertex_set)
        names = set()
        for v in wanted:
            if v in self._vertex_to_edges:
                names |= self._vertex_to_edges[v]
        return frozenset(names)

    def vertices_of_edges_touching(self, vertex_set: Iterable[Vertex]) -> FrozenSet[Vertex]:
        """``var(edges(C))``: all vertices of edges meeting ``vertex_set``."""
        return self.var(self.edges_touching(vertex_set))

    # ------------------------------------------------------------------
    # Structural helpers
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """True if the hypergraph is connected (every pair of vertices is
        linked by a ``[∅]``-path)."""
        if not self._vertices:
            return True
        # Standard BFS over the "share an edge" adjacency.
        start = next(iter(self._vertices))
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for name in self._vertex_to_edges[v]:
                for u in self._edges[name]:
                    if u not in seen:
                        seen.add(u)
                        frontier.append(u)
        return len(seen) == len(self._vertices)

    def induced(self, vertex_set: Iterable[Vertex]) -> "Hypergraph":
        """The sub-hypergraph ``H[V']`` containing every edge entirely inside
        ``vertex_set`` (Section 7 of the paper)."""
        universe = frozenset(vertex_set)
        sub = {
            name: verts
            for name, verts in self._edges.items()
            if verts <= universe
        }
        return Hypergraph(sub, vertices=universe & self._vertices)

    def restrict_edges(self, edge_names: Iterable[EdgeName]) -> "Hypergraph":
        """A hypergraph containing only the named edges (and their vertices)."""
        chosen = {name: self.edge_vertices(name) for name in edge_names}
        return Hypergraph(chosen)

    def remove_vertices(self, vertex_set: Iterable[Vertex]) -> "Hypergraph":
        """The hypergraph obtained by deleting ``vertex_set`` from every edge.

        Edges that become empty disappear.  Useful when reasoning about
        ``[V]``-connectivity.
        """
        removed = frozenset(vertex_set)
        remaining = {}
        for name, verts in self._edges.items():
            kept = verts - removed
            if kept:
                remaining[name] = kept
        return Hypergraph(remaining, vertices=self._vertices - removed)

    def duplicate_free(self) -> "Hypergraph":
        """Drop edges whose vertex set duplicates (or is contained in) another
        edge's vertex set, keeping one representative per maximal set.

        Decomposition width only depends on the maximal edges, so this is a
        safe and common preprocessing step.
        """
        names_by_size = sorted(self._edges, key=lambda n: (-len(self._edges[n]), n))
        kept: Dict[EdgeName, FrozenSet[Vertex]] = {}
        for name in names_by_size:
            verts = self._edges[name]
            if not any(verts <= other for other in kept.values()):
                kept[name] = verts
        return Hypergraph(kept, vertices=self._vertices)

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self._edges == other._edges and self._vertices == other._vertices

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (frozenset(self._edges.items()), self._vertices)
            )
        return self._hash

    def __repr__(self) -> str:
        return (
            f"Hypergraph(|V|={len(self._vertices)}, |E|={len(self._edges)}, "
            f"edges={list(self.edge_names)[:6]}{'...' if len(self._edges) > 6 else ''})"
        )

    def describe(self) -> str:
        """A human-readable multi-line description of the hypergraph."""
        lines = [f"Hypergraph with {len(self._vertices)} vertices and {len(self._edges)} edges"]
        for name in self.edge_names:
            lines.append(f"  {name}: {{{', '.join(sorted(self._edges[name]))}}}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_list(cls, edge_list: Sequence[Iterable[Vertex]]) -> "Hypergraph":
        """Build a hypergraph from a plain list of vertex collections.

        Edges get synthetic names ``e0, e1, ...`` in list order.
        """
        return cls({f"e{i}": verts for i, verts in enumerate(edge_list)})
