"""α-acyclicity, GYO reduction and join-tree construction.

The paper uses the classical characterisation (Beeri, Fagin, Maier,
Yannakakis): a hypergraph is α-acyclic iff it has a *join tree*, i.e. a tree
whose nodes are the hyperedges such that for every variable ``X`` the set of
nodes containing ``X`` induces a connected subtree (the Connectedness
Condition).

We implement the standard **GYO reduction** (Graham / Yu–Ozsoyoglu):
repeatedly

1. delete a vertex that occurs in exactly one edge (an "ear vertex"), and
2. delete an edge that is contained in another edge,

until nothing changes.  The hypergraph is α-acyclic iff the reduction ends
with at most one (possibly empty) edge.  Recording *which* edge absorbs each
deleted edge yields a join tree.

Acyclic hypergraphs are exactly the hypergraphs of hypertree width 1
(Section 2.1), and the join tree doubles as a width-1 hypertree
decomposition; that bridge lives in :mod:`repro.decomposition.join_tree`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.exceptions import HypergraphError
from repro.hypergraph.hypergraph import EdgeName, Hypergraph, Vertex


@dataclass
class JoinTree:
    """A join tree for an α-acyclic hypergraph.

    Attributes
    ----------
    root:
        Name of the root edge.
    children:
        Mapping parent edge name -> tuple of child edge names.  Every edge of
        the hypergraph appears exactly once as a node.
    hypergraph:
        The hypergraph the tree belongs to.
    """

    root: EdgeName
    children: Dict[EdgeName, Tuple[EdgeName, ...]]
    hypergraph: Hypergraph

    # ------------------------------------------------------------------
    def nodes(self) -> Tuple[EdgeName, ...]:
        """All node names (edges of the hypergraph), root first, in BFS order."""
        order: List[EdgeName] = [self.root]
        i = 0
        while i < len(order):
            order.extend(self.children.get(order[i], ()))
            i += 1
        return tuple(order)

    def parent_map(self) -> Dict[EdgeName, Optional[EdgeName]]:
        """Mapping node -> parent (root maps to ``None``)."""
        parents: Dict[EdgeName, Optional[EdgeName]] = {self.root: None}
        for parent, kids in self.children.items():
            for kid in kids:
                parents[kid] = parent
        return parents

    def edges(self) -> Tuple[Tuple[EdgeName, EdgeName], ...]:
        """All (parent, child) pairs."""
        pairs: List[Tuple[EdgeName, EdgeName]] = []
        for parent, kids in self.children.items():
            for kid in kids:
                pairs.append((parent, kid))
        return tuple(pairs)

    def post_order(self) -> Tuple[EdgeName, ...]:
        """Nodes in post-order (children before parents)."""
        result: List[EdgeName] = []

        def visit(node: EdgeName) -> None:
            for kid in self.children.get(node, ()):
                visit(kid)
            result.append(node)

        visit(self.root)
        return tuple(result)

    def satisfies_connectedness(self) -> bool:
        """Check the Connectedness Condition of join trees."""
        parents = self.parent_map()
        nodes = self.nodes()
        if set(nodes) != set(self.hypergraph.edge_names):
            return False
        for vertex in self.hypergraph.vertices:
            holders = [n for n in nodes if vertex in self.hypergraph.edge_vertices(n)]
            if not holders:
                return False
            holder_set = set(holders)
            # The nodes containing ``vertex`` must induce a connected subtree:
            # each holder except one must have its parent inside the holder set
            # when we restrict the tree to the holders' minimal subtree. The
            # standard check: count holders whose parent is not a holder; the
            # subtree is connected iff exactly one such "top" holder exists.
            tops = [n for n in holders if parents[n] not in holder_set]
            if len(tops) != 1:
                return False
        return True


@dataclass
class GYOTrace:
    """The step-by-step record of a GYO reduction.

    ``removed_vertices`` lists (vertex, witness edge) pairs in removal order;
    ``absorbed_edges`` lists (edge, absorbing edge) pairs.  ``residual`` holds
    the edge names that survive the reduction (at most one for an acyclic
    hypergraph).
    """

    removed_vertices: List[Tuple[Vertex, EdgeName]] = field(default_factory=list)
    absorbed_edges: List[Tuple[EdgeName, EdgeName]] = field(default_factory=list)
    residual: List[EdgeName] = field(default_factory=list)

    @property
    def acyclic(self) -> bool:
        return len(self.residual) <= 1


def gyo_reduction(hypergraph: Hypergraph) -> GYOTrace:
    """Run the GYO ear-removal reduction and return its trace."""
    # Work on mutable copies of the edge sets.
    edges: Dict[EdgeName, Set[Vertex]] = {
        name: set(hypergraph.edge_vertices(name)) for name in hypergraph.edge_names
    }
    trace = GYOTrace()

    changed = True
    while changed:
        changed = False

        # Rule 1: remove vertices occurring in exactly one edge.
        occurrence: Dict[Vertex, List[EdgeName]] = {}
        for name, verts in edges.items():
            for v in verts:
                occurrence.setdefault(v, []).append(name)
        for vertex, holders in occurrence.items():
            if len(holders) == 1:
                edges[holders[0]].discard(vertex)
                trace.removed_vertices.append((vertex, holders[0]))
                changed = True

        # Rule 2: remove edges contained in other edges (empty edges are
        # contained in anything that remains).
        names = sorted(edges, key=lambda n: (len(edges[n]), n))
        for name in names:
            verts = edges[name]
            for other in edges:
                if other == name:
                    continue
                if verts <= edges[other]:
                    trace.absorbed_edges.append((name, other))
                    del edges[name]
                    changed = True
                    break
            if changed and name not in edges:
                # Restart the containment scan: deleting an edge can unlock
                # further rule-1 removals first.
                break

    trace.residual = sorted(edges)
    return trace


def is_acyclic(hypergraph: Hypergraph) -> bool:
    """True iff the hypergraph is α-acyclic."""
    if hypergraph.num_edges() == 0:
        return True
    return gyo_reduction(hypergraph).acyclic


def build_join_tree(hypergraph: Hypergraph) -> JoinTree:
    """Construct a join tree for an α-acyclic hypergraph.

    Raises
    ------
    HypergraphError
        If the hypergraph is cyclic (no join tree exists).

    Notes
    -----
    The GYO trace gives, for every absorbed edge, the edge that absorbed it.
    Attaching each absorbed edge as a child of its absorber yields a join
    tree: the absorber contains every vertex the absorbed edge shares with the
    rest of the hypergraph at absorption time, which is exactly what the
    Connectedness Condition needs.
    """
    if hypergraph.num_edges() == 0:
        raise HypergraphError("cannot build a join tree of an edgeless hypergraph")
    trace = gyo_reduction(hypergraph)
    if not trace.acyclic:
        raise HypergraphError(
            "hypergraph is cyclic; no join tree exists "
            f"(residual edges after GYO: {trace.residual})"
        )

    absorbed_by = dict(trace.absorbed_edges)
    if trace.residual:
        root = trace.residual[0]
    else:
        # Every edge got absorbed; the last absorber in the trace is a valid
        # root (it absorbed the final survivor's duplicates).
        root = trace.absorbed_edges[-1][1]

    children: Dict[EdgeName, List[EdgeName]] = {name: [] for name in hypergraph.edge_names}
    for child, parent in absorbed_by.items():
        if child == root:
            continue
        children[parent].append(child)

    # Some edges may have been absorbed into an edge that was itself absorbed;
    # that's fine (the structure is still a tree rooted at ``root``) as long as
    # every non-root node has exactly one parent, which ``absorbed_by``
    # guarantees.  Ensure every edge is reachable from the root.
    tree = JoinTree(
        root=root,
        children={name: tuple(sorted(kids)) for name, kids in children.items()},
        hypergraph=hypergraph,
    )
    reachable = set(tree.nodes())
    missing = set(hypergraph.edge_names) - reachable
    if missing:
        raise HypergraphError(
            f"internal error: join-tree construction lost edges {sorted(missing)}"
        )
    return tree


def all_join_trees(hypergraph: Hypergraph, limit: int | None = None) -> List[JoinTree]:
    """Enumerate join trees of a (small) acyclic hypergraph.

    The class ``JT_H`` of the paper (Theorem 3.3) is the set of *all* join
    trees; its size can be exponential, so ``limit`` caps the enumeration.
    Enumeration works by choosing, for every edge except a designated root,
    a parent among the edges that contain its projection onto the rest of the
    hypergraph -- a sufficient condition for the Connectedness Condition which
    we then verify exactly.
    """
    if not is_acyclic(hypergraph):
        return []
    names = list(hypergraph.edge_names)
    results: List[JoinTree] = []

    def verify_and_add(root: EdgeName, parent_of: Dict[EdgeName, EdgeName]) -> None:
        children: Dict[EdgeName, List[EdgeName]] = {n: [] for n in names}
        for child, parent in parent_of.items():
            children[parent].append(child)
        tree = JoinTree(
            root=root,
            children={n: tuple(sorted(k)) for n, k in children.items()},
            hypergraph=hypergraph,
        )
        if set(tree.nodes()) == set(names) and tree.satisfies_connectedness():
            results.append(tree)

    def backtrack(root: EdgeName, remaining: List[EdgeName], parent_of: Dict[EdgeName, EdgeName]) -> None:
        if limit is not None and len(results) >= limit:
            return
        if not remaining:
            verify_and_add(root, dict(parent_of))
            return
        edge = remaining[0]
        rest = remaining[1:]
        for candidate in names:
            if candidate == edge:
                continue
            parent_of[edge] = candidate
            backtrack(root, rest, parent_of)
            del parent_of[edge]
            if limit is not None and len(results) >= limit:
                return

    for root in names:
        others = [n for n in names if n != root]
        backtrack(root, others, {})
        if limit is not None and len(results) >= limit:
            break
    return results
