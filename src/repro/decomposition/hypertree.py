"""Hypertree decompositions (Definition 2.1) as a concrete data structure.

A hypertree for a hypergraph ``H`` is a triple ``⟨T, χ, λ⟩`` where ``T`` is a
rooted tree and ``χ``/``λ`` label every tree node with a set of variables /
a set of hyperedges.  A hypertree *decomposition* additionally satisfies the
four conditions of Definition 2.1:

1. every hyperedge is covered by the χ label of some node;
2. for every variable, the nodes whose χ label contains it induce a connected
   subtree (the Connectedness Condition);
3. ``χ(p) ⊆ var(λ(p))`` for every node ``p``;
4. ``var(λ(p)) ∩ χ(T_p) ⊆ χ(p)`` for every node ``p`` (the "descendant"
   condition).

The width is ``max_p |λ(p)|``.  A decomposition is *complete* when every
hyperedge is *strongly* covered: some node has the edge in its λ label and
all of the edge's variables in its χ label.

The class below is deliberately explicit: nodes are integer ids, the tree is
an adjacency map, and every paper condition has its own checking method so
tests (and users) can see exactly which condition a malformed decomposition
violates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import DecompositionError
from repro.hypergraph.hypergraph import EdgeName, Hypergraph, Vertex

NodeId = int


@dataclass(frozen=True)
class DecompositionNode:
    """One vertex of a hypertree: its ``λ`` and ``χ`` labels.

    ``component`` optionally records the [parent]-component the node was
    created to decompose (``treecomp`` in Section 7 of the paper); algorithms
    that build decompositions bottom-up fill it in, hand-built decompositions
    may leave it ``None``.
    """

    node_id: NodeId
    lambda_edges: FrozenSet[EdgeName]
    chi: FrozenSet[Vertex]
    component: Optional[FrozenSet[Vertex]] = None

    @property
    def width(self) -> int:
        return len(self.lambda_edges)

    def __str__(self) -> str:
        lam = ", ".join(sorted(self.lambda_edges))
        chi = ", ".join(sorted(self.chi))
        return f"node {self.node_id}: λ={{{lam}}} χ={{{chi}}}"


class HypertreeDecomposition:
    """A rooted, labelled hypertree for a hypergraph.

    Construction does *not* verify the decomposition conditions (algorithms
    build valid trees by construction, and tests want to build invalid ones
    on purpose); call :meth:`validate` / :meth:`is_valid` to check them.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        root: NodeId,
        children: Mapping[NodeId, Sequence[NodeId]],
        nodes: Mapping[NodeId, DecompositionNode],
    ) -> None:
        self.hypergraph = hypergraph
        self.root = root
        self._children: Dict[NodeId, Tuple[NodeId, ...]] = {
            node_id: tuple(kids) for node_id, kids in children.items()
        }
        self._nodes: Dict[NodeId, DecompositionNode] = dict(nodes)

        if root not in self._nodes:
            raise DecompositionError(f"root {root} has no node record")
        for node_id in self._nodes:
            self._children.setdefault(node_id, ())
        for parent, kids in self._children.items():
            if parent not in self._nodes:
                raise DecompositionError(f"tree mentions unknown node {parent}")
            for kid in kids:
                if kid not in self._nodes:
                    raise DecompositionError(f"tree mentions unknown node {kid}")

        self._parents: Dict[NodeId, Optional[NodeId]] = {root: None}
        order: List[NodeId] = [root]
        seen = {root}
        i = 0
        while i < len(order):
            current = order[i]
            i += 1
            for kid in self._children[current]:
                if kid in seen:
                    raise DecompositionError(
                        f"node {kid} reachable twice; the decomposition is not a tree"
                    )
                seen.add(kid)
                self._parents[kid] = current
                order.append(kid)
        if seen != set(self._nodes):
            unreachable = sorted(set(self._nodes) - seen)
            raise DecompositionError(f"nodes unreachable from the root: {unreachable}")
        self._bfs_order: Tuple[NodeId, ...] = tuple(order)

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    def node(self, node_id: NodeId) -> DecompositionNode:
        return self._nodes[node_id]

    def nodes(self) -> Tuple[DecompositionNode, ...]:
        """All nodes, root first, in BFS order."""
        return tuple(self._nodes[i] for i in self._bfs_order)

    def node_ids(self) -> Tuple[NodeId, ...]:
        return self._bfs_order

    def children(self, node_id: NodeId) -> Tuple[NodeId, ...]:
        return self._children[node_id]

    def parent(self, node_id: NodeId) -> Optional[NodeId]:
        return self._parents[node_id]

    def tree_edges(self) -> Tuple[Tuple[NodeId, NodeId], ...]:
        """All (parent, child) pairs."""
        pairs: List[Tuple[NodeId, NodeId]] = []
        for parent in self._bfs_order:
            for kid in self._children[parent]:
                pairs.append((parent, kid))
        return tuple(pairs)

    def subtree_ids(self, node_id: NodeId) -> Tuple[NodeId, ...]:
        """Ids of the subtree rooted at ``node_id`` (the paper's ``T_p``)."""
        order = [node_id]
        i = 0
        while i < len(order):
            order.extend(self._children[order[i]])
            i += 1
        return tuple(order)

    def chi_of_subtree(self, node_id: NodeId) -> FrozenSet[Vertex]:
        """``χ(T_p)``: the union of χ labels over the subtree at ``node_id``."""
        result: set = set()
        for sub_id in self.subtree_ids(node_id):
            result |= self._nodes[sub_id].chi
        return frozenset(result)

    def post_order(self) -> Tuple[NodeId, ...]:
        result: List[NodeId] = []

        def visit(node_id: NodeId) -> None:
            for kid in self._children[node_id]:
                visit(kid)
            result.append(node_id)

        visit(self.root)
        return tuple(result)

    def num_nodes(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """``max_p |λ(p)|``."""
        return max(node.width for node in self._nodes.values())

    def width_histogram(self) -> Dict[int, int]:
        """How many nodes have each λ-label cardinality (used by the
        lexicographic weighting function of Example 3.1)."""
        histogram: Dict[int, int] = {}
        for node in self._nodes.values():
            histogram[node.width] = histogram.get(node.width, 0) + 1
        return histogram

    # ------------------------------------------------------------------
    # Definition 2.1 conditions
    # ------------------------------------------------------------------
    def covers_all_edges(self) -> bool:
        """Condition 1: every hyperedge is contained in some χ label."""
        return not self.uncovered_edges()

    def uncovered_edges(self) -> Tuple[EdgeName, ...]:
        uncovered = []
        for name in self.hypergraph.edge_names:
            verts = self.hypergraph.edge_vertices(name)
            if not any(verts <= node.chi for node in self._nodes.values()):
                uncovered.append(name)
        return tuple(uncovered)

    def satisfies_connectedness(self) -> bool:
        """Condition 2: for each variable the χ-holders induce a subtree."""
        return not self.connectedness_violations()

    def connectedness_violations(self) -> Tuple[Vertex, ...]:
        violations = []
        for vertex in self.hypergraph.vertices:
            holders = {
                node_id for node_id, node in self._nodes.items() if vertex in node.chi
            }
            if not holders:
                continue
            tops = [n for n in holders if self._parents[n] not in holders]
            if len(tops) != 1:
                violations.append(vertex)
        return tuple(violations)

    def satisfies_chi_covered_by_lambda(self) -> bool:
        """Condition 3: ``χ(p) ⊆ var(λ(p))`` for every node."""
        return not self.chi_violations()

    def chi_violations(self) -> Tuple[Tuple[NodeId, FrozenSet[Vertex]], ...]:
        """Per offending node ``p``: ``(p, χ(p) − var(λ(p)))``."""
        violations = []
        for node_id, node in self._nodes.items():
            extra = node.chi - self.hypergraph.var(node.lambda_edges)
            if extra:
                violations.append((node_id, extra))
        return tuple(violations)

    def satisfies_descendant_condition(self) -> bool:
        """Condition 4: ``var(λ(p)) ∩ χ(T_p) ⊆ χ(p)`` for every node."""
        return not self.descendant_violations()

    def descendant_violations(self) -> Tuple[Tuple[NodeId, FrozenSet[Vertex]], ...]:
        """Per offending node ``p``: ``(p, var(λ(p)) ∩ χ(T_p))``."""
        violations = []
        for node_id, node in self._nodes.items():
            lam_vars = self.hypergraph.var(node.lambda_edges)
            below = lam_vars & self.chi_of_subtree(node_id)
            if not below <= node.chi:
                violations.append((node_id, below))
        return tuple(violations)

    def is_valid(self) -> bool:
        """True iff all four conditions of Definition 2.1 hold."""
        return (
            self.covers_all_edges()
            and self.satisfies_connectedness()
            and self.satisfies_chi_covered_by_lambda()
            and self.satisfies_descendant_condition()
        )

    def validate(self) -> None:
        """Raise :class:`DecompositionError` describing the first violated
        condition, if any."""
        uncovered = self.uncovered_edges()
        if uncovered:
            raise DecompositionError(
                f"condition 1 violated: edges not covered by any χ label: {list(uncovered)}"
            )
        violations = self.connectedness_violations()
        if violations:
            raise DecompositionError(
                f"condition 2 (connectedness) violated for variables: {list(violations)}"
            )
        for node_id, extra in self.chi_violations():
            raise DecompositionError(
                f"condition 3 violated at node {node_id}: "
                f"{sorted(extra)} in χ(p) but not in var(λ(p))"
            )
        for node_id, below in self.descendant_violations():
            raise DecompositionError(
                f"condition 4 violated at node {node_id}: var(λ(p)) ∩ χ(T_p) = "
                f"{sorted(below)} ⊄ χ(p) = {sorted(self._nodes[node_id].chi)}"
            )

    # ------------------------------------------------------------------
    # Strong covering / completeness (Definition 2.1, last paragraph)
    # ------------------------------------------------------------------
    def strongly_covering_node(self, edge_name: EdgeName) -> Optional[NodeId]:
        """A node that strongly covers the edge, or ``None``."""
        verts = self.hypergraph.edge_vertices(edge_name)
        for node_id, node in self._nodes.items():
            if edge_name in node.lambda_edges and verts <= node.chi:
                return node_id
        return None

    def not_strongly_covered(self) -> Tuple[EdgeName, ...]:
        """The hyperedges no node strongly covers."""
        return tuple(
            name
            for name in self.hypergraph.edge_names
            if self.strongly_covering_node(name) is None
        )

    def is_complete(self) -> bool:
        """True iff every hyperedge is strongly covered."""
        return not self.not_strongly_covered()

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """An indented, human-readable rendering of the decomposition."""
        lines = [
            f"Hypertree decomposition of width {self.width} "
            f"({self.num_nodes()} nodes)"
        ]

        def visit(node_id: NodeId, depth: int) -> None:
            node = self._nodes[node_id]
            lam = ", ".join(sorted(node.lambda_edges))
            chi = ", ".join(sorted(node.chi))
            lines.append(f"{'  ' * (depth + 1)}λ={{{lam}}}  χ={{{chi}}}")
            for kid in self._children[node_id]:
                visit(kid, depth + 1)

        visit(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"HypertreeDecomposition(width={self.width}, nodes={self.num_nodes()}, "
            f"hypergraph={self.hypergraph!r})"
        )

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        hypergraph: Hypergraph,
        structure: Mapping[NodeId, Sequence[NodeId]],
        lambdas: Mapping[NodeId, Iterable[EdgeName]],
        chis: Mapping[NodeId, Iterable[Vertex]],
        root: NodeId = 0,
    ) -> "HypertreeDecomposition":
        """Assemble a decomposition from plain dicts (used in tests and by the
        paper-figure reconstructions).  ``root`` defaults to node 0."""
        nodes = {
            node_id: DecompositionNode(
                node_id=node_id,
                lambda_edges=frozenset(lambdas[node_id]),
                chi=frozenset(chis[node_id]),
            )
            for node_id in lambdas
        }
        return cls(hypergraph=hypergraph, root=root, children=structure, nodes=nodes)
