"""The Theorem 5.1 reduction: acyclic BCQ evaluation → weighted NF decompositions.

Theorem 5.1 shows LOGCFL-hardness of the threshold problem for smooth TAFs by
reducing the (LOGCFL-complete) evaluation of an acyclic Boolean conjunctive
query ``Q`` over a database ``DB`` to the question "is there a normal-form
decomposition of weight ≤ 0?".

The construction builds a hypergraph ``H`` whose variables are the query
variables plus one variable per database tuple, and whose hyperedges are

* ``h_i  = X̄_i ∪ R_i``  (one per query atom ``s_i``: the atom's variables
  together with *all* tuple variables of its relation), and
* ``h_ij = X̄_i ∪ {T_j}`` (one per tuple ``T_j ∈ R_i``: the atom's variables
  together with that tuple's variable),

and a smooth TAF ``F^{+,v,e}`` with

* ``v(p) = max(|λ(p)| - 1, |var(λ(p)) - χ(p)|)`` (0 exactly for singleton-λ
  nodes of the form ``h_i`` or ``h_ij`` whose χ equals their variables), and
* ``e(r, s) = 0`` iff the two nodes encode matching tuple choices, or a tuple
  choice next to its atom's "all tuples" node; 1 otherwise.

Then the minimum weight over ``kNFD_H`` is 0 iff ``Q`` is true on ``DB``.
We implement the construction and, for testing, the decoding of a weight-0
decomposition back into a satisfying assignment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.db.database import Database
from repro.decomposition.hypertree import DecompositionNode, HypertreeDecomposition
from repro.exceptions import ReproError
from repro.hypergraph.hypergraph import Hypergraph
from repro.query.conjunctive import ConjunctiveQuery
from repro.weights.semiring import SUM_MIN
from repro.weights.taf import TreeAggregationFunction


class BCQReduction:
    """The Theorem 5.1 construction for one (acyclic) query/database pair."""

    def __init__(self, query: ConjunctiveQuery, database: Database) -> None:
        if not query.is_boolean:
            raise ReproError("the Theorem 5.1 reduction applies to Boolean queries")
        self.query = query
        self.database = database

        #: tuple variable name -> (atom name, row)
        self.tuple_rows: Dict[str, Tuple[str, tuple]] = {}
        #: atom name -> list of its tuple variable names
        self.tuples_of_atom: Dict[str, List[str]] = {}

        edges: Dict[str, List[str]] = {}
        for atom in query.atoms:
            bound = database.bind_atom(atom)
            atom_vars = list(atom.variables)
            tuple_vars: List[str] = []
            for index, row in enumerate(sorted(bound.rows)):
                tuple_var = f"T_{atom.name}_{index}"
                self.tuple_rows[tuple_var] = (atom.name, row)
                tuple_vars.append(tuple_var)
                edges[f"h_{atom.name}_{index}"] = atom_vars + [tuple_var]
            self.tuples_of_atom[atom.name] = tuple_vars
            edges[f"h_{atom.name}"] = atom_vars + tuple_vars
        self.hypergraph = Hypergraph(edges)
        #: variable name order of each atom's bound relation (for matching).
        self._bound_attributes = {
            atom.name: database.bind_atom(atom).attributes for atom in query.atoms
        }

    # ------------------------------------------------------------------
    def _binding_of(self, tuple_var: str) -> Dict[str, object]:
        """The variable -> value binding a tuple variable stands for."""
        atom_name, row = self.tuple_rows[tuple_var]
        return dict(zip(self._bound_attributes[atom_name], row))

    def _node_kind(self, node: DecompositionNode) -> Optional[Tuple[str, Optional[str]]]:
        """Classify a node: ``(atom, tuple_var)`` for an ``h_ij`` node,
        ``(atom, None)`` for an ``h_i`` node, ``None`` otherwise."""
        if len(node.lambda_edges) != 1:
            return None
        edge_name = next(iter(node.lambda_edges))
        if not edge_name.startswith("h_"):
            return None
        remainder = edge_name[2:]
        for atom in self.query.atoms:
            if remainder == atom.name:
                return (atom.name, None)
            prefix = f"{atom.name}_"
            if remainder.startswith(prefix):
                index = remainder[len(prefix):]
                tuple_var = f"T_{atom.name}_{index}"
                if tuple_var in self.tuple_rows:
                    return (atom.name, tuple_var)
        return None

    # ------------------------------------------------------------------
    def taf(self) -> TreeAggregationFunction:
        """The smooth TAF ``F^{+,v,e}`` of the proof."""
        hypergraph = self.hypergraph

        def vertex_weight(node: DecompositionNode) -> float:
            lambda_size_penalty = len(node.lambda_edges) - 1
            uncovered = len(hypergraph.var(node.lambda_edges) - node.chi)
            return float(max(lambda_size_penalty, uncovered, 0))

        def edge_weight(parent: DecompositionNode, child: DecompositionNode) -> float:
            parent_kind = self._node_kind(parent)
            child_kind = self._node_kind(child)
            if parent_kind is None or child_kind is None:
                return 1.0
            parent_atom, parent_tuple = parent_kind
            child_atom, child_tuple = child_kind
            # Tuple-choice node adjacent to its own atom's "all tuples" node.
            if parent_tuple is not None and child_tuple is None:
                return 0.0 if parent_atom == child_atom else 1.0
            if parent_tuple is None and child_tuple is not None:
                return 0.0 if parent_atom == child_atom else 1.0
            if parent_tuple is None and child_tuple is None:
                return 1.0
            # Two tuple choices: they must agree on their shared variables.
            parent_binding = self._binding_of(parent_tuple)
            child_binding = self._binding_of(child_tuple)
            shared = set(parent_binding) & set(child_binding)
            matches = all(parent_binding[v] == child_binding[v] for v in shared)
            return 0.0 if matches else 1.0

        return TreeAggregationFunction(
            semiring=SUM_MIN,
            vertex_weight=vertex_weight,
            edge_weight=edge_weight,
            name="theorem-5.1",
            smooth=True,
        )

    # ------------------------------------------------------------------
    def decode_assignment(
        self, decomposition: HypertreeDecomposition
    ) -> Optional[Dict[str, tuple]]:
        """Extract the tuple assignment encoded by a weight-0 decomposition:
        the chosen tuple (row) for every atom, or ``None`` if some atom has
        no tuple-choice node in the decomposition."""
        chosen: Dict[str, tuple] = {}
        for node in decomposition.nodes():
            kind = self._node_kind(node)
            if kind is None or kind[1] is None:
                continue
            atom_name, tuple_var = kind
            if atom_name not in chosen:
                chosen[atom_name] = self.tuple_rows[tuple_var][1]
        if len(chosen) != len(self.query.atoms):
            return None
        return chosen

    def assignment_is_satisfying(self, assignment: Dict[str, tuple]) -> bool:
        """Check that the per-atom tuple choices agree on shared variables."""
        bindings: Dict[str, Dict[str, object]] = {}
        for atom in self.query.atoms:
            row = assignment.get(atom.name)
            if row is None:
                return False
            bindings[atom.name] = dict(zip(self._bound_attributes[atom.name], row))
        for first in self.query.atoms:
            for second in self.query.atoms:
                if first.name >= second.name:
                    continue
                shared = set(bindings[first.name]) & set(bindings[second.name])
                for variable in shared:
                    if bindings[first.name][variable] != bindings[second.name][variable]:
                        return False
        return True


def reduction_minimum_weight(
    query: ConjunctiveQuery, database: Database, k: int = 1
) -> float:
    """Convenience: the minimum TAF weight over ``kNFD`` of the reduction's
    hypergraph (0 iff the BCQ is true, per Theorem 5.1)."""
    from repro.decomposition.minimal import minimum_weight

    reduction = BCQReduction(query, database)
    return minimum_weight(reduction.hypergraph, k, reduction.taf())
