#!/usr/bin/env python3
"""Constraint satisfaction via weighted hypertree decompositions.

Conjunctive-query evaluation and constraint satisfaction are the same problem
(Section 1.1 of the paper): variables are CSP variables, atoms are
constraints, and the relations attached to the atoms are the constraint
tables.  A bounded-width hypertree decomposition therefore solves the CSP in
polynomial time, and a *weighted* decomposition picks the cheapest way to do
so when the constraint tables have very different sizes.

This example solves graph 3-colouring instances (the classical CSP) by:

1. encoding the graph as a Boolean conjunctive query with one ``edge``
   constraint per graph edge;
2. attaching the "different colours" constraint table to every atom;
3. computing a cost-minimal hypertree decomposition of the constraint
   hypergraph with cost-k-decomp;
4. running the resulting plan with Yannakakis' algorithm to decide
   satisfiability.

Run with::

    python examples/constraint_satisfaction.py
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, List, Sequence, Tuple

from repro.db.database import Database
from repro.db.executor import execute_plan
from repro.db.relation import Relation
from repro.decomposition.kdecomp import hypertree_width
from repro.planner.cost_k_decomp import cost_k_decomp
from repro.query.conjunctive import ConjunctiveQuery, build_query


def coloring_csp(
    vertices: Sequence[str], edges: Sequence[Tuple[str, str]], num_colors: int = 3
) -> Tuple[ConjunctiveQuery, Database]:
    """Encode graph colouring as a Boolean conjunctive query + database."""
    body = [("edge", [u, v]) for u, v in edges]
    query = build_query(body, name="coloring")
    different = [
        (a, b) for a, b in permutations(range(num_colors), 2)
    ]
    database = Database(
        relations={"edge": Relation("edge", ["c1", "c2"], different)},
        name=f"{num_colors}-coloring",
    )
    database.analyze()
    return query, database


def solve(vertices: Sequence[str], edges: Sequence[Tuple[str, str]], label: str) -> None:
    query, database = coloring_csp(vertices, edges)
    width = hypertree_width(query.hypergraph())
    k = max(width, 2)
    plan = cost_k_decomp(query, database.statistics, k)
    result = execute_plan(plan.to_ir(), database)
    print(f"{label}:")
    print(f"  constraints={len(edges)}  variables={len(vertices)}  hypertree width={width}")
    print(f"  plan width={plan.width}  estimated cost={plan.estimated_cost:,.0f}")
    print(f"  3-colourable? {result.boolean}")
    print()


def main() -> None:
    # A 5-cycle: 3-colourable.
    cycle_vertices = [f"V{i}" for i in range(5)]
    cycle_edges = [(f"V{i}", f"V{(i + 1) % 5}") for i in range(5)]
    solve(cycle_vertices, cycle_edges, "5-cycle")

    # The Petersen graph: 3-colourable.
    outer = [(f"O{i}", f"O{(i + 1) % 5}") for i in range(5)]
    inner = [(f"I{i}", f"I{(i + 2) % 5}") for i in range(5)]
    spokes = [(f"O{i}", f"I{i}") for i in range(5)]
    petersen_vertices = [f"O{i}" for i in range(5)] + [f"I{i}" for i in range(5)]
    solve(petersen_vertices, outer + inner + spokes, "Petersen graph")

    # K4: not 3-colourable.
    k4_vertices = ["A", "B", "C", "D"]
    k4_edges = [
        ("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"), ("B", "D"), ("C", "D"),
    ]
    solve(k4_vertices, k4_edges, "K4 (complete graph on 4 vertices)")


if __name__ == "__main__":
    main()
