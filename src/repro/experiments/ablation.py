"""Ablation and sanity experiments for design choices the paper calls out.

* :func:`nf_restriction_ablation` -- Sections 3-4 restrict the search space
  from all width-``k`` decompositions to the *normal-form* ones to regain
  tractability.  The ablation checks, on small hypergraphs, that (a) the
  restriction never changes the attainable width (Theorem 2.3) and (b)
  minimal-k-decomp's weight equals the brute-force minimum over all
  enumerated NF decompositions (Theorem 4.4).
* :func:`hardness_reduction_experiment` -- exercises the Theorem 3.3 and
  Theorem 5.1 reductions on small instances: the minimal weight is 0 exactly
  for the "yes" instances.
* :func:`scalability_experiment` -- planning time of minimal-k-decomp as the
  number of atoms grows (the practical counterpart of the Theorem 4.5
  complexity bound).
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.db.database import Database
from repro.db.relation import Relation
from repro.decomposition.enumerate import enumerate_nf_decompositions
from repro.decomposition.kdecomp import hypertree_width
from repro.decomposition.minimal import minimal_k_decomp, minimum_weight
from repro.decomposition.normal_form import is_normal_form
from repro.experiments.runner import ExperimentResult
from repro.hypergraph.generators import (
    cycle_hypergraph,
    grid_hypergraph,
    paper_q0_hypergraph,
)
from repro.query.conjunctive import build_query
from repro.reductions.acyclic_bcq import reduction_minimum_weight
from repro.reductions.coloring import (
    brute_force_3coloring,
    coloring_hwf,
    coloring_join_tree,
)
from repro.weights.library import lexicographic_taf, width_taf
from repro.weights.semiring import INFINITY
from repro.workloads.synthetic import chain_query, cycle_query


def nf_restriction_ablation(limit: int = 4000) -> ExperimentResult:
    """Check the normal-form restriction on a handful of small hypergraphs."""
    cases = {
        "cycle(4)": cycle_hypergraph(4),
        "cycle(5)": cycle_hypergraph(5),
        "grid(2x3)": grid_hypergraph(2, 3),
        "H(Q0)": paper_q0_hypergraph(),
    }
    result = ExperimentResult(
        name="Ablation -- normal-form restriction",
        description=(
            "For each hypergraph: hypertree width, number of NF decompositions "
            "enumerated (capped), and agreement between minimal-k-decomp and the "
            "brute-force minimum of the lexicographic TAF over the enumeration."
        ),
    )
    for label, hypergraph in cases.items():
        width = hypertree_width(hypergraph)
        taf = lexicographic_taf(hypergraph)
        algorithmic = minimum_weight(hypergraph, width, taf)
        enumerated = list(
            enumerate_nf_decompositions(hypergraph, width, limit=limit)
        )
        brute = min((taf.weigh(hd) for hd in enumerated), default=INFINITY)
        all_nf = all(is_normal_form(hd) for hd in enumerated)
        all_valid = all(hd.is_valid() for hd in enumerated)
        result.add_row(
            hypergraph=label,
            hypertree_width=width,
            enumerated_nf=len(enumerated),
            all_valid=all_valid,
            all_normal_form=all_nf,
            minimal_k_decomp_weight=algorithmic,
            brute_force_weight=brute,
            agreement=(algorithmic <= brute + 1e-9),
        )
    result.add_note(
        "The brute-force enumeration is capped, so its minimum is an upper bound; "
        "agreement requires the algorithmic weight to be at most that bound "
        "(they are equal when the cap is not hit)."
    )
    return result


def hardness_reduction_experiment() -> ExperimentResult:
    """Exercise the Theorem 3.3 and Theorem 5.1 reductions on tiny instances."""
    result = ExperimentResult(
        name="Hardness reductions (Theorems 3.3 and 5.1) on small instances",
        description="Minimal weights are 0 exactly on yes-instances.",
    )

    # --- Theorem 3.3: 3-colourability ---------------------------------
    graphs = {
        "path P3 (colourable)": (["a", "b", "c"], [("a", "b"), ("b", "c")]),
        "triangle K3 (colourable)": (
            ["a", "b", "c"],
            [("a", "b"), ("b", "c"), ("a", "c")],
        ),
        "clique K4 (not colourable)": (
            ["a", "b", "c", "d"],
            [
                ("a", "b"), ("a", "c"), ("a", "d"),
                ("b", "c"), ("b", "d"), ("c", "d"),
            ],
        ),
    }
    for label, (vertices, edges) in graphs.items():
        hwf = coloring_hwf(vertices, edges)
        colouring = brute_force_3coloring(vertices, edges)
        if colouring is not None:
            join_tree = coloring_join_tree(vertices, edges, colouring)
            weight = hwf.weigh(join_tree)
        else:
            # Every assignment-shaped join tree must get weight 1.
            weight = min(
                hwf.weigh(coloring_join_tree(vertices, edges, assignment))
                for assignment in _all_assignments(vertices)
            )
        result.add_row(
            reduction="Theorem 3.3 (3-colouring)",
            instance=label,
            yes_instance=colouring is not None,
            minimal_weight=weight,
            consistent=(weight == 0.0) == (colouring is not None),
        )

    # --- Theorem 5.1: acyclic BCQ evaluation ---------------------------
    query = build_query(
        [("r", ["X", "Y"]), ("s", ["Y", "Z"])], name="bcq"
    )
    yes_db = Database(
        relations={
            "r": Relation("r", ["X", "Y"], [(1, 2), (3, 4)]),
            "s": Relation("s", ["Y", "Z"], [(2, 5)]),
        }
    )
    no_db = Database(
        relations={
            "r": Relation("r", ["X", "Y"], [(1, 2), (3, 4)]),
            "s": Relation("s", ["Y", "Z"], [(7, 5)]),
        }
    )
    for label, database, expected in (
        ("matching tuples (true)", yes_db, True),
        ("no matching tuples (false)", no_db, False),
    ):
        weight = reduction_minimum_weight(query, database, k=1)
        result.add_row(
            reduction="Theorem 5.1 (acyclic BCQ)",
            instance=label,
            yes_instance=expected,
            minimal_weight=weight,
            consistent=(weight == 0.0) == expected,
        )
    return result


def _all_assignments(vertices: Sequence[str]):
    from itertools import product

    for colours in product(range(3), repeat=len(vertices)):
        yield dict(zip(vertices, colours))


def scalability_experiment(
    sizes: Sequence[int] = (4, 6, 8, 10),
    k: int = 2,
) -> ExperimentResult:
    """Planning time of minimal-k-decomp on growing chain and cycle queries."""
    result = ExperimentResult(
        name="Scalability -- minimal-k-decomp planning time",
        description=f"Width bound k={k}; the width TAF is minimised.",
    )
    for size in sizes:
        for family, query in (
            ("chain", chain_query(size, name=f"chain_{size}")),
            ("cycle", cycle_query(size, name=f"cycle_{size}")),
        ):
            hypergraph = query.hypergraph()
            started = time.perf_counter()
            decomposition = minimal_k_decomp(hypergraph, k, width_taf())
            elapsed = time.perf_counter() - started
            result.add_row(
                family=family,
                atoms=size,
                width=decomposition.width,
                nodes=decomposition.num_nodes(),
                seconds=elapsed,
            )
    return result
