"""Experiment drivers for the paper's remaining figures, tables and worked
examples.

* :func:`fig1_experiment` -- the two width-2 decompositions of Q0 (Fig. 1):
  our optimal decomposition, its validity/normal-form status, and the
  hypertree width of ``H(Q0)``.
* :func:`example31_experiment` -- the lexicographic weights of Example 3.1
  (``ω^lex(HD') = 4·9⁰ + 3·9¹``, ``ω^lex(HD'') = 6·9⁰ + 1·9¹``) plus the
  minimum lexicographic weight over ``kNFD``.
* :func:`psi_table_experiment` -- the Ψ vs ``n^k`` comparison after
  Theorem 4.5 (k=3, n=5 → 25 vs 125; k=4, n=10 → 385 vs 10 000).
* :func:`fig6_7_experiment` -- the Q1 estimated plan costs for k = 2..5
  (the ``$`` labels of Figs. 6 and 7 and the costs quoted in Section 6):
  the paper's absolute numbers come from its private cost constants, so the
  reproduction checks the *shape* (monotone non-increasing in k with a
  plateau at the optimum) and reports both series side by side.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.decomposition.hypertree import HypertreeDecomposition
from repro.decomposition.kdecomp import hypertree_width, k_decomp
from repro.decomposition.minimal import minimum_weight
from repro.decomposition.normal_form import is_normal_form
from repro.decomposition.candidates import count_k_vertices
from repro.experiments.runner import ExperimentResult
from repro.planner.cost_k_decomp import best_plan_over_k
from repro.query.examples import q0, q1
from repro.weights.library import lexicographic_taf
from repro.workloads.paper_queries import (
    PAPER_Q1_ESTIMATED_COSTS,
    fig5_statistics,
)


# ----------------------------------------------------------------------
# Fig. 1 -- the Q0 example decompositions
# ----------------------------------------------------------------------
def paper_fig1_hd_prime() -> HypertreeDecomposition:
    """A width-2 decomposition of H(Q0) with the width histogram the paper
    reports for HD' (Fig. 1 right): 4 nodes of width 1 and 3 nodes of
    width 2, so ``ω^lex(HD') = 4·9⁰ + 3·9¹``.  The figure itself only appears
    as a picture in the paper, so the decomposition is reconstructed from
    that histogram."""
    hypergraph = q0().hypergraph()
    structure = {0: [1], 1: [2, 3], 2: [4, 5, 6], 3: [], 4: [], 5: [], 6: []}
    lambdas = {
        0: ["s1"],
        1: ["s2", "s3"],
        2: ["s4", "s5"],
        3: ["s3", "s6"],
        4: ["s7"],
        5: ["s8"],
        6: ["s4"],
    }
    chis = {
        0: ["A", "B", "D"],
        1: ["B", "C", "D", "E"],
        2: ["D", "E", "F", "G"],
        3: ["B", "E", "H"],
        4: ["F", "I"],
        5: ["G", "J"],
        6: ["D", "G"],
    }
    return HypertreeDecomposition.build(hypergraph, structure, lambdas, chis, root=0)


def paper_fig1_hd_second() -> HypertreeDecomposition:
    """A width-2 decomposition of H(Q0) with the width histogram the paper
    reports for HD'' (Fig. 1 bottom): 6 nodes of width 1 and a single node of
    width 2, so ``ω^lex(HD'') = 6·9⁰ + 1·9¹``.  The single width-2 node
    ``λ = {s1, s5}`` breaks the B-E-G-D cycle of H(Q0)."""
    hypergraph = q0().hypergraph()
    structure = {0: [1, 2, 3, 4, 5, 6], 1: [], 2: [], 3: [], 4: [], 5: [], 6: []}
    lambdas = {
        0: ["s1", "s5"],
        1: ["s2"],
        2: ["s3"],
        3: ["s4"],
        4: ["s6"],
        5: ["s7"],
        6: ["s8"],
    }
    chis = {
        0: ["A", "B", "D", "E", "F", "G"],
        1: ["B", "C", "D"],
        2: ["B", "E"],
        3: ["D", "G"],
        4: ["E", "H"],
        5: ["F", "I"],
        6: ["G", "J"],
    }
    return HypertreeDecomposition.build(hypergraph, structure, lambdas, chis, root=0)


def fig1_experiment() -> ExperimentResult:
    """Fig. 1: H(Q0) and two width-2 hypertree decompositions."""
    hypergraph = q0().hypergraph()
    result = ExperimentResult(
        name="Fig. 1 -- hypergraph H(Q0) and width-2 decompositions",
        description="The introductory example: Q0 is cyclic with hypertree width 2.",
    )
    width = hypertree_width(hypergraph)
    computed = k_decomp(hypergraph, 2)
    result.add_row(
        object="H(Q0)",
        atoms=hypergraph.num_edges(),
        variables=hypergraph.num_vertices(),
        hypertree_width=width,
    )
    for label, decomposition in (
        ("HD' (paper, Fig. 1 right)", _try_fig1(paper_fig1_hd_prime)),
        ("HD'' (paper, Fig. 1 bottom)", _try_fig1(paper_fig1_hd_second)),
        ("computed by k-decomp (k=2)", computed),
    ):
        if decomposition is None:
            result.add_row(object=label, valid=False)
            continue
        result.add_row(
            object=label,
            width=decomposition.width,
            nodes=decomposition.num_nodes(),
            valid=decomposition.is_valid(),
            normal_form=is_normal_form(decomposition),
        )
    result.add_note("Paper shape: both HD' and HD'' are valid width-2 decompositions.")
    return result


def _try_fig1(builder):
    try:
        decomposition = builder()
        return decomposition
    except Exception:  # pragma: no cover - defensive, the builders are static
        return None


# ----------------------------------------------------------------------
# Example 3.1 -- lexicographic weights
# ----------------------------------------------------------------------
def example31_experiment() -> ExperimentResult:
    """Example 3.1: the ω^lex weights of HD' and HD'' and the minimum over
    kNFD (k = 2)."""
    query = q0()
    hypergraph = query.hypergraph()
    base = hypergraph.num_edges() + 1
    taf = lexicographic_taf(hypergraph)

    hd_prime = paper_fig1_hd_prime()
    hd_second = paper_fig1_hd_second()
    weight_prime = taf.weigh(hd_prime)
    weight_second = taf.weigh(hd_second)
    minimum = minimum_weight(hypergraph, 2, taf)

    result = ExperimentResult(
        name="Example 3.1 -- lexicographic weighting of Q0's decompositions",
        description=f"ω^lex with radix B = |edges| + 1 = {base}.",
    )
    result.add_row(
        decomposition="HD'",
        weight=weight_prime,
        paper_expression="4·9⁰ + 3·9¹",
        paper_value=4 * base ** 0 + 3 * base ** 1,
        matches_paper=weight_prime == 4 + 3 * base,
    )
    result.add_row(
        decomposition="HD''",
        weight=weight_second,
        paper_expression="6·9⁰ + 1·9¹",
        paper_value=6 * base ** 0 + 1 * base ** 1,
        matches_paper=weight_second == 6 + base,
    )
    result.add_row(
        decomposition="minimum over kNFD (k=2), minimal-k-decomp",
        weight=minimum,
        paper_expression="≤ ω^lex(HD'')",
        paper_value=6 + base,
        matches_paper=minimum <= 6 + base,
    )
    result.add_note(
        "Paper shape: ω^lex(HD'') < ω^lex(HD') and HD'' is minimal among the "
        "paper's examples; minimal-k-decomp can only do at least as well."
    )
    return result


# ----------------------------------------------------------------------
# Section 4.2 -- Ψ vs n^k
# ----------------------------------------------------------------------
def psi_table_experiment() -> ExperimentResult:
    """The Ψ vs ``n^k`` remark after Theorem 4.5."""
    result = ExperimentResult(
        name="Section 4.2 -- Ψ vs n^k",
        description="Number of k-vertices Ψ = Σ_{i=1..k} C(n, i) against the crude bound n^k.",
    )
    for n, k, paper_psi in ((5, 3, 25), (10, 4, 385)):
        psi = count_k_vertices(n, k)
        result.add_row(
            n=n,
            k=k,
            psi=psi,
            n_to_k=n ** k,
            paper_psi=paper_psi,
            matches_paper=psi == paper_psi,
        )
    return result


# ----------------------------------------------------------------------
# Figs. 6 and 7 -- Q1 estimated plan costs over k
# ----------------------------------------------------------------------
def fig6_7_experiment(k_values: Sequence[int] = (2, 3, 4, 5)) -> ExperimentResult:
    """The Q1 estimated plan costs for k = 2..5 (Section 6, Figs. 6 and 7)."""
    statistics = fig5_statistics()
    query = q1()
    result = ExperimentResult(
        name="Figs. 6/7 -- estimated cost of the minimal Q1 plan per width bound k",
        description=(
            "cost-k-decomp over the exact Fig. 5 statistics; absolute values "
            "use this library's cost constants, the paper's are reported for "
            "shape comparison."
        ),
    )
    previous_cost: Optional[float] = None
    for k, plan in best_plan_over_k(query, statistics, k_values).items():
        non_increasing = previous_cost is None or plan.estimated_cost <= previous_cost + 1e-9
        result.add_row(
            k=k,
            width=plan.width,
            estimated_cost=plan.estimated_cost,
            paper_estimated_cost=PAPER_Q1_ESTIMATED_COSTS.get(k),
            planning_s=plan.planning_seconds,
            non_increasing_vs_previous_k=non_increasing,
        )
        previous_cost = plan.estimated_cost
    result.add_note(
        "Paper shape: 3 521 741 (k=2) > 1 373 879 (k=3) > 854 867 (k=4) = 854 867 (k=5): "
        "strictly decreasing up to k=4, then a plateau.  The reproduction checks that the "
        "estimated cost is non-increasing in k and plateaus once the optimum is reached."
    )
    return result
