"""Experiment drivers regenerating the paper's tables and figures."""

from repro.experiments.runner import ExperimentResult
from repro.experiments.fig8 import fig8a_experiment, fig8b_experiment
from repro.experiments.tables import (
    example31_experiment,
    fig1_experiment,
    fig6_7_experiment,
    paper_fig1_hd_prime,
    paper_fig1_hd_second,
    psi_table_experiment,
)
from repro.experiments.ablation import (
    hardness_reduction_experiment,
    nf_restriction_ablation,
    scalability_experiment,
)

__all__ = [
    "ExperimentResult",
    "fig8a_experiment",
    "fig8b_experiment",
    "example31_experiment",
    "fig1_experiment",
    "fig6_7_experiment",
    "paper_fig1_hd_prime",
    "paper_fig1_hd_second",
    "psi_table_experiment",
    "hardness_reduction_experiment",
    "nf_restriction_ablation",
    "scalability_experiment",
]
