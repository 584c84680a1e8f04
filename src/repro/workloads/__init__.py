"""Workloads: the paper's benchmark queries/statistics and synthetic generators."""

from repro.workloads.paper_queries import (
    FIG5_CARDINALITIES,
    FIG5_SELECTIVITIES,
    PAPER_Q1_ESTIMATED_COSTS,
    fig5_database,
    fig5_statistics,
    fig8_database,
    fig8_statistics,
)
from repro.workloads.synthetic import (
    chain_query,
    cycle_query,
    random_cyclic_query,
    scalability_suite,
    snowflake_query,
    star_query,
    workload_database,
)

__all__ = [
    "FIG5_CARDINALITIES",
    "FIG5_SELECTIVITIES",
    "PAPER_Q1_ESTIMATED_COSTS",
    "fig5_database",
    "fig5_statistics",
    "fig8_database",
    "fig8_statistics",
    "chain_query",
    "cycle_query",
    "random_cyclic_query",
    "scalability_suite",
    "snowflake_query",
    "star_query",
    "workload_database",
]
