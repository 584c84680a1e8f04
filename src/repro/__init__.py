"""repro -- Weighted hypertree decompositions and optimal query plans.

A complete, pure-Python reproduction of Scarcello, Greco and Leone,
"Weighted hypertree decompositions and optimal query plans" (PODS 2004 /
JCSS 73, 2007): hypergraphs and conjunctive queries, hypertree
decompositions in normal form, tree aggregation functions over semirings,
the minimal-k-decomp / threshold-k-decomp / cost-k-decomp algorithms, an
in-memory relational engine with Yannakakis evaluation, a quantitative-only
baseline optimiser, and the experiment drivers that regenerate the paper's
figures and tables.

Typical entry points::

    from repro import (
        Hypergraph, ConjunctiveQuery, parse_query,
        hypertree_width, minimal_k_decomp, width_taf,
        cost_k_decomp, compare_planners,
    )
"""

from repro.core import BitsetHypergraph, Vocabulary
from repro.hypergraph import Hypergraph, build_join_tree, is_acyclic
from repro.query import Atom, ConjunctiveQuery, build_query, parse_query, q0, q1, q2, q3
from repro.decomposition import (
    CandidatesGraph,
    HypertreeDecomposition,
    TieBreaker,
    complete_decomposition,
    enumerate_nf_decompositions,
    hypertree_width,
    is_normal_form,
    k_decomp,
    minimal_k_decomp,
    minimum_weight,
    optimal_decomposition,
    threshold_k_decomp,
)
from repro.weights import (
    MAX_MIN,
    SUM_MIN,
    QueryCostTAF,
    Semiring,
    TreeAggregationFunction,
    lexicographic_taf,
    query_cost_taf,
    separator_taf,
    width_taf,
)
from repro.db import (
    CatalogStatistics,
    Database,
    Relation,
    TableStatistics,
    database_from_statistics,
    execute_plan,
    uniform_database,
)
from repro.planner import (
    HypertreePlan,
    JoinOrderPlan,
    baseline_plan,
    compare_planners,
    cost_k_decomp,
)

__version__ = "1.0.0"

__all__ = [
    "BitsetHypergraph",
    "Vocabulary",
    "Hypergraph",
    "is_acyclic",
    "build_join_tree",
    "Atom",
    "ConjunctiveQuery",
    "build_query",
    "parse_query",
    "q0",
    "q1",
    "q2",
    "q3",
    "CandidatesGraph",
    "HypertreeDecomposition",
    "TieBreaker",
    "complete_decomposition",
    "enumerate_nf_decompositions",
    "hypertree_width",
    "is_normal_form",
    "k_decomp",
    "minimal_k_decomp",
    "minimum_weight",
    "optimal_decomposition",
    "threshold_k_decomp",
    "MAX_MIN",
    "SUM_MIN",
    "QueryCostTAF",
    "Semiring",
    "TreeAggregationFunction",
    "lexicographic_taf",
    "query_cost_taf",
    "separator_taf",
    "width_taf",
    "CatalogStatistics",
    "Database",
    "Relation",
    "TableStatistics",
    "database_from_statistics",
    "execute_plan",
    "uniform_database",
    "HypertreePlan",
    "JoinOrderPlan",
    "baseline_plan",
    "compare_planners",
    "cost_k_decomp",
    "__version__",
]
