"""Relational database substrate: relations (row and columnar), statistics,
algebra, Yannakakis, plan IR + execution, synthetic data and the cost
model."""

from repro.db.relation import Relation, Row, Value
from repro.db.dictionary import Dictionary

try:  # The columnar engine needs numpy; the row engine covers its absence.
    from repro.db.columnar import (
        ColumnarRelation,
        columnar_natural_join,
        columnar_project,
        columnar_select,
        columnar_semijoin,
    )
except ImportError:  # pragma: no cover - exercised only without numpy
    ColumnarRelation = None  # type: ignore[assignment]
    columnar_natural_join = columnar_project = None  # type: ignore[assignment]
    columnar_select = columnar_semijoin = None  # type: ignore[assignment]
from repro.db.statistics import CatalogStatistics, TableStatistics, analyze_relation
from repro.db.database import Database
from repro.db.algebra import (
    OperatorStats,
    cartesian_product,
    join_all,
    natural_join,
    project,
    select,
    semijoin,
)
from repro.db.scheduler import TaskScheduler
from repro.db.yannakakis import TreeQuery
from repro.db.plan_ir import (
    JoinNode,
    ProjectNode,
    QueryPlanIR,
    ScanNode,
    YannakakisNode,
    hypertree_plan_ir,
    join_order_plan_ir,
)
from repro.db.executor import ExecutionResult, execute_plan
from repro.db.storage import (
    PlanCache,
    cached_database,
    open_database,
    pack_ids,
    query_fingerprint,
    save_database,
    statistics_digest,
    storage_info,
    unpack_ids,
    workload_cache_stats,
)
from repro.db.costmodel import AtomProfile, CardinalityEstimator
from repro.db.generator import (
    database_from_statistics,
    generate_column,
    generate_relation,
    uniform_database,
)

__all__ = [
    "Relation",
    "Row",
    "Value",
    "Dictionary",
    "ColumnarRelation",
    "columnar_natural_join",
    "columnar_project",
    "columnar_select",
    "columnar_semijoin",
    "QueryPlanIR",
    "ScanNode",
    "JoinNode",
    "ProjectNode",
    "YannakakisNode",
    "hypertree_plan_ir",
    "join_order_plan_ir",
    "execute_plan",
    "CatalogStatistics",
    "TableStatistics",
    "analyze_relation",
    "Database",
    "OperatorStats",
    "TaskScheduler",
    "cartesian_product",
    "join_all",
    "natural_join",
    "project",
    "select",
    "semijoin",
    "TreeQuery",
    "ExecutionResult",
    "PlanCache",
    "cached_database",
    "open_database",
    "pack_ids",
    "query_fingerprint",
    "save_database",
    "statistics_digest",
    "storage_info",
    "unpack_ids",
    "workload_cache_stats",
    "AtomProfile",
    "CardinalityEstimator",
    "database_from_statistics",
    "generate_column",
    "generate_relation",
    "uniform_database",
]
