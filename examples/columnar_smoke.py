#!/usr/bin/env python3
"""Smoke test: the paper workload on the columnar execution engine.

Loads the Q1 workload (Fig. 5 attribute selectivities), plans it with both
planners -- the quantitative-only left-deep baseline and cost-k-decomp --
and executes both plans through the shared plan-node IR on the columnar
engine.  The run asserts that

* both plans return the same answer (the correctness cross-check of the
  Fig. 8 comparisons),
* the columnar engine's work counters match the row-based reference engine
  byte for byte on the same data, and
* the parallel, memory-bounded execution plane (``threads=4`` plus a small
  per-kernel memory budget) returns byte-identical answers and counters to
  the serial unbounded run.

Run with::

    python examples/columnar_smoke.py
"""

from __future__ import annotations

from repro.db.columnar import ColumnarRelation
from repro.db.database import Database
from repro.db.relation import Relation
from repro.planner.baseline import baseline_plan
from repro.planner.cost_k_decomp import cost_k_decomp
from repro.query.examples import q1
from repro.workloads.paper_queries import fig8_database


def main() -> None:
    query = q1()
    database = fig8_database(query, tuples_per_relation=150, seed=3)
    stored = database.relation(query.atoms[0].predicate)
    assert isinstance(stored, ColumnarRelation), "database should be columnar"
    print(database.describe())
    print(f"dictionary: {len(database.dictionary)} interned values")
    print()

    budget = 10_000_000
    baseline = baseline_plan(query, database.statistics)
    baseline_result = baseline.to_ir().execute(database, budget=budget)
    print(baseline.describe())
    print(f"  -> work={baseline_result.stats.total_work:,} "
          f"answer={baseline_result.cardinality}")

    structural = cost_k_decomp(query, database.statistics, 3, completion="fresh")
    structural_result = structural.to_ir().execute(database, budget=budget)
    print(structural.describe())
    print(f"  -> work={structural_result.stats.total_work:,} "
          f"answer={structural_result.cardinality}")

    assert baseline_result.cardinality == structural_result.cardinality, (
        "planners disagree on the answer"
    )

    # Cross-check the engines: same data in the row-based reference engine
    # must yield byte-identical work counters for both plans.
    reference = Database(
        relations={n: database.relation(n) for n in database.relation_names()},
        statistics=database.statistics,
        columnar=False,
    )
    assert all(
        type(reference.relation(n)) is Relation for n in reference.relation_names()
    ), "the reference database should hold row relations"
    for plan, columnar_result in (
        (baseline, baseline_result),
        (structural, structural_result),
    ):
        row_result = plan.to_ir().execute(reference, budget=budget)
        assert row_result.cardinality == columnar_result.cardinality
        assert row_result.stats.snapshot() == columnar_result.stats.snapshot(), (
            "work counters differ between engines"
        )

    # Serial vs the parallel, memory-bounded plane: same plans, same
    # database, threads=4 and a 64 KiB kernel budget -- answers and every
    # counter must be byte-identical to the serial unbounded run.
    for plan, serial_result in (
        (baseline, baseline_result),
        (structural, structural_result),
    ):
        parallel_result = plan.to_ir().execute(
            database, budget=budget, threads=4, memory_budget_bytes=64 * 1024
        )
        assert parallel_result.cardinality == serial_result.cardinality, (
            "parallel plane changed the answer"
        )
        assert parallel_result.stats.snapshot() == serial_result.stats.snapshot(), (
            "parallel plane changed the work counters"
        )

    print()
    print("OK: both planners agree, the engines' work counters are identical,")
    print("and the parallel memory-bounded plane matches the serial run.")


if __name__ == "__main__":
    main()
