"""Tests for relations (bag semantics) and the relational-algebra operators."""

import pytest

from repro.db.algebra import (
    EvaluationBudgetExceeded,
    OperatorStats,
    cartesian_product,
    join_all,
    natural_join,
    project,
    select,
    semijoin,
)
from repro.db.database import Database
from repro.db.executor import execute_plan
from repro.db.plan_ir import JoinNode, ProjectNode, QueryPlanIR, ScanNode
from repro.db.relation import Relation
from repro.query.conjunctive import build_query
from repro.exceptions import DatabaseError


@pytest.fixture
def r():
    return Relation("r", ["x", "y"], [(1, 10), (2, 20), (1, 10), (3, 30)])


@pytest.fixture
def s():
    return Relation("s", ["y", "z"], [(10, 100), (20, 200), (20, 300), (40, 400)])


class TestRelation:
    def test_bag_semantics_keeps_duplicates(self, r):
        assert r.cardinality == 4
        assert r.distinct_cardinality() == 3

    def test_distinct(self, r):
        assert r.distinct().cardinality == 3

    def test_arity_mismatch_rejected(self):
        with pytest.raises(DatabaseError):
            Relation("r", ["x"], [(1, 2)])

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(DatabaseError):
            Relation("r", ["x", "x"], [])

    def test_column_and_distinct_count(self, r):
        assert sorted(r.column("x")) == [1, 1, 2, 3]
        assert r.distinct_count("x") == 3
        assert r.distinct_count("y") == 3

    def test_position_unknown_attribute(self, r):
        with pytest.raises(DatabaseError):
            r.position("nope")

    def test_index_on(self, s):
        index = s.index_on(["y"])
        assert sorted(index[(20,)]) == [(20, 200), (20, 300)]

    def test_rename(self, r):
        renamed = r.rename({"x": "A"})
        assert renamed.attributes == ("A", "y")
        assert renamed.cardinality == r.cardinality

    def test_equality_is_bag_equality(self):
        a = Relation("a", ["x"], [(1,), (1,), (2,)])
        b = Relation("b", ["x"], [(2,), (1,), (1,)])
        c = Relation("c", ["x"], [(1,), (2,)])
        assert a == b
        assert a != c
        assert a.same_tuples(c)

    def test_head_and_repr(self, r):
        assert len(r.head(2)) == 2
        assert "cardinality=4" in repr(r)

    def test_bool_and_iter(self):
        empty = Relation("e", ["x"], [])
        assert not empty
        assert list(Relation("f", ["x"], [(1,)])) == [(1,)]


class TestJoin:
    def test_natural_join_on_shared_attribute(self, r, s):
        joined = natural_join(r, s)
        assert set(joined.attributes) == {"x", "y", "z"}
        # (1,10) appears twice in r and matches (10,100) once -> 2 result rows.
        assert joined.rows.count((1, 10, 100)) == 2
        assert (2, 20, 200) in joined.rows
        assert (2, 20, 300) in joined.rows
        assert joined.cardinality == 4

    def test_join_without_shared_attributes_is_product(self):
        a = Relation("a", ["x"], [(1,), (2,)])
        b = Relation("b", ["y"], [(10,), (20,), (30,)])
        assert natural_join(a, b).cardinality == 6
        assert cartesian_product(a, b).cardinality == 6

    def test_cartesian_product_rejects_shared_attributes(self, r, s):
        with pytest.raises(DatabaseError):
            cartesian_product(r, r)

    def test_join_all_in_order(self, r, s):
        t = Relation("t", ["z", "w"], [(100, 0), (200, 1)])
        joined = join_all([r, s, t])
        assert set(joined.attributes) == {"x", "y", "z", "w"}
        assert joined.cardinality == 3  # (1,10,100,0) x2 and (2,20,200,1)

    def test_join_all_empty_rejected(self):
        with pytest.raises(DatabaseError):
            join_all([])

    def test_join_records_stats(self, r, s):
        stats = OperatorStats()
        joined = natural_join(r, s, stats=stats)
        assert stats.tuples_read == r.cardinality + s.cardinality
        assert stats.tuples_emitted == joined.cardinality
        assert stats.operations["join"] == 1
        assert stats.total_work == stats.tuples_read + stats.tuples_emitted


class TestSemijoin:
    def test_semijoin_keeps_matching_left_rows(self, r, s):
        reduced = semijoin(r, s)
        assert reduced.attributes == r.attributes
        assert (3, 30) not in reduced.rows
        assert reduced.cardinality == 3  # (1,10) twice and (2,20)

    def test_semijoin_without_shared_attributes(self):
        a = Relation("a", ["x"], [(1,), (2,)])
        empty = Relation("b", ["y"], [])
        full = Relation("c", ["y"], [(5,)])
        assert semijoin(a, empty).cardinality == 0
        assert semijoin(a, full).cardinality == 2

    def test_semijoin_is_idempotent(self, r, s):
        once = semijoin(r, s)
        twice = semijoin(once, s)
        assert once == twice


class TestProjectSelect:
    def test_project_distinct(self, r):
        projected = project(r, ["x"])
        assert projected.cardinality == 3

    def test_project_keeps_duplicates_when_asked(self, r):
        projected = project(r, ["x"], distinct=False)
        assert projected.cardinality == 4

    def test_project_ignores_missing_attributes(self, r):
        projected = project(r, ["x", "nope"])
        assert projected.attributes == ("x",)

    def test_select(self, r):
        filtered = select(r, lambda row: row["x"] == 1)
        assert filtered.cardinality == 2

    def test_node_expression_projects_the_join(self, r, s):
        # E(p) for λ = {r, s} and χ = {x, z}, as hypertree_plan_ir lowers it
        # and execute_plan interprets it.
        query = build_query([("r", ["X", "Y"]), ("s", ["Y", "Z"])])
        expression = ProjectNode(
            JoinNode((ScanNode("r"), ScanNode("s")), smallest_first=True), ("X", "Z")
        )
        database = Database(relations={"r": r, "s": s})
        result = execute_plan(QueryPlanIR(query, expression), database).relation
        assert set(result.attributes) == {"X", "Z"}
        assert result.cardinality == result.distinct_cardinality()
        assert (1, 100) in result.rows


class TestBudget:
    def test_budget_exceeded_raises(self, r, s):
        stats = OperatorStats(budget=3)
        with pytest.raises(EvaluationBudgetExceeded):
            natural_join(r, s, stats=stats)

    def test_budget_not_exceeded(self, r, s):
        stats = OperatorStats(budget=10_000)
        natural_join(r, s, stats=stats)

    def test_stats_merge_and_snapshot(self):
        a = OperatorStats()
        b = OperatorStats()
        a.record("join", 10, 5)
        b.record("join", 1, 1)
        a.merge(b)
        assert a.tuples_read == 11
        assert a.operations["join"] == 2
        assert a.snapshot()["total_work"] == a.total_work
