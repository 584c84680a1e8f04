"""Equivalence tests pinning the columnar kernels to the row-based engine.

Every columnar operator -- join, semijoin, project (distinct and not),
select, both Yannakakis passes and full plan execution -- must produce the
same bag of tuples *and* the same ``OperatorStats`` counters as the seed
row-based reference on the same data, including duplicate-heavy bags and
empty relations; the single kernels must also emit the rows in the same
order.  Hypothesis drives randomised relations through both
engines side by side.
"""

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.algebra import (
    EvaluationBudgetExceeded,
    OperatorStats,
    natural_join,
    project,
    select,
    semijoin,
)
from repro.db.columnar import (
    ColumnarRelation,
    _count_table,
    _first_occurrences,
    _match_ranges,
)
from repro.db.database import Database
from repro.db.dictionary import Dictionary
from repro.db.executor import execute_plan
from repro.db.generator import uniform_database
from repro.db.plan_ir import hypertree_plan_ir, join_order_plan_ir
from repro.db.relation import Relation
from repro.db.yannakakis import TreeQuery, fold_plan, fold_steps, reduction_steps
from repro.decomposition.kdecomp import optimal_decomposition
from repro.decomposition.normal_form import complete_decomposition
from repro.query.conjunctive import build_query
from repro.workloads.synthetic import cycle_query

# Small value domains make duplicates and join partners frequent; mixing in
# strings exercises the dictionary's value-agnostic interning.
VALUES = st.sampled_from([0, 1, 2, 3, 4, "a", "b", "c"])


def relation_strategy(attributes, min_size=0, max_size=25):
    arity = len(attributes)
    return st.lists(
        st.tuples(*([VALUES] * arity)), min_size=min_size, max_size=max_size
    ).map(lambda rows: ("R", tuple(attributes), rows))


def both_engines(spec, dictionary):
    """The same data as a row relation and a columnar relation."""
    name, attributes, rows = spec
    row_relation = Relation(name, attributes, rows)
    columnar = ColumnarRelation.from_relation(row_relation, dictionary)
    return row_relation, columnar


def assert_same_bag(row_result, columnar_result):
    assert isinstance(columnar_result, ColumnarRelation)
    assert columnar_result.attributes == row_result.attributes
    assert row_result == columnar_result  # bag equality via Relation.__eq__
    assert tuple(columnar_result.rows) == tuple(row_result.rows)  # row order


def assert_same_stats(row_stats, columnar_stats):
    assert row_stats.snapshot() == columnar_stats.snapshot()
    assert row_stats.operations == columnar_stats.operations


class TestKernelEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        left=relation_strategy(["x", "y"]),
        right=relation_strategy(["y", "z"]),
    )
    def test_join_matches_rows(self, left, right):
        dictionary = Dictionary()
        lr, lc = both_engines(left, dictionary)
        rr, rc = both_engines(right, dictionary)
        row_stats, col_stats = OperatorStats(), OperatorStats()
        assert_same_bag(
            natural_join(lr, rr, stats=row_stats),
            natural_join(lc, rc, stats=col_stats),
        )
        assert_same_stats(row_stats, col_stats)

    @settings(max_examples=40, deadline=None)
    @given(
        left=relation_strategy(["x", "y"]),
        right=relation_strategy(["z", "w"]),
    )
    def test_cartesian_join_matches_rows(self, left, right):
        dictionary = Dictionary()
        lr, lc = both_engines(left, dictionary)
        rr, rc = both_engines(right, dictionary)
        assert_same_bag(natural_join(lr, rr), natural_join(lc, rc))

    @settings(max_examples=40, deadline=None)
    @given(
        left=relation_strategy(["x", "y", "z"]),
        right=relation_strategy(["y", "z", "w"]),
    )
    def test_multi_attribute_join_matches_rows(self, left, right):
        dictionary = Dictionary()
        lr, lc = both_engines(left, dictionary)
        rr, rc = both_engines(right, dictionary)
        assert_same_bag(natural_join(lr, rr), natural_join(lc, rc))

    @settings(max_examples=60, deadline=None)
    @given(
        left=relation_strategy(["x", "y"]),
        right=relation_strategy(["y", "z"]),
    )
    def test_semijoin_matches_rows(self, left, right):
        dictionary = Dictionary()
        lr, lc = both_engines(left, dictionary)
        rr, rc = both_engines(right, dictionary)
        row_stats, col_stats = OperatorStats(), OperatorStats()
        assert_same_bag(
            semijoin(lr, rr, stats=row_stats), semijoin(lc, rc, stats=col_stats)
        )
        assert_same_stats(row_stats, col_stats)

    @settings(max_examples=40, deadline=None)
    @given(
        left=relation_strategy(["x"]),
        right=relation_strategy(["y"]),
    )
    def test_disjoint_semijoin_matches_rows(self, left, right):
        dictionary = Dictionary()
        lr, lc = both_engines(left, dictionary)
        rr, rc = both_engines(right, dictionary)
        assert_same_bag(semijoin(lr, rr), semijoin(lc, rc))

    @settings(max_examples=60, deadline=None)
    @given(
        relation=relation_strategy(["x", "y", "z"]),
        distinct=st.booleans(),
        keep=st.lists(
            st.sampled_from(["x", "y", "z", "missing"]),
            min_size=0,
            max_size=4,
            unique=True,
        ),
    )
    def test_project_matches_rows(self, relation, distinct, keep):
        dictionary = Dictionary()
        rr, rc = both_engines(relation, dictionary)
        row_stats, col_stats = OperatorStats(), OperatorStats()
        assert_same_bag(
            project(rr, keep, stats=row_stats, distinct=distinct),
            project(rc, keep, stats=col_stats, distinct=distinct),
        )
        assert_same_stats(row_stats, col_stats)

    @settings(max_examples=40, deadline=None)
    @given(relation=relation_strategy(["x", "y"]))
    def test_select_matches_rows(self, relation):
        dictionary = Dictionary()
        rr, rc = both_engines(relation, dictionary)
        predicate = lambda row: row["x"] == row["y"] or row["x"] in (0, "a")
        row_stats, col_stats = OperatorStats(), OperatorStats()
        assert_same_bag(
            select(rr, predicate, stats=row_stats),
            select(rc, predicate, stats=col_stats),
        )
        assert_same_stats(row_stats, col_stats)

    @settings(max_examples=40, deadline=None)
    @given(relation=relation_strategy(["x", "y"]))
    def test_accessors_match_rows(self, relation):
        dictionary = Dictionary()
        rr, rc = both_engines(relation, dictionary)
        assert rc.rows == rr.rows
        assert rc.cardinality == rr.cardinality
        assert rc.distinct_cardinality() == rr.distinct_cardinality()
        for attribute in rr.attributes:
            assert rc.column(attribute) == rr.column(attribute)
            assert rc.distinct_count(attribute) == rr.distinct_count(attribute)
        assert_same_bag(rr.distinct(), rc.distinct())


class TestFirstOccurrences:
    """The dedup helper behind project-distinct and ``distinct()``, pinned
    to the first-occurrence positions ``dict.fromkeys`` keeps."""

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.one_of(st.integers(0, 7), st.integers(0, 2**63 - 1)), max_size=300
        )
    )
    def test_matches_dict_fromkeys(self, values):
        expected = [values.index(key) for key in dict.fromkeys(values)]
        keys = np.array(values, dtype=np.int64)
        assert _first_occurrences(keys).tolist() == expected

    def test_wide_keys_take_the_densify_branch(self):
        wide = [2**62 + 5, 7, 2**62 + 5, 2**62 - 1, 7, 3, 2**62 - 1, 2**62 + 5]
        keys = np.array(wide, dtype=np.int64)
        # 63 key bits + 3 row bits do not fit one uint64 word.
        assert int(keys.max()).bit_length() + (len(wide) - 1).bit_length() > 64
        assert _first_occurrences(keys).tolist() == [0, 1, 3, 5]


KEY_DTYPES = [np.uint8, np.uint16, np.uint32, np.int64]


def assert_ranges_match_searchsorted(sorted_keys, table, keys):
    lo, counts = _match_ranges(sorted_keys, table, keys)
    left = np.searchsorted(sorted_keys, keys, side="left")
    right = np.searchsorted(sorted_keys, keys, side="right")
    assert lo.tolist() == left.tolist()
    assert counts.tolist() == (right - left).tolist()


class TestMatchRanges:
    """The join probe's ``(lo, counts)``, by count table and by binary
    search, pinned to ``searchsorted``'s left index and right minus left."""

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        dtype=st.sampled_from(KEY_DTYPES),
        build=st.lists(st.integers(0, 40), min_size=1, max_size=60),
        probe=st.lists(st.integers(0, 60), max_size=60),
    )
    def test_both_branches_match_searchsorted(self, data, dtype, build, probe):
        # An offset moves the keys through the dtype's whole range, so probe
        # keys fall below the minimum, above the maximum and into gaps.
        top = int(np.iinfo(dtype).max) - 60
        offset = data.draw(st.sampled_from([0, top // 2, top]))
        sorted_keys = np.sort(np.array(build, dtype=np.int64) + offset).astype(dtype)
        keys = (np.array(probe, dtype=np.int64) + offset).astype(dtype)
        table = _count_table(sorted_keys, keys.shape[0])
        span = int(sorted_keys[-1]) - int(sorted_keys[0]) + 1
        assert (table is None) == (span > sorted_keys.shape[0] + keys.shape[0])
        for chosen in (table, None):
            assert_ranges_match_searchsorted(sorted_keys, chosen, keys)

    @pytest.mark.parametrize("dtype", KEY_DTYPES)
    def test_table_up_to_the_span_bound(self, dtype):
        # 3 build rows + 5 probe rows: a span of 8 takes the table, 9 does
        # not.  The probe keys sit below, inside, between and above.
        probe = np.array([0, 3, 5, 9, 12], dtype=dtype)
        for high, takes_table in ((10, True), (11, False)):
            sorted_keys = np.array([3, 3, high], dtype=dtype)
            table = _count_table(sorted_keys, probe.shape[0])
            assert (table is not None) == takes_table
            assert_ranges_match_searchsorted(sorted_keys, table, probe)


def _path_trees(r_rows, s_rows, t_rows):
    """The same three-node tree query over both engines."""
    specs = [
        ("r", ("x", "y"), r_rows),
        ("s", ("y", "z"), s_rows),
        ("t", ("z", "w"), t_rows),
    ]
    dictionary = Dictionary()
    rows_rel, col_rel = {}, {}
    for spec in specs:
        rr, rc = both_engines(spec, dictionary)
        rows_rel[spec[0]] = Relation(spec[0], spec[1], spec[2])
        col_rel[spec[0]] = ColumnarRelation.from_relation(
            rows_rel[spec[0]], dictionary, name=spec[0]
        )
    children = {"s": ("r", "t"), "r": (), "t": ()}
    return (
        TreeQuery(root="s", children=dict(children), relations=rows_rel),
        TreeQuery(root="s", children=dict(children), relations=col_rel),
    )


def _serial_passes(tree, stats, full=True, output=None):
    """Yannakakis' passes as the executor runs them at ``threads=1``: every
    step of :func:`reduction_steps` (then, given ``output``, of
    :func:`fold_steps`) in insertion order.  Returns the relation slots."""
    relations = dict(tree.relations)
    for step in reduction_steps(tree, relations, stats, full=full).values():
        step()
    if output is not None:
        plan = fold_plan(tree, output)
        for step in fold_steps(tree, relations, plan, stats).values():
            step()
    return relations


ROWS_XY = st.lists(st.tuples(VALUES, VALUES), min_size=0, max_size=20)


class TestYannakakisEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(r=ROWS_XY, s=ROWS_XY, t=ROWS_XY)
    def test_semijoin_passes_match_rows(self, r, s, t):
        row_tree, col_tree = _path_trees(r, s, t)
        row_stats, col_stats = OperatorStats(), OperatorStats()
        reduced_rows = _serial_passes(row_tree, row_stats)
        reduced_cols = _serial_passes(col_tree, col_stats)
        for node in ("r", "s", "t"):
            assert reduced_rows[node] == reduced_cols[node]
        assert_same_stats(row_stats, col_stats)

    @settings(max_examples=40, deadline=None)
    @given(r=ROWS_XY, s=ROWS_XY, t=ROWS_XY)
    def test_boolean_pass_matches_rows(self, r, s, t):
        row_tree, col_tree = _path_trees(r, s, t)
        row_stats, col_stats = OperatorStats(), OperatorStats()
        row_root = _serial_passes(row_tree, row_stats, full=False)["s"]
        col_root = _serial_passes(col_tree, col_stats, full=False)["s"]
        assert (row_root.cardinality > 0) == (col_root.cardinality > 0)
        assert_same_stats(row_stats, col_stats)

    @settings(max_examples=40, deadline=None)
    @given(r=ROWS_XY, s=ROWS_XY, t=ROWS_XY)
    def test_full_evaluation_matches_rows(self, r, s, t):
        row_tree, col_tree = _path_trees(r, s, t)
        row_stats, col_stats = OperatorStats(), OperatorStats()
        answer_rows = _serial_passes(row_tree, row_stats, output=["x", "w"])["s"]
        answer_cols = _serial_passes(col_tree, col_stats, output=["x", "w"])["s"]
        assert answer_rows == answer_cols
        assert_same_stats(row_stats, col_stats)


class TestEndToEndEquivalence:
    def test_row_twin_holds_plain_relations_and_plans_alike(self, row_twin):
        # A row database built over columnar relations decodes them: its
        # plans run on the row kernels and match the columnar engine in
        # answers, row order and every counter the row engine keeps.
        from repro.planner.baseline import baseline_plan
        from repro.planner.cost_k_decomp import cost_k_decomp

        query = build_query(
            [(f"r{i}", [f"X{i}", f"X{(i + 1) % 5}"]) for i in range(5)],
            output_variables=["X0", "X2"],
            name="cycle5_out",
        )
        col_db = uniform_database(query, tuples_per_relation=40, domain_size=6, seed=1)
        row_db = row_twin(col_db)
        assert not row_db.columnar
        for name in row_db.relation_names():
            relation = row_db.relation(name)
            assert type(relation) is Relation
            assert relation.name == col_db.relation(name).name
            assert relation.attributes == col_db.relation(name).attributes
        for plan in (
            baseline_plan(query, col_db.statistics),
            cost_k_decomp(query, col_db.statistics, 2),
        ):
            ours = execute_plan(plan.to_ir(), col_db)
            theirs = execute_plan(plan.to_ir(), row_db)
            assert ours.cardinality > 0
            assert ours.relation.rows == theirs.relation.rows  # incl. order
            work, row_work = ours.stats_payload(), theirs.stats_payload()
            # peak_transient_elements is the one counter the row engine
            # does not keep: 0 there, whatever the columnar kernels did.
            assert work.pop("peak_transient_elements") > 0
            assert row_work.pop("peak_transient_elements") == 0
            assert work == row_work

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_plans_match_across_engines(self, row_twin, seed):
        query = cycle_query(5)
        col_db = uniform_database(query, tuples_per_relation=40, domain_size=4, seed=seed)
        row_db = row_twin(col_db)
        decomposition = complete_decomposition(
            optimal_decomposition(query.hypergraph())
        )
        structural = hypertree_plan_ir(query, decomposition)
        row_plan = execute_plan(structural, row_db)
        col_plan = execute_plan(structural, col_db)
        assert row_plan.boolean == col_plan.boolean
        assert row_plan.stats.snapshot() == col_plan.stats.snapshot()
        row_naive = execute_plan(join_order_plan_ir(query), row_db)
        col_naive = execute_plan(join_order_plan_ir(query), col_db)
        assert row_naive.boolean == col_naive.boolean
        assert row_naive.stats.snapshot() == col_naive.stats.snapshot()

    def test_non_boolean_answers_match_across_engines(self, row_twin):
        query = build_query(
            [("r0", ["X0", "X1"]), ("r1", ["X1", "X2"]), ("r2", ["X2", "X0"])],
            output_variables=["X0", "X2"],
            name="triangle_out",
        )
        col_db = uniform_database(query, tuples_per_relation=30, domain_size=4, seed=5)
        row_db = row_twin(col_db)
        decomposition = complete_decomposition(
            optimal_decomposition(query.hypergraph())
        )
        structural = hypertree_plan_ir(query, decomposition)
        row_result = execute_plan(structural, row_db)
        col_result = execute_plan(structural, col_db)
        assert row_result.relation == col_result.relation
        assert row_result.stats.snapshot() == col_result.stats.snapshot()

    def test_bound_atoms_match_across_engines(self):
        rows = [(1, 1), (1, 2), (2, 2), (2, 2), (3, 1)]
        row_db = Database(
            relations={"r": Relation("r", ["a", "b"], rows)}, columnar=False
        )
        col_db = Database(relations={"r": Relation("r", ["a", "b"], rows)})
        query = build_query([("r", ["X", "X"])], name="diag")
        assert row_db.bind_atom(query.atoms[0]) == col_db.bind_atom(query.atoms[0])
        constant = build_query([("r", ["X", "2"])], name="const")
        assert row_db.bind_atom(constant.atoms[0]) == col_db.bind_atom(
            constant.atoms[0]
        )

    def test_unknown_constant_binds_empty(self):
        col_db = Database(relations={"r": Relation("r", ["a", "b"], [(1, 2)])})
        query = build_query([("r", ["X", "99"])], name="missing")
        bound = col_db.bind_atom(query.atoms[0])
        assert bound.cardinality == 0


class TestColumnarBudget:
    def test_join_stops_at_budget_not_past_it(self):
        # A blow-up join: 300x300 rows over a 2-value domain joins to ~45k
        # pairs.  The vectorised kernel knows the emit count before
        # materialising, so it must stop at the budget, not overshoot.
        dictionary = Dictionary()
        rows = [(i % 2, i) for i in range(300)]
        left = ColumnarRelation.from_relation(
            Relation("l", ["k", "a"], rows), dictionary
        )
        right = ColumnarRelation.from_relation(
            Relation("r", ["k", "b"], rows), dictionary
        )
        stats = OperatorStats(budget=10_000)
        with pytest.raises(EvaluationBudgetExceeded) as excinfo:
            natural_join(left, right, stats=stats)
        # Nothing was recorded (the join aborted before materialising) and
        # the reported work is the pre-computed would-be total.
        assert stats.total_work == 0
        assert excinfo.value.work_so_far > 10_000

    def test_row_join_checks_mid_probe(self):
        # The row kernel checks between probe batches; with a tiny budget it
        # aborts before finishing instead of recording a huge result.
        rows = [(i % 2, i) for i in range(600)]
        left = Relation("l", ["k", "a"], rows)
        right = Relation("r", ["k", "b"], rows)
        stats = OperatorStats(budget=1_000)
        with pytest.raises(EvaluationBudgetExceeded):
            natural_join(left, right, stats=stats)
        assert stats.tuples_emitted == 0  # aborted mid-operator, not recorded
