"""Equivalence tests for the parallel, memory-bounded execution plane.

Two invariants, each pinned against its reference:

* **chunked vs unchunked kernels** -- ``columnar_natural_join``,
  ``columnar_semijoin`` and project-distinct under any
  ``memory_budget_bytes`` must produce byte-identical output (values *and*
  row order), byte-identical ``OperatorStats`` and the identical
  evaluation-budget stop behaviour as the unbudgeted run (one emit chunk
  at these sizes under the 64 MiB default);
* **``execute_plan`` across configurations** -- any ``threads``/
  ``memory_budget_bytes``/``trace`` combination must return byte-identical
  answers and counters as the ``threads=1`` unbounded run and as the row
  engine (``columnar=False``, the independent oracle), and must raise
  :class:`EvaluationBudgetExceeded` exactly when that run does
  (``work_so_far`` at raise time is the only scheduling-dependent value,
  and is deterministic at ``threads=1``).

Hypothesis drives randomised relations and trees through the
configurations side by side.  ``test_every_configuration_matches_the_row_engine``
is the knob matrix: it draws every execution option together with a query
shape (a constant, a repeated variable, ``"fresh"`` completion, a Boolean
query, an empty relation, the paper's Q1 on its Fig. 8 database), so the
suite runs once rather than once per setting.  Deterministic cases cover the
budget-stop edges (budget hit exactly at an emit-chunk boundary, mid-chunk,
on the first chunk, and with an all-matching key column) and the degenerate
fast paths.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.algebra import (
    EvaluationBudgetExceeded,
    OperatorStats,
    join_all,
    natural_join,
    project,
    semijoin,
)
from repro.db.columnar import ColumnarRelation
from repro.db.database import Database
from repro.db.dictionary import Dictionary
from repro.db.executor import execute_plan
from repro.db.plan_ir import hypertree_plan_ir
from repro.db.relation import Relation
from repro.db.scheduler import TaskScheduler
from repro.db.yannakakis import TreeQuery, fold_plan, fold_steps, reduction_steps
from repro.obs.trace import TraceRecorder
from repro.query.conjunctive import build_query
from repro.query.examples import q1
from repro.workloads.paper_queries import fig8_database
from repro.workloads.synthetic import workload_database

VALUES = [0, 1, 2, 3, "a", "b"]
# 1 byte hits the 512-word emit-chunk floor; the last budget is large
# enough for one chunk.
BUDGETS = st.sampled_from([1, 8_192, 16_384, 1 << 20])


def relation_strategy(attributes, max_size=120):
    """Seeded random relations, sized to span several 512-word emit chunks
    (a ``st.lists`` strategy would rarely grow past one)."""

    def build(seed, size):
        rng = random.Random(seed)
        rows = [tuple(rng.choice(VALUES) for _ in attributes) for _ in range(size)]
        return ("R", tuple(attributes), rows)

    return st.builds(build, st.integers(0, 10_000), st.integers(0, max_size))


def columnar(spec, dictionary):
    name, attributes, rows = spec
    return ColumnarRelation.from_relation(
        Relation(name, attributes, rows), dictionary
    )


def assert_identical(unchunked, chunked):
    """Byte-identical: attributes, values and row order."""
    assert chunked.attributes == unchunked.attributes
    assert chunked.rows == unchunked.rows


def _one_join(memory_budget):
    dictionary = Dictionary()
    rows = [(i % 3, i) for i in range(600)]
    left = columnar(("l", ("k", "a"), rows), dictionary)
    right = columnar(("r", ("k", "b"), rows), dictionary)
    stats = OperatorStats(memory_budget_bytes=memory_budget)
    joined = natural_join(left, right, stats=stats)
    return (joined.attributes, joined.rows), stats


def _fig5_q1_plan(memory_budget):
    """Q1's cost-3-decomp plan over the fig5-profile database (scale 0.2)."""
    from repro.planner.cost_k_decomp import cost_k_decomp
    from repro.query.examples import q1
    from repro.workloads.paper_queries import fig5_database

    database = fig5_database(seed=0, scale=0.2)
    plan = cost_k_decomp(q1(), database.statistics, 3, completion="fresh")
    result = execute_plan(
        plan.to_ir(), database, budget=50_000_000, memory_budget_bytes=memory_budget
    )
    assert result.boolean is True
    return result.boolean, result.stats


class TestChunkedKernelEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        left=relation_strategy(["x", "y"]),
        right=relation_strategy(["y", "z"]),
        budget=BUDGETS,
    )
    def test_chunked_join_is_byte_identical(self, left, right, budget):
        dictionary = Dictionary()
        lc, rc = columnar(left, dictionary), columnar(right, dictionary)
        base_stats = OperatorStats()
        chunk_stats = OperatorStats(memory_budget_bytes=budget)
        base = natural_join(lc, rc, stats=base_stats)
        chunked = natural_join(lc, rc, stats=chunk_stats)
        assert_identical(base, chunked)
        assert base_stats.snapshot() == chunk_stats.snapshot()
        assert base_stats.operations == chunk_stats.operations

    @settings(max_examples=40, deadline=None)
    @given(
        left=relation_strategy(["x", "y", "z"]),
        right=relation_strategy(["y", "z", "w"]),
        budget=BUDGETS,
    )
    def test_chunked_multi_key_join_is_byte_identical(self, left, right, budget):
        # Multi-attribute keys exercise the chunked shift-pack builder.
        dictionary = Dictionary()
        lc, rc = columnar(left, dictionary), columnar(right, dictionary)
        base = natural_join(lc, rc)
        chunked = natural_join(
            lc, rc, stats=OperatorStats(memory_budget_bytes=budget)
        )
        assert_identical(base, chunked)

    @settings(max_examples=40, deadline=None)
    @given(
        left=relation_strategy(["x", "y"]),
        right=relation_strategy(["y", "z"]),
        keep=st.sets(st.sampled_from(["x", "y", "z"])),
        budget=BUDGETS,
    )
    def test_chunked_join_with_pushdown_is_byte_identical(
        self, left, right, keep, budget
    ):
        dictionary = Dictionary()
        lc, rc = columnar(left, dictionary), columnar(right, dictionary)
        base = natural_join(lc, rc, keep=keep)
        chunked = natural_join(
            lc, rc, keep=keep, stats=OperatorStats(memory_budget_bytes=budget)
        )
        assert_identical(base, chunked)

    @settings(max_examples=60, deadline=None)
    @given(
        left=relation_strategy(["x", "y"]),
        right=relation_strategy(["y", "z"]),
        budget=BUDGETS,
    )
    def test_chunked_semijoin_is_byte_identical(self, left, right, budget):
        dictionary = Dictionary()
        lc, rc = columnar(left, dictionary), columnar(right, dictionary)
        base_stats = OperatorStats()
        chunk_stats = OperatorStats(memory_budget_bytes=budget)
        base = semijoin(lc, rc, stats=base_stats)
        chunked = semijoin(lc, rc, stats=chunk_stats)
        assert_identical(base, chunked)
        assert base_stats.snapshot() == chunk_stats.snapshot()

    @settings(max_examples=40, deadline=None)
    @given(
        relation=relation_strategy(["x", "y", "z"]),
        budget=BUDGETS,
        distinct=st.booleans(),
    )
    def test_chunked_project_is_byte_identical(self, relation, budget, distinct):
        dictionary = Dictionary()
        rc = columnar(relation, dictionary)
        base = project(rc, ["x", "z"], distinct=distinct)
        chunked = project(
            rc, ["x", "z"], distinct=distinct,
            stats=OperatorStats(memory_budget_bytes=budget),
        )
        assert_identical(base, chunked)

    def test_semijoin_against_distinct_build_side(self):
        # The project-distinct output is flagged duplicate-free, which picks
        # np.isin's sort kind; the result must not change.
        dictionary = Dictionary()
        left = columnar(("l", ("x", "y"), [(i % 4, i % 3) for i in range(30)]), dictionary)
        right = columnar(("r", ("y",), [(i % 3,) for i in range(20)]), dictionary)
        distinct_right = project(right, ["y"], distinct=True)
        assert distinct_right._known_distinct
        plain = semijoin(left, right)
        via_distinct = semijoin(left, distinct_right)
        assert plain.rows == via_distinct.rows

    def test_empty_side_fast_paths_keep_stats(self):
        dictionary = Dictionary()
        full = columnar(("l", ("x", "y"), [(1, 2), (3, 4)]), dictionary)
        empty = columnar(("r", ("y", "z"), []), dictionary)
        for left, right in ((full, empty), (empty, full), (empty, empty)):
            join_stats, semi_stats = OperatorStats(), OperatorStats()
            joined = natural_join(left, right, stats=join_stats)
            assert joined.cardinality == 0
            assert join_stats.tuples_read == left.cardinality + right.cardinality
            assert join_stats.tuples_emitted == 0
            assert join_stats.operations == {"join": 1}
            semi = semijoin(left, right, stats=semi_stats)
            expected = 0 if right.cardinality == 0 else left.cardinality
            assert semi.cardinality == expected
            assert semi_stats.operations == {"semijoin": 1}

    def test_transient_accounting_shrinks_with_chunking(self):
        # One join, and every join of a whole plan: against the kernels'
        # 64 MiB default, a budget caps the largest transient batch at
        # least 4x lower and leaves the answer and every counter alone.
        for case, budget in ((_one_join, 16_384), (_fig5_q1_plan, 256 * 1024)):
            base, unbounded = case(64 << 20)
            chunked, bounded = case(budget)
            assert chunked == base
            assert bounded.snapshot() == unbounded.snapshot()
            assert bounded.peak_transient_elements * 4 < unbounded.peak_transient_elements


class TestChunkedBudgetStops:
    """The budget stop of the chunked join must be indistinguishable from
    the unchunked kernel: same raise/no-raise decision, same ``work_so_far``
    (the exact would-be total, computed before materialising), and nothing
    recorded on abort."""

    @staticmethod
    def _blowup(probe_rows=120, matches_each=5):
        # Every probe row matches `matches_each` build rows; build side is
        # smaller so the larger side is chunked.  reads = probe + build,
        # emitted = probe * matches_each.
        dictionary = Dictionary()
        build = columnar(
            ("b", ("k", "a"), [(0, j) for j in range(matches_each)]), dictionary
        )
        probe = columnar(
            ("p", ("k", "c"), [(0, 100 + i) for i in range(probe_rows)]), dictionary
        )
        reads = probe_rows + matches_each
        emitted = probe_rows * matches_each
        return build, probe, reads, emitted

    def _assert_same_stop(self, budget, probe_rows=120, matches_each=5):
        # A 1-byte memory budget hits the floor: 512-word emit chunks
        # (5*chunk_emit + 3*chunk_probe <= 512).
        build, probe, reads, emitted = self._blowup(probe_rows, matches_each)
        outcomes = []
        for memory_budget in (None, 1):
            stats = OperatorStats(budget=budget, memory_budget_bytes=memory_budget)
            try:
                result = natural_join(build, probe, stats=stats)
                outcomes.append(("ok", result.rows, stats.snapshot()))
                if memory_budget:  # the join really ran in several chunks
                    assert stats.peak_transient_elements <= 512
            except EvaluationBudgetExceeded as exc:
                outcomes.append(("raise", exc.work_so_far, stats.snapshot()))
                # Aborted before materialising: nothing recorded.
                assert stats.total_work == 0
        assert outcomes[0] == outcomes[1]
        return outcomes[0][0]

    def test_budget_hit_exactly_at_morsel_boundary(self):
        build, probe, reads, emitted = self._blowup()
        # Each probe row costs 5*5 + 3 = 28 words, so an emit chunk covers
        # 18 probe rows: chunk boundaries at emit 90/180/...  A budget of
        # exactly reads + 90 is crossed (total is reads + 600).
        assert self._assert_same_stop(reads + 90) == "raise"

    def test_budget_hit_mid_morsel(self):
        build, probe, reads, emitted = self._blowup()
        assert self._assert_same_stop(reads + 133) == "raise"

    def test_budget_hit_on_first_morsel(self):
        build, probe, reads, emitted = self._blowup()
        assert self._assert_same_stop(reads + 1) == "raise"

    def test_budget_exactly_sufficient_is_not_hit(self):
        build, probe, reads, emitted = self._blowup()
        # record() raises only when total_work *exceeds* the budget.
        assert self._assert_same_stop(reads + emitted) == "ok"

    def test_all_matching_key_column(self):
        # Every key matches every build row: the densest possible counts
        # array; chunked and unchunked must agree on the abort.
        build, probe, reads, emitted = self._blowup(probe_rows=40, matches_each=40)
        assert (
            self._assert_same_stop(
                reads + emitted - 1, probe_rows=40, matches_each=40
            )
            == "raise"
        )
        assert (
            self._assert_same_stop(reads + emitted, probe_rows=40, matches_each=40)
            == "ok"
        )


def _output_query(num_atoms=5):
    body = [
        (f"r{i}", [f"X{i}", f"X{(i + 1) % num_atoms}"]) for i in range(num_atoms)
    ]
    return build_query(body, output_variables=["X0", "X2"], name="cycle_out")


def _answer(result):
    """A result's verdict and rows, row order included (a Boolean query
    has no relation)."""
    relation = result.relation
    rows = None if relation is None else (relation.attributes, relation.rows)
    return result.boolean, rows


def _cycle_shape(first, second, output_variables, name):
    """The 5-cycle over ``r0`` .. ``r4`` with the terms of its first two
    atoms replaced: every shape runs against the 5-cycle's database."""
    body = [("r0", first), ("r1", second)] + [
        (f"r{i}", [f"X{i}", f"X{(i + 1) % 5}"]) for i in range(2, 5)
    ]
    return build_query(body, output_variables=output_variables, name=name)


def _cycle_database(seed):
    return workload_database(
        _output_query(), tuples_per_relation=40, domain_size=6, seed=seed
    )


def _q1_database(seed):
    return fig8_database(q1(), tuples_per_relation=150, seed=seed)


def _dense_q1_database(seed):
    return fig8_database(q1(), tuples_per_relation=400, seed=seed)


#: The knob matrix's query shapes: ``name -> (query, completion, emptied
#: relations, database(seed))``.  A constant selects and drops a column, a
#: repeated variable selects on equal positions, ``"fresh"`` completion
#: binds surrogate columns, a Boolean query folds to a verdict, an empty
#: relation empties every join above it, and ``"q1"`` is the paper's Q1 on
#: its Fig. 8 database (nine atoms, both planners), which answers False at
#: 150 tuples per relation; ``"q1_dense"`` is the same at 400 tuples, where
#: Q1 answers True (every seed 0-15 checked).
QUERY_SHAPES = {
    "constant": (
        _cycle_shape(["X0", "X1"], ["X1", "2"], ["X0", "X3"], "constant"),
        "post", (), _cycle_database,
    ),
    "repeated": (
        _cycle_shape(["X0", "X0"], ["X0", "X2"], ["X0", "X3"], "repeated"),
        "post", (), _cycle_database,
    ),
    "fresh": (_output_query(), "fresh", (), _cycle_database),
    "boolean": (
        _cycle_shape(["X0", "X1"], ["X1", "X2"], [], "boolean"), "post", (),
        _cycle_database,
    ),
    "empty": (_output_query(), "post", ("r2",), _cycle_database),
    "q1": (q1(), "fresh", (), _q1_database),
    "q1_dense": (q1(), "fresh", (), _dense_q1_database),
}


class TestParallelExecutionEquivalence:
    @pytest.mark.parametrize("threads", [2, 4])
    @pytest.mark.parametrize("memory_budget", [None, 2_048, 1 << 20])
    def test_structural_plan_matches_serial(self, threads, memory_budget):
        from repro.planner.cost_k_decomp import cost_k_decomp

        query = _output_query()
        database = workload_database(
            query, tuples_per_relation=80, domain_size=12, seed=7
        )
        plan = cost_k_decomp(query, database.statistics, 2, completion="fresh")
        serial = execute_plan(plan.to_ir(), database, budget=5_000_000)
        parallel = execute_plan(
            plan.to_ir(), database,
            budget=5_000_000,
            threads=threads,
            memory_budget_bytes=memory_budget,
        )
        assert parallel.relation.attributes == serial.relation.attributes
        assert parallel.relation.rows == serial.relation.rows  # incl. row order
        assert parallel.stats.snapshot() == serial.stats.snapshot()
        assert parallel.stats.operations == serial.stats.operations

    @pytest.mark.parametrize("threads", [2, 4])
    def test_baseline_plan_matches_serial(self, threads):
        from repro.planner.baseline import baseline_plan

        query = _output_query()
        database = workload_database(
            query, tuples_per_relation=60, domain_size=10, seed=3
        )
        plan = baseline_plan(query, database.statistics)
        serial = execute_plan(plan.to_ir(), database, budget=20_000_000)
        parallel = execute_plan(
            plan.to_ir(), database,
            budget=20_000_000, threads=threads, memory_budget_bytes=4_096,
        )
        assert parallel.relation.rows == serial.relation.rows
        assert parallel.stats.snapshot() == serial.stats.snapshot()

    @pytest.mark.parametrize("threads", [2, 4])
    def test_boolean_plan_matches_serial(self, threads):
        from repro.planner.cost_k_decomp import cost_k_decomp
        from repro.workloads.synthetic import snowflake_query

        query = snowflake_query(3, 2)
        database = workload_database(
            query, tuples_per_relation=80, domain_size=15, seed=11
        )
        plan = cost_k_decomp(query, database.statistics, 2, completion="fresh")
        serial = execute_plan(plan.to_ir(), database, budget=5_000_000)
        parallel = execute_plan(
            plan.to_ir(), database, budget=5_000_000, threads=threads
        )
        assert parallel.boolean == serial.boolean
        assert parallel.stats.snapshot() == serial.stats.snapshot()

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_tiny_budget_raises_in_every_mode(self, threads):
        from repro.planner.baseline import baseline_plan

        query = _output_query()
        database = workload_database(
            query, tuples_per_relation=60, domain_size=4, seed=1
        )
        plan = baseline_plan(query, database.statistics)
        with pytest.raises(EvaluationBudgetExceeded):
            execute_plan(
                plan.to_ir(), database,
                budget=200, threads=threads, memory_budget_bytes=1_024,
            )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_databases_match_across_modes(self, seed):
        from repro.planner.cost_k_decomp import cost_k_decomp

        query = _output_query()
        database = workload_database(
            query, tuples_per_relation=40, domain_size=6, seed=seed
        )
        plan = cost_k_decomp(query, database.statistics, 2, completion="fresh")
        serial = execute_plan(plan.to_ir(), database, budget=5_000_000)
        for threads, memory_budget in ((2, None), (4, 1_024)):
            parallel = execute_plan(
                plan.to_ir(), database,
                budget=5_000_000,
                threads=threads,
                memory_budget_bytes=memory_budget,
            )
            assert parallel.relation.rows == serial.relation.rows
            assert parallel.stats.snapshot() == serial.stats.snapshot()


    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        shape=st.sampled_from(sorted(QUERY_SHAPES)),
        structural=st.booleans(),
        threads=st.sampled_from([1, 2, 4]),
        memory_budget=st.sampled_from([None, 1, 2_048, 262_144]),
        traced=st.booleans(),
    )
    def test_every_configuration_matches_the_row_engine(
        self, seed, shape, structural, threads, memory_budget, traced
    ):
        """The knob matrix: every ``threads`` x ``memory_budget_bytes`` x
        ``trace`` setting, on every query shape, returns the row engine's
        answers in the row engine's order with its work counters."""
        from repro.planner.baseline import baseline_plan
        from repro.planner.cost_k_decomp import cost_k_decomp

        query, completion, emptied, database = QUERY_SHAPES[shape]
        column_db = database(seed)
        for predicate in emptied:
            stored = column_db.relation(predicate)
            column_db.add_relation(Relation(predicate, stored.attributes, []))
        row_db = Database(
            relations={n: column_db.relation(n) for n in column_db.relation_names()},
            statistics=column_db.statistics,
            columnar=False,
        )
        if structural:
            plan = cost_k_decomp(query, row_db.statistics, 2, completion=completion)
        else:
            plan = baseline_plan(query, row_db.statistics)
        knobs = dict(budget=20_000_000, memory_budget_bytes=memory_budget)
        oracle = execute_plan(plan.to_ir(), row_db, threads=1, **knobs)
        reference = execute_plan(plan.to_ir(), column_db, threads=1, **knobs)
        trace = TraceRecorder() if traced else None
        result = execute_plan(
            plan.to_ir(), column_db, threads=threads, trace=trace, **knobs
        )
        assert _answer(result) == _answer(oracle)  # incl. row order
        if traced:
            assert trace.spans()
        # Scheduling- and tracing-independent down to the peak-memory
        # diagnostic ...
        assert result.stats_payload() == reference.stats_payload()
        # ... which is the one counter the row engine does not keep.
        work, oracle_work = result.stats_payload(), oracle.stats_payload()
        assert work.pop("peak_transient_elements") > 0
        assert oracle_work.pop("peak_transient_elements") == 0
        assert work == oracle_work

    def test_any_dependency_respecting_order_gives_the_same_answer(
        self, monkeypatch
    ):
        # The DAG's edges alone must fix the result: run the tasks in random
        # topological orders (a missing edge shows up deterministically here,
        # where a thread race would only show it sometimes).
        from repro.planner.cost_k_decomp import cost_k_decomp

        # A two-level star: its join tree branches, so sibling folds (which
        # must join into their parent in child order) are exercised.
        query = build_query(
            [
                ("c", ["A", "B", "C"]), ("a1", ["A", "X"]), ("a2", ["B", "Y"]),
                ("a3", ["C", "Z"]), ("b1", ["X", "U"]), ("b2", ["Y", "V"]),
            ],
            output_variables=["U", "V", "Z"],
            name="star",
        )
        database = workload_database(
            query, tuples_per_relation=60, domain_size=8, seed=5
        )
        plan = cost_k_decomp(query, database.statistics, 2, completion="fresh")
        decomposition = plan.decomposition
        assert any(
            len(decomposition.children(n)) > 1 for n in decomposition.node_ids()
        )
        reference = execute_plan(plan.to_ir(), database, threads=1)

        rng = random.Random(13)

        def run_shuffled(self, tasks, wrap=None):
            keys = {key for key, _, _ in tasks}
            done, waiting = set(), list(tasks)
            while waiting:
                ready = [
                    task for task in waiting
                    if all(dep in done or dep not in keys for dep in task[1])
                ]
                task = rng.choice(ready)
                waiting.remove(task)
                task[2]()
                done.add(task[0])

        monkeypatch.setattr(TaskScheduler, "run", run_shuffled)
        for _ in range(25):
            shuffled = execute_plan(plan.to_ir(), database, threads=1)
            assert shuffled.relation.rows == reference.relation.rows
            assert shuffled.stats_payload() == reference.stats_payload()

    @pytest.mark.parametrize("share", [0.1, 0.4, 0.7, 0.95])
    def test_budget_abort_at_one_thread_matches_direct_evaluation(self, share):
        # execute_plan at threads=1 and a hand-driven direct evaluation --
        # E(p) per node, then reduction_steps and fold_steps in insertion
        # order -- run the same steps in the same order, so they abort at
        # the same operator with the same work_so_far.
        from repro.planner.cost_k_decomp import cost_k_decomp

        query = _output_query()
        database = workload_database(
            query, tuples_per_relation=80, domain_size=12, seed=7
        )
        plan = cost_k_decomp(query, database.statistics, 2, completion="fresh")
        executed = plan.query
        ir = hypertree_plan_ir(executed, plan.decomposition)
        total = execute_plan(ir, database, threads=1).stats.total_work
        budget = int(total * share)

        with pytest.raises(EvaluationBudgetExceeded) as planned:
            execute_plan(ir, database, budget=budget, threads=1)
        stats = OperatorStats(budget=budget)
        decomposition = plan.decomposition
        with pytest.raises(EvaluationBudgetExceeded) as direct:
            bound = database.bind_query(executed)
            relations = {}
            for node in decomposition.nodes():
                # E(p) = Π_χ(p) ⋈_λ(p), joined smallest first.
                inputs = [bound[name] for name in sorted(node.lambda_edges)]
                chi = sorted(node.chi)
                order = sorted(range(len(inputs)), key=lambda i: inputs[i].cardinality)
                joined = join_all(inputs, stats=stats, order=order, needed=chi)
                relations[node.node_id] = project(joined, chi, stats=stats)
            tree = TreeQuery(
                root=decomposition.root,
                children={
                    n: decomposition.children(n) for n in decomposition.node_ids()
                },
                relations=relations,
            )
            for step in reduction_steps(tree, relations, stats).values():
                step()
            fold = fold_plan(tree, list(executed.output_variables))
            for step in fold_steps(tree, relations, fold, stats).values():
                step()
        assert planned.value.work_so_far == direct.value.work_so_far
        assert planned.value.budget == direct.value.budget == budget


class TestScheduler:
    def test_scheduler_respects_dependencies(self):
        order = []
        tasks = [
            (("a", 1), (), lambda: order.append("a")),
            (("b", 1), (("a", 1),), lambda: order.append("b")),
            (("c", 1), (("a", 1),), lambda: order.append("c")),
            (("d", 1), (("b", 1), ("c", 1)), lambda: order.append("d")),
        ]
        TaskScheduler(4).run(tasks)
        assert order[0] == "a" and order[-1] == "d"
        assert set(order) == {"a", "b", "c", "d"}

    def test_scheduler_propagates_first_error(self):
        def boom():
            raise ValueError("boom")

        tasks = [
            (("ok", 0), (), lambda: None),
            (("bad", 0), (), boom),
            (("after", 0), (("bad", 0),), lambda: None),
        ]
        with pytest.raises(ValueError, match="boom"):
            TaskScheduler(2).run(tasks)

    def test_scheduler_surfaces_earliest_submitted_error(self):
        # Two independent failures: the later-submitted one finishes first
        # (the earlier sleeps), yet the error surfaced must be the earlier
        # task's -- the one the serial run would have raised -- no matter
        # which future the executor completed first.
        import time

        def slow_first():
            time.sleep(0.2)
            raise ValueError("submitted first")

        def fast_second():
            raise RuntimeError("finished first")

        tasks = [
            (("slow", 0), (), slow_first),
            (("fast", 0), (), fast_second),
        ]
        for _ in range(3):  # repeat: the choice must not depend on timing
            with pytest.raises(ValueError, match="submitted first"):
                TaskScheduler(2).run(tasks)

    def test_scheduler_stops_dispatch_after_error(self):
        # Once a task has failed, tasks that become ready afterwards are
        # never started: here the failing task completes while a slow
        # sibling runs, so the sibling's dependent must not execute.
        import threading
        import time

        ran = []
        started = threading.Event()

        def boom():
            started.wait(5)  # fail only once the sibling is mid-flight
            raise ValueError("boom")

        def slow_ok():
            started.set()
            time.sleep(0.2)
            ran.append("slow")

        tasks = [
            (("bad", 0), (), boom),
            (("slow", 0), (), slow_ok),
            (("dep", 0), (("slow", 0),), lambda: ran.append("dep")),
        ]
        with pytest.raises(ValueError, match="boom"):
            TaskScheduler(2).run(tasks)
        assert "slow" in ran  # already-running work is drained, not killed
        assert "dep" not in ran  # newly-ready work is not dispatched

    def test_scheduler_serial_mode_runs_in_list_order(self):
        order = []
        tasks = [
            (("x", i), (), (lambda i=i: order.append(i))) for i in range(5)
        ]
        TaskScheduler(1).run(tasks)
        assert order == list(range(5))

    def test_task_dag_shape(self):
        from repro.db.plan_ir import yannakakis_task_dag
        from repro.decomposition.kdecomp import optimal_decomposition
        from repro.decomposition.normal_form import complete_decomposition
        from repro.db.plan_ir import hypertree_plan_ir

        query = _output_query()
        decomposition = complete_decomposition(
            optimal_decomposition(query.hypergraph())
        )
        plan = hypertree_plan_ir(query, decomposition)
        specs = yannakakis_task_dag(plan.root)
        keys = {spec.key for spec in specs}
        kinds = {kind for kind, _ in keys}
        assert kinds == {"expr", "up", "down", "fold", "project"}
        # Every dependency points at a task of the DAG, no cycles by kind.
        for spec in specs:
            for dep in spec.deps:
                assert dep in keys
        # Topological in list order.
        seen = set()
        for spec in specs:
            assert all(dep in seen for dep in spec.deps)
            seen.add(spec.key)
