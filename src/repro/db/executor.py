"""Executing query plans through the shared plan-node IR.

A (complete) hypertree decomposition of a query is a query plan (Section 1.1
and Section 6 of the paper): first evaluate, for every decomposition node
``p``, the expression ``E(p) = Π_{χ(p)} ⋈_{h ∈ λ(p)} rel(h)``; the resulting
tree of relations is an acyclic *tree query* which Yannakakis' algorithm then
answers in output-polynomial time.

Both plan shapes -- hypertree plans and the baseline's left-deep join
orders -- are lowered to the IR of :mod:`repro.db.plan_ir`
(:func:`~repro.db.plan_ir.hypertree_plan_ir`, which refuses an incomplete
decomposition, and :func:`~repro.db.plan_ir.join_order_plan_ir`) and
interpreted by :func:`execute_plan`, so they run on the identical operator
kernels (columnar whenever the database is columnar) and their work
counters are directly comparable.  :func:`execute_plan` is the one way to
execute a plan -- ``execute_plan(plan.to_ir(), database, ...)`` for the
planner's plan classes -- and the one signature that names the execution
options; its result reports the work performed, which is what the Fig. 8
experiments measure.

There is one execution path: every plan lowers to a task DAG
(:func:`~repro.db.plan_ir.yannakakis_task_dag` /
:func:`~repro.db.plan_ir.join_input_task_dag`) that a
:class:`~repro.db.scheduler.TaskScheduler` runs -- inline and in list order
at ``threads=1`` (the textbook serial algorithm), on a thread pool above
(independent sibling subtrees overlap and the big numpy kernels release the
GIL).  The execution options are arguments of :func:`execute_plan` only
(and keys of the serving wire payload, which passes them on):

* ``threads`` (``None`` = 1) -- the scheduler's width.  Answers, row order
  and ``OperatorStats`` are scheduling-independent; ``threads=1`` is the
  reference configuration the equivalence suite compares against, and the
  row engine (``columnar=False``) is the independent oracle of the whole
  plane.
* ``memory_budget_bytes`` (``None`` = 64 MiB emit chunks) -- sizes the
  columnar join's emit chunks, which caps its output-sized transient index
  arrays (see :mod:`repro.db.columnar`); results, emit counts and the
  evaluation-budget stop are unchanged.
* ``trace`` (``None`` = off) -- a span recorder, a write-only sidecar.

Both limits of one execution -- the work ``budget`` and
``memory_budget_bytes`` -- ride on the execution's one
:class:`~repro.db.algebra.OperatorStats`, the accumulator every kernel
already receives; ``threads`` and the trace options are consumed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.db.algebra import OperatorStats, join_all, project
from repro.db.database import Database
from repro.db.lifecycle import check_integer
from repro.db.plan_ir import (
    JoinNode,
    ProjectNode,
    QueryPlanIR,
    ScanNode,
    YannakakisNode,
    join_input_task_dag,
    scan_order,
    yannakakis_task_dag,
)
from repro.db.relation import Relation
from repro.db.scheduler import TaskScheduler
from repro.db.yannakakis import TreeQuery, fold_plan, fold_steps, reduction_steps
from repro.obs.trace import span_context
from repro.exceptions import DatabaseError


@dataclass
class ExecutionResult:
    """The outcome of running a query plan.

    ``relation`` is the answer relation (``None`` for Boolean queries);
    ``boolean`` the Boolean answer (``None`` for non-Boolean queries);
    ``stats`` the relational-operator work counters.
    """

    relation: Optional[Relation]
    boolean: Optional[bool]
    stats: OperatorStats

    @property
    def cardinality(self) -> int:
        if self.relation is None:
            return 1 if self.boolean else 0
        return self.relation.cardinality

    def answer_rows(self) -> Optional[list]:
        """The decoded answer rows as a JSON-safe list of lists (``None``
        for Boolean queries), preserving the engine's row order exactly --
        the form the serving plane ships back to clients and the
        equivalence suites compare byte-for-byte."""
        if self.relation is None:
            return None
        return [list(row) for row in self.relation.rows]

    def answer_json(self) -> Optional[str]:
        """:meth:`answer_rows` as compact JSON text, byte-identical to
        ``json.dumps(self.answer_rows(), separators=(",", ":"))`` but, on
        the columnar engine, rendered column-wise without building the
        rows (``None`` for Boolean queries).  This is the form the serving
        plane encodes an answer in, once, in the worker."""
        if self.relation is None:
            return None
        return self.relation.rows_json()

    def stats_payload(self) -> Dict[str, object]:
        """A JSON-safe rendering of the work counters: the representation-
        blind :meth:`OperatorStats.snapshot` plus the per-operator counts
        and ``peak_transient_elements``.  Every field is deterministic
        across column widths, chunkings and thread counts, so two
        executions of the same plan against the same data must produce
        equal payloads (the serving plane's determinism contract); the row
        engine keeps every field but ``peak_transient_elements``, which
        it reports as 0.  The dtype-aware ``peak_transient_bytes`` is
        deliberately excluded."""
        payload = dict(self.stats.snapshot())
        payload["operations"] = {
            key: self.stats.operations[key]
            for key in sorted(self.stats.operations)
        }
        payload["peak_transient_elements"] = self.stats.peak_transient_elements
        return payload


def execute_plan(
    plan: QueryPlanIR,
    database: Database,
    budget: Optional[int] = None,
    threads: Optional[int] = None,
    memory_budget_bytes: Optional[int] = None,
    trace=None,
    trace_id=None,
) -> ExecutionResult:
    """Interpret a plan-node IR tree against ``database``.

    This is the single execution path for every plan shape: atoms are bound
    once (memoised per atom name) and every operator goes through
    :mod:`repro.db.algebra`, which dispatches to the columnar kernels when
    the database is columnar.  ``budget`` caps the total evaluation work
    (tuples read + emitted); exceeding it raises
    :class:`repro.db.algebra.EvaluationBudgetExceeded` -- with ``threads >
    1`` the raise happens in whichever task crosses the budget first, but
    *whether* it happens is scheduling-independent (counters only grow).
    ``threads``/``memory_budget_bytes``: see the module docstring; each is
    ``None`` or an integer ``>= 1`` (the serving wire's rule,
    :func:`~repro.db.lifecycle.check_integer`), anything else raises
    :class:`DatabaseError`.  Both limits are set once, on the execution's
    :class:`OperatorStats`, which is how the kernels see them.

    ``trace`` (a :class:`repro.obs.trace.TraceRecorder`) records one span
    per plan node (``scan:``/``join``/``project:``, category ``plan``) and
    per Yannakakis task (``expr:``/``up:``/``down:``/``fold:<node>``,
    ``project:answer``, category ``yannakakis``) -- the same set at every
    thread count -- tagged ``trace_id``, with morsel counts and emit sizes
    in the span attrs.  Tracing is a write-only sidecar: answers, row
    order and every ``OperatorStats`` counter are byte-identical with it on
    or off.
    """
    check_integer("threads", threads, 1)
    check_integer("memory_budget_bytes", memory_budget_bytes, 1)
    scheduler = TaskScheduler(threads or 1)
    inline = TaskScheduler(1)

    stats = OperatorStats(budget=budget, memory_budget_bytes=memory_budget_bytes)
    atoms = {atom.name: atom for atom in plan.query.atoms}
    # Scans run first and serially, whatever the thread count: binding may
    # intern fresh-variable surrogates into the shared dictionary, which
    # must happen in one deterministic order.
    bound: Dict[str, Relation] = {}
    for atom_name in scan_order(plan.root):
        with span_context(trace, f"scan:{atom_name}", "plan", trace_id) as span:
            if atom_name not in bound:
                bound[atom_name] = database.bind_atom(atoms[atom_name])
            span.attrs["rows"] = bound[atom_name].cardinality

    def run(node, needed=None, pool: TaskScheduler = inline) -> Relation:
        """Evaluate a Scan/Join/Project subtree.  ``pool`` is where the
        inputs of the first join below ``node`` run as independent tasks:
        the thread pool for the plan root, inline everywhere deeper."""
        if isinstance(node, ScanNode):
            return bound[node.atom_name]
        if isinstance(node, JoinNode):
            inputs: list = [None] * len(node.inputs)

            def input_task(index, child):
                def evaluate_input() -> None:
                    inputs[index] = run(child)
                return evaluate_input

            pool.run(
                [
                    (spec.key, spec.deps, input_task(index, child))
                    for index, (spec, child) in enumerate(
                        zip(join_input_task_dag(node), node.inputs)
                    )
                ]
            )
            with span_context(
                trace, "join", "plan", trace_id, inputs=len(inputs)
            ) as span:
                order = None
                if node.smallest_first:
                    order = sorted(
                        range(len(inputs)), key=lambda i: inputs[i].cardinality
                    )
                relation = join_all(inputs, stats=stats, order=order, needed=needed)
                span.attrs["rows"] = relation.cardinality
            return relation
        if isinstance(node, ProjectNode):
            # Kernel-level projection pushdown: the join below gathers only
            # the columns this projection (or a later join key) still needs;
            # cardinalities and OperatorStats are unchanged.
            inner = run(node.input, needed=frozenset(node.attributes), pool=pool)
            with span_context(
                trace, f"project:{node.name or 'answer'}", "plan", trace_id
            ) as span:
                relation = project(
                    inner,
                    list(node.attributes),
                    stats=stats,
                    name=node.name,
                    distinct=node.distinct,
                )
                span.attrs["rows"] = relation.cardinality
            return relation
        raise DatabaseError(f"unknown plan node: {node!r}")

    root = plan.root
    if isinstance(root, YannakakisNode):
        return _execute_yannakakis(root, run, stats, scheduler, trace, trace_id)
    # A Boolean plan only needs the root cardinality, so the top-level join
    # may drop every column that no longer feeds a join key.
    needed = frozenset() if plan.boolean else None
    result = run(root, needed=needed, pool=scheduler)
    if plan.boolean:
        return ExecutionResult(
            relation=None, boolean=result.cardinality > 0, stats=stats
        )
    return ExecutionResult(relation=result, boolean=None, stats=stats)


def _execute_yannakakis(
    root: YannakakisNode, run, stats, scheduler: TaskScheduler, trace, trace_id
) -> ExecutionResult:
    """Run one Yannakakis plan as its per-subtree task DAG.

    Phase one executes expressions and both semijoin passes as one DAG
    (independent sibling subtrees overlap freely); the join fold needs the
    reduced tree's metadata (:func:`repro.db.yannakakis.fold_plan`), so it
    runs as a second DAG.  Determinism comes from the dependency edges
    (each relation slot has exactly one writer at a time) and the
    commutative ``OperatorStats`` counters.
    """
    # Pre-seed the mapping in canonical order: concurrent writes then
    # preserve this key order, keeping attribute collection deterministic.
    relations: Dict[object, Relation] = {
        node_id: None for node_id, _ in root.expressions
    }
    tree = TreeQuery(
        root=root.root,
        children={node_id: tuple(kids) for node_id, kids in root.children},
        relations=relations,
    )
    tree.validate()
    specs = yannakakis_task_dag(root)

    def traced(key, step):
        """One span per task, named after its key."""
        def traced_step() -> None:
            with trace.span(
                f"{key[0]}:{key[1]}", category="yannakakis", trace_id=trace_id
            ) as span:
                span.attrs["rows"] = step().cardinality
        return traced_step

    def run_steps(steps) -> None:
        scheduler.run(
            [(s.key, s.deps, steps[s.key]) for s in specs if s.key in steps],
            wrap=None if trace is None else traced,
        )

    def expression_step(node_id, expression):
        def step() -> Relation:
            relations[node_id] = run(expression)
            return relations[node_id]
        return step

    steps = {
        ("expr", node_id): expression_step(node_id, expression)
        for node_id, expression in root.expressions
    }
    steps.update(reduction_steps(tree, relations, stats, full=not root.boolean))
    run_steps(steps)
    if root.boolean:
        answer = relations[root.root].cardinality > 0
        return ExecutionResult(relation=None, boolean=answer, stats=stats)

    run_steps(
        fold_steps(
            tree, relations, fold_plan(tree, list(root.output_variables)), stats
        )
    )
    return ExecutionResult(relation=relations[root.root], boolean=None, stats=stats)
