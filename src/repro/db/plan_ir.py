"""A shared plan-node IR for both plan shapes.

The paper compares two plan families -- the baseline's left-deep join
orders and cost-k-decomp's hypertree plans -- and the comparison is only
fair if both execute on the *identical* kernels.  This module gives them a
common intermediate representation: a small tree of plan nodes that
:func:`repro.db.executor.execute_plan` interprets against a database,
routing every operator through :mod:`repro.db.algebra` (and hence through
the columnar kernels whenever the database is columnar).

Nodes
-----
* :class:`ScanNode` -- bind one query atom (memoised per atom, as
  ``bind_query`` did);
* :class:`JoinNode` -- natural-join the inputs left-to-right;
  ``smallest_first`` re-orders them by runtime cardinality first (the
  per-node expression discipline of ``E(p)``);
* :class:`ProjectNode` -- ``Π`` with optional duplicate elimination;
* :class:`YannakakisNode` -- evaluate per-node expressions, assemble the
  acyclic tree query and run Yannakakis' algorithm over it.

The builders :func:`join_order_plan_ir` and :func:`hypertree_plan_ir`
reproduce, operator for operator, the exact sequences the historical
``naive_join_evaluation`` / ``execute_hypertree_plan`` performed, so
``OperatorStats`` work counts are unchanged.

Task extraction
---------------
:func:`yannakakis_task_dag` walks a :class:`YannakakisNode` into the
dependency DAG of its per-subtree tasks (expression evaluation, both
semijoin passes, the join fold, the answer projection) and
:func:`join_input_task_dag` does the same for the independent inputs of a
:class:`JoinNode`.  The specs carry keys and dependencies only -- the
executor supplies the callables -- and are emitted in the order of the
serial algorithm, so running them in list order (``threads=1``) *is* the
serial execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from repro.exceptions import DatabaseError
from repro.query.conjunctive import ConjunctiveQuery, is_fresh_variable

PlanNode = Union["ScanNode", "JoinNode", "ProjectNode", "YannakakisNode"]


@dataclass(frozen=True)
class ScanNode:
    """Bind one query atom (by atom name) against the database."""

    atom_name: str


@dataclass(frozen=True)
class JoinNode:
    """Natural join of the inputs, folded left-to-right.

    With ``smallest_first`` the evaluated inputs are joined in ascending
    order of runtime cardinality (stable, so ties keep the input order) --
    the default order for the handful of relations in a λ label.
    """

    inputs: Tuple[PlanNode, ...]
    smallest_first: bool = False


@dataclass(frozen=True)
class ProjectNode:
    """``Π_attributes`` over the input plan."""

    input: PlanNode
    attributes: Tuple[str, ...]
    distinct: bool = True
    name: Optional[str] = None


@dataclass(frozen=True)
class YannakakisNode:
    """Evaluate one plan per decomposition node, then run Yannakakis.

    ``children`` and ``expressions`` are (id, value) tuples rather than
    dicts so the node stays hashable; their order is the evaluation order.
    For a Boolean query only the bottom-up semijoin pass runs.
    """

    root: object
    children: Tuple[Tuple[object, Tuple[object, ...]], ...]
    expressions: Tuple[Tuple[object, PlanNode], ...]
    output_variables: Tuple[str, ...] = ()
    boolean: bool = False


@dataclass
class QueryPlanIR:
    """An executable plan: a node tree plus the query it answers."""

    query: ConjunctiveQuery
    root: PlanNode
    boolean: bool = False

    def execute(
        self,
        database,
        budget: Optional[int] = None,
        threads: Optional[int] = None,
        memory_budget_bytes: Optional[int] = None,
        trace=None,
        trace_id=None,
    ):
        """Interpret the plan against ``database`` (see
        :func:`repro.db.executor.execute_plan`).

        ``memory_budget_bytes`` drives the adaptive morsel sizing of the
        chunked join kernels.  The resulting ``OperatorStats`` stay
        representation-blind: every work counter and
        ``peak_transient_elements`` are byte-identical across column
        encodings, thread counts and chunkings; only the dtype-aware
        ``peak_transient_bytes`` reflects the actual packed widths.
        ``trace``/``trace_id`` forward to the executor's span recorder
        (a write-only sidecar; results unchanged)."""
        from repro.db.executor import execute_plan

        return execute_plan(
            self,
            database,
            budget=budget,
            threads=threads,
            memory_budget_bytes=memory_budget_bytes,
            trace=trace,
            trace_id=trace_id,
        )


# ----------------------------------------------------------------------
# Task extraction: the dependency DAG the executor runs.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TaskSpec:
    """One schedulable unit: a key plus the keys it must wait for."""

    key: Tuple[str, object]
    deps: Tuple[Tuple[str, object], ...]


def _tree_orders(node: YannakakisNode):
    """BFS and post-order node id sequences of a YannakakisNode's tree."""
    children = {node_id: tuple(kids) for node_id, kids in node.children}
    bfs = [node.root]
    i = 0
    while i < len(bfs):
        bfs.extend(children.get(bfs[i], ()))
        i += 1
    post: list = []
    stack = [(node.root, False)]
    while stack:
        current, expanded = stack.pop()
        if expanded:
            post.append(current)
            continue
        stack.append((current, True))
        for kid in reversed(children.get(current, ())):
            stack.append((kid, False))
    return children, tuple(bfs), tuple(post)


def yannakakis_task_dag(node: YannakakisNode) -> Tuple[TaskSpec, ...]:
    """The per-subtree task DAG of one Yannakakis execution.

    Task kinds (``v`` ranges over decomposition nodes):

    * ``("expr", v)`` -- evaluate ``E(v)``; no dependencies.
    * ``("up", v)`` (inner nodes) -- bottom-up pass at ``v``: semijoin
      ``v`` with each child; needs ``v``'s expression and every child's
      bottom-up result.
    * ``("down", v)`` (non-root, full reduction only) -- top-down pass:
      semijoin ``v`` with its parent's final relation; needs ``v``'s
      bottom-up result and the parent's own final task.
    * ``("fold", v)`` (non-root, non-Boolean only) -- join pass: project
      ``v``'s folded subtree onto what the rest of the tree still needs and
      join it into ``v``'s parent.  It reads ``v``'s slot (final reduction,
      every child's ``fold``) and rewrites the parent's (the parent's final
      reduction, and the previous sibling's ``fold`` -- siblings join into
      the parent in child order, which fixes the answer's row order).
    * ``("project", "answer")`` (non-Boolean only) -- project the folded
      root onto the output variables.

    Sibling subtrees share no dependency, which is exactly the parallelism
    the selection-vector representation makes safe.  Specs are emitted in
    the order of the textbook serial algorithm (expressions, bottom-up
    post-order, top-down BFS, fold post-order, answer), so inline execution
    in list order *is* that algorithm.
    """
    children, bfs, post = _tree_orders(node)

    def reduced_up(node_id) -> Tuple[str, object]:
        """The task after which a node's bottom-up relation is in place."""
        return ("up", node_id) if children.get(node_id) else ("expr", node_id)

    def final(node_id) -> Tuple[str, object]:
        """The task after which a node's reduced relation is final."""
        if node.boolean or node_id == node.root:
            return reduced_up(node_id)
        return ("down", node_id)

    specs = [TaskSpec(("expr", node_id), ()) for node_id, _ in node.expressions]
    for node_id in post:
        kids = children.get(node_id, ())
        if kids:
            deps = (("expr", node_id),) + tuple(reduced_up(kid) for kid in kids)
            specs.append(TaskSpec(("up", node_id), deps))
    if node.boolean:
        return tuple(specs)
    parent = {kid: node_id for node_id in bfs for kid in children.get(node_id, ())}
    for kid in bfs[1:]:
        specs.append(
            TaskSpec(("down", kid), (reduced_up(kid), final(parent[kid])))
        )
    previous = {b: a for kids in children.values() for a, b in zip(kids, kids[1:])}
    for node_id in post[:-1]:
        writers = children.get(node_id, ()) + (
            (previous[node_id],) if node_id in previous else ()
        )
        deps = (final(node_id), final(parent[node_id])) + tuple(
            ("fold", other) for other in writers
        )
        specs.append(TaskSpec(("fold", node_id), deps))
    deps = (final(node.root),) + tuple(
        ("fold", kid) for kid in children.get(node.root, ())
    )
    specs.append(TaskSpec(("project", "answer"), deps))
    return tuple(specs)


def join_input_task_dag(node: JoinNode) -> Tuple[TaskSpec, ...]:
    """The (trivially independent) tasks of a JoinNode's inputs: each input
    subplan may be evaluated concurrently; the join itself then folds the
    results in canonical order."""
    return tuple(TaskSpec(("input", i), ()) for i in range(len(node.inputs)))


def scan_order(node: PlanNode) -> Tuple[str, ...]:
    """The atom name of every :class:`ScanNode` under ``node``, in the
    order the interpreter reaches them.  The executor binds atoms in
    exactly this order *before* running any task: binding may intern
    fresh-variable surrogates into the database's shared dictionary, which
    must stay single-threaded and deterministic."""
    if isinstance(node, ScanNode):
        return (node.atom_name,)
    if isinstance(node, JoinNode):
        below = node.inputs
    elif isinstance(node, ProjectNode):
        below = (node.input,)
    else:
        below = tuple(expression for _, expression in node.expressions)
    return tuple(name for child in below for name in scan_order(child))


# ----------------------------------------------------------------------
# Builders.
# ----------------------------------------------------------------------


def plan_ir_from_payload(query: ConjunctiveQuery, plan_meta) -> QueryPlanIR:
    """Rebuild an executable plan IR from a compact plan payload.

    ``plan_meta`` is the wire format the serving plane ships and the plan
    cache stores: ``{"kind": "join_order", "order": [...]}`` or ``{"kind":
    "hypertree", "decomposition": <decomposition_to_payload(...)>}`` (the
    PlanCache's decomposition-payload format -- no pickles, key-echoed).
    A malformed payload raises :class:`~repro.exceptions.StorageFormatError`
    (via the decomposition codec) or :class:`DatabaseError`.
    """
    try:
        kind = plan_meta["kind"]
    except (TypeError, KeyError) as exc:
        raise DatabaseError(f"plan payload has no kind: {plan_meta!r}") from exc
    if kind == "join_order":
        try:
            order = [str(name) for name in plan_meta["order"]]
        except (KeyError, TypeError) as exc:
            raise DatabaseError(
                f"malformed join-order plan payload: {plan_meta!r}"
            ) from exc
        return join_order_plan_ir(query, order)
    if kind == "hypertree":
        # Local import: repro.db.storage sits above this module in the
        # import graph (it pulls in the database layer).
        from repro.db.storage import decomposition_from_payload

        try:
            payload = plan_meta["decomposition"]
        except (KeyError, TypeError) as exc:
            raise DatabaseError(
                f"malformed hypertree plan payload: {plan_meta!r}"
            ) from exc
        decomposition = decomposition_from_payload(query.hypergraph(), payload)
        return hypertree_plan_ir(query, decomposition)
    raise DatabaseError(f"unknown plan payload kind {kind!r}")


def join_order_plan_ir(
    query: ConjunctiveQuery, order: Optional[Sequence[str]] = None
) -> QueryPlanIR:
    """The left-deep plan: join all bound atoms in ``order`` (textual order
    by default), then project onto the non-fresh output variables."""
    atom_names = {atom.name for atom in query.atoms}
    names = list(order) if order is not None else sorted(atom_names)
    unknown = [n for n in names if n not in atom_names]
    if unknown:
        raise DatabaseError(f"unknown atoms in join order: {unknown}")
    if set(names) != atom_names:
        raise DatabaseError("join order must mention every atom exactly once")
    joined = JoinNode(tuple(ScanNode(n) for n in names))
    if query.is_boolean:
        return QueryPlanIR(query=query, root=joined, boolean=True)
    wanted = tuple(v for v in query.output_variables if not is_fresh_variable(v))
    return QueryPlanIR(
        query=query,
        root=ProjectNode(joined, wanted, distinct=True, name="answer"),
        boolean=False,
    )


def hypertree_plan_ir(query: ConjunctiveQuery, decomposition) -> QueryPlanIR:
    """The structural plan: ``E(p) = Π_{χ(p)} ⋈_{h ∈ λ(p)} rel(h)`` per
    decomposition node, then Yannakakis over the resulting tree query."""
    atom_names = {atom.name for atom in query.atoms}
    expressions = []
    for node in decomposition.nodes():
        scans = []
        for edge_name in sorted(node.lambda_edges):
            if edge_name not in atom_names:
                raise DatabaseError(
                    f"decomposition uses edge {edge_name!r} which is not an atom "
                    f"of query {query.name!r}"
                )
            scans.append(ScanNode(edge_name))
        expressions.append(
            (
                node.node_id,
                ProjectNode(
                    JoinNode(tuple(scans), smallest_first=True),
                    tuple(sorted(node.chi)),
                    distinct=True,
                ),
            )
        )
    children = tuple(
        (node_id, tuple(decomposition.children(node_id)))
        for node_id in decomposition.node_ids()
    )
    boolean = query.is_boolean
    root = YannakakisNode(
        root=decomposition.root,
        children=children,
        expressions=tuple(expressions),
        output_variables=() if boolean else tuple(query.output_variables),
        boolean=boolean,
    )
    return QueryPlanIR(query=query, root=root, boolean=boolean)
