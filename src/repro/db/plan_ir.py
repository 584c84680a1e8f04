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

:func:`hypertree_plan_ir` is the one lowering of a decomposition (each
``E(p)`` becomes ``ProjectNode(JoinNode(..., smallest_first=True))``) and
refuses an incomplete one, so no plan that reaches
:func:`~repro.db.executor.execute_plan` -- the one way to execute a plan --
can skip the completeness precondition of Section 6.

Plan payloads
-------------
This module owns "bytes -> validated plan".
:func:`decomposition_from_payload` is the one decomposition decoder: it
rebuilds the tree and then checks Definition 2.1's four conditions *and*
completeness (the same check, and message, as :func:`hypertree_plan_ir`)
against the query's own hypergraph, so a decomposition that is not a query
plan is refused with a :class:`~repro.exceptions.DatabaseError` naming what
it violates -- never executed.  :func:`plan_ir_from_payload`
decodes a whole plan block for execution, checking completeness once (in
the decoder; its lowering does not repeat the check).  Both ways a plan
arrives as data end here: the wire (``execute_payload``) and a
:class:`~repro.db.storage.PlanCache` entry (the plan classes'
``from_payload``).

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
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.decomposition.hypertree import DecompositionNode, HypertreeDecomposition
from repro.exceptions import DatabaseError, DecompositionError, HypergraphError
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
# Plan payloads: the one codec between plans and JSON.
# ----------------------------------------------------------------------


def decomposition_to_payload(decomposition) -> Dict[str, object]:
    """A JSON-safe rendering of a hypertree decomposition: the rooted tree
    plus the λ/χ labels (components are planner-internal and dropped)."""
    return {
        "root": int(decomposition.root),
        "children": {
            str(node_id): [int(kid) for kid in decomposition.children(node_id)]
            for node_id in decomposition.node_ids()
        },
        "nodes": {
            str(node.node_id): {
                "lambda": sorted(node.lambda_edges),
                "chi": sorted(node.chi),
            }
            for node in decomposition.nodes()
        },
    }


def _exactly(value, kind: type):
    """``value`` if it is exactly a ``kind`` (a ``bool`` is not an ``int``
    here), else ``TypeError``."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def _listed(values, kind: type) -> list:
    """``values`` if it is a JSON list of ``kind`` items, else ``TypeError``."""
    for value in _exactly(values, list):
        _exactly(value, kind)
    return values


def decomposition_from_payload(hypergraph, payload) -> HypertreeDecomposition:
    """Rebuild a decomposition of ``hypergraph`` from
    :func:`decomposition_to_payload` output and check it is a query plan:
    tree shape (the constructor), Definition 2.1's four conditions
    (:meth:`~HypertreeDecomposition.validate`) and completeness.  Anything
    else raises :class:`DatabaseError` naming the defect."""
    try:
        nodes = {
            int(node_id): DecompositionNode(
                node_id=int(node_id),
                lambda_edges=frozenset(_listed(meta["lambda"], str)),
                chi=frozenset(_listed(meta["chi"], str)),
            )
            for node_id, meta in payload["nodes"].items()
        }
        children = {
            int(node_id): tuple(_listed(kids, int))
            for node_id, kids in payload["children"].items()
        }
        decomposition = HypertreeDecomposition(
            hypergraph=hypergraph,
            root=_exactly(payload["root"], int),
            children=children,
            nodes=nodes,
        )
        decomposition.validate()
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DatabaseError(f"malformed decomposition payload: {exc!r}") from exc
    except (DecompositionError, HypergraphError) as exc:
        raise DatabaseError(f"decomposition is not a query plan: {exc}") from exc
    _check_complete(decomposition, hypergraph.edge_names)
    return decomposition


def _check_complete(decomposition, atom_names) -> None:
    """Raise :class:`DatabaseError` naming the atoms no node strongly
    covers: Yannakakis over an incomplete decomposition answers a different
    query (Section 6), so such a decomposition is never a plan.  An atom of
    ``atom_names`` that the decomposition's own hypergraph lacks counts as
    not covered too: a decomposition of another hypergraph never saw it."""
    edges = set(decomposition.hypergraph.edge_names)
    uncovered = list(decomposition.not_strongly_covered())
    uncovered += sorted(name for name in atom_names if name not in edges)
    if uncovered:
        raise DatabaseError(
            "decomposition is not a query plan: it is not complete, no node "
            f"strongly covers {uncovered}"
        )


def plan_ir_from_payload(query: ConjunctiveQuery, plan_meta) -> QueryPlanIR:
    """Rebuild an executable plan IR from a plan payload -- the block the
    serving plane ships and the plan cache stores.  Execution reads ``kind``
    plus ``order`` (``"join_order"``: every atom exactly once) or
    ``decomposition`` (``"hypertree"``: checked by
    :func:`decomposition_from_payload`); any other key is the plan classes'
    (estimates).  A malformed payload raises :class:`DatabaseError`."""
    if not isinstance(plan_meta, Mapping):
        raise DatabaseError(f"plan payload must be a mapping, got {plan_meta!r}")
    kind = plan_meta.get("kind")
    if kind == "join_order":
        try:
            order = _listed(plan_meta.get("order"), str)
        except TypeError as exc:
            raise DatabaseError(f"malformed join-order plan payload: {exc}") from exc
        return join_order_plan_ir(query, order)
    if kind == "hypertree":
        return _lower_hypertree(
            query,
            decomposition_from_payload(
                query.hypergraph(), plan_meta.get("decomposition")
            ),
            checked=True,
        )
    raise DatabaseError(f"unknown plan payload kind {kind!r}")


# ----------------------------------------------------------------------
# Builders.
# ----------------------------------------------------------------------


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
    if sorted(names) != sorted(atom_names):
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
    decomposition node, then Yannakakis over the resulting tree query.

    This is the one lowering of a decomposition, so it is where
    completeness is enforced: an incomplete decomposition (some atom not
    strongly covered) raises :class:`DatabaseError` naming the atoms."""
    return _lower_hypertree(query, decomposition, checked=False)


def _lower_hypertree(query: ConjunctiveQuery, decomposition, checked: bool):
    """:func:`hypertree_plan_ir`; ``checked`` skips the completeness check
    for a decomposition :func:`decomposition_from_payload` already checked
    against ``query.hypergraph()``."""
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
    if not checked:
        _check_complete(decomposition, atom_names)
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
