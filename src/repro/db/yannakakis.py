"""Yannakakis' algorithm for acyclic query evaluation.

Once a structural decomposition method has turned a query into an equivalent
*tree query* -- a join tree whose nodes carry relations -- Yannakakis'
classical algorithm answers it in output-polynomial time (Section 1.1 of the
paper):

1. **bottom-up semijoin pass**: every node is semijoined with each of its
   children, so a node keeps only tuples that have a partner below it;
2. **top-down semijoin pass**: every child is semijoined with its (already
   reduced) parent, making the whole tree globally consistent;
3. **bottom-up join pass**: the reduced node relations are joined bottom-up,
   projecting at each step onto the output variables plus the variables still
   needed higher up, which bounds every intermediate result by the final
   output size (times the input).

For a Boolean query the third pass is unnecessary: after the first pass the
answer is *true* iff the root relation is non-empty.

The node relations here are arbitrary relations over query variables; the
caller (the executor, over a plan lowered by
:func:`repro.db.plan_ir.hypertree_plan_ir`) decides what each node holds.

Both semijoin passes and the join pass are *per-subtree parallel*: sibling
subtrees never read each other's relations, only parent/child pairs do.
:func:`reduction_steps` and :func:`fold_steps` are the one implementation
of each pass: dictionaries of per-node step callables over a shared
relation mapping, keyed exactly like the dependency DAG of
:func:`repro.db.plan_ir.yannakakis_task_dag` and inserted in the serial
algorithm's order.  The executor zips them with the DAG and runs them on a
:class:`~repro.db.scheduler.TaskScheduler`; calling the steps in insertion
order is the serial algorithm (what the executor does at ``threads=1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.db.algebra import OperatorStats, natural_join, project, semijoin
from repro.db.relation import Relation
from repro.exceptions import DatabaseError

#: One schedulable step of a pass; returns the relation it wrote.
Step = Callable[[], Relation]


@dataclass
class TreeQuery:
    """A join tree whose nodes carry relations over query variables.

    ``children`` maps node id -> child ids; ``relations`` maps node id -> its
    relation; ``root`` is the root node id.  Node ids are opaque (ints or
    strings).
    """

    root: object
    children: Dict[object, Tuple[object, ...]]
    relations: Dict[object, Relation]

    def node_ids(self) -> Tuple[object, ...]:
        order = [self.root]
        i = 0
        while i < len(order):
            order.extend(self.children.get(order[i], ()))
            i += 1
        return tuple(order)

    def post_order(self) -> Tuple[object, ...]:
        result: List[object] = []

        def visit(node) -> None:
            for kid in self.children.get(node, ()):
                visit(kid)
            result.append(node)

        visit(self.root)
        return tuple(result)

    def validate(self) -> None:
        ids = self.node_ids()
        if set(ids) != set(self.relations):
            raise DatabaseError(
                "tree query is inconsistent: tree nodes and relations differ"
            )


def reduction_steps(
    tree: TreeQuery,
    relations: Dict[object, Relation],
    stats: Optional[OperatorStats] = None,
    full: bool = True,
) -> Dict[Tuple[str, object], Step]:
    """The semijoin program as per-node steps over the shared ``relations``
    mapping: ``("up", v)`` semijoins an inner node ``v`` with each child in
    child order (bottom-up, children first); ``("down", c)`` semijoins ``c``
    with its already-final parent (top-down, parents first; only when
    ``full``).  Each step owns the slot it writes and reads only slots its
    DAG dependencies wrote."""

    def reduce_step(node, partners) -> Step:
        def step() -> Relation:
            for partner in partners:
                relations[node] = semijoin(
                    relations[node], relations[partner], stats=stats
                )
            return relations[node]
        return step

    steps: Dict[Tuple[str, object], Step] = {}
    for node in tree.post_order():
        kids = tree.children.get(node, ())
        if kids:
            steps[("up", node)] = reduce_step(node, kids)
    if full:
        for node in tree.node_ids():
            for child in tree.children.get(node, ()):
                steps[("down", child)] = reduce_step(child, (node,))
    return steps


@dataclass
class FoldPlan:
    """The static metadata of the bottom-up join pass.

    Computed once from the (reduced) tree -- semijoins never change a
    relation's attributes, so everything here is known before any join
    runs: ``wanted`` the output attributes, ``parent`` the child->parent
    map, and ``keeps[v]`` the projection list applied to the folded subtree
    of ``v`` before it is joined into its parent (output variables plus the
    variables still needed higher up, the discipline that makes Yannakakis
    output-polynomial).
    """

    wanted: List[str]
    parent: Dict[object, object]
    keeps: Dict[object, List[str]]


def fold_plan(tree: TreeQuery, output_variables: Sequence[str]) -> FoldPlan:
    """Precompute the join pass: what every folded subtree keeps."""
    relations = tree.relations
    wanted = list(output_variables)
    if not wanted:
        seen = set()
        for relation in relations.values():
            for attribute in relation.attributes:
                if attribute not in seen:
                    seen.add(attribute)
                    wanted.append(attribute)
    wanted_set = set(wanted)

    parent: Dict[object, object] = {tree.root: None}
    for node in tree.node_ids():
        for child in tree.children.get(node, ()):
            parent[child] = node

    # ``above[v]``: attributes appearing outside the subtree rooted at ``v``
    # (of the *unfolded* node relations).  One bottom-up pass collects the
    # per-subtree attribute sets, one top-down pass combines each node's
    # ``above`` with its own attributes and every sibling subtree.
    subtree_attrs: Dict[object, set] = {}
    for node in tree.post_order():
        attrs = set(relations[node].attributes)
        for child in tree.children.get(node, ()):
            attrs |= subtree_attrs[child]
        subtree_attrs[node] = attrs
    above: Dict[object, set] = {tree.root: set()}
    for node in tree.node_ids():
        kids = tree.children.get(node, ())
        base = above[node] | set(relations[node].attributes)
        for child in kids:
            outside = set(base)
            for sibling in kids:
                if sibling != child:
                    outside |= subtree_attrs[sibling]
            above[child] = outside

    # Attributes of every *folded* subtree, bottom-up: a node's own columns
    # plus, in child order, whatever each child's kept contribution adds --
    # the exact column order the natural joins of the fold produce.
    keeps: Dict[object, List[str]] = {}
    for node in tree.post_order():
        attrs = list(relations[node].attributes)
        present = set(attrs)
        for child in tree.children.get(node, ()):
            for attribute in keeps[child]:
                if attribute not in present:
                    present.add(attribute)
                    attrs.append(attribute)
        if node != tree.root:
            node_above = above[node]
            keeps[node] = [
                a for a in attrs if a in node_above or a in wanted_set
            ]
    return FoldPlan(wanted=wanted, parent=parent, keeps=keeps)


def fold_steps(
    tree: TreeQuery,
    folded: Dict[object, Relation],
    plan: FoldPlan,
    stats: Optional[OperatorStats] = None,
) -> Dict[Tuple[str, object], Step]:
    """The join pass as per-node steps over the shared ``folded`` mapping
    (initially the reduced relations): ``("fold", v)`` projects ``v``'s
    completed subtree onto its keep list and joins it into ``v``'s parent
    (bottom-up, children first, siblings in child order);
    ``("project", "answer")`` finally replaces the root's slot with its
    projection onto the output attributes."""

    def fold_step(node, parent) -> Step:
        def step() -> Relation:
            contribution = project(folded[node], plan.keeps[node], stats=stats)
            folded[parent] = natural_join(folded[parent], contribution, stats=stats)
            return folded[parent]
        return step

    def answer_step() -> Relation:
        folded[tree.root] = project(
            folded[tree.root], plan.wanted, stats=stats, name="answer"
        )
        return folded[tree.root]

    steps: Dict[Tuple[str, object], Step] = {
        ("fold", node): fold_step(node, plan.parent[node])
        for node in tree.post_order()
        if node != tree.root
    }
    steps[("project", "answer")] = answer_step
    return steps
