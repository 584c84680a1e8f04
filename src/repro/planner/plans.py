"""Logical query plans.

Two plan shapes appear in the paper's experiments:

* :class:`HypertreePlan` -- a (complete) weighted hypertree decomposition of
  the query, annotated with the per-node cost estimates (the ``$`` labels of
  Figs. 6 and 7); produced by ``cost-k-decomp``.
* :class:`JoinOrderPlan` -- a left-deep join order, the plan shape commercial
  optimisers explore; produced by the baseline System-R style optimiser that
  stands in for "CommDB".

Both lower to the shared plan-node IR with ``to_ir()``, and
``execute_plan(plan.to_ir(), database, ...)`` (:mod:`repro.db.executor`) --
the one way to execute a plan -- runs them and returns an
:class:`~repro.db.executor.ExecutionResult` carrying the work counters the
experiments compare.  Both own one ``to_payload()`` /
``from_payload()`` pair whose JSON block is the
:class:`~repro.db.storage.PlanCache` entry and the serving wire's ``"plan"``
alike (execution reads only ``kind`` + ``decomposition`` | ``order``, the
estimates ride along); ``from_payload`` goes through the validating decoders
of :mod:`repro.db.plan_ir`, raises :class:`~repro.exceptions.DatabaseError`
otherwise, and reports ``planning_seconds == 0.0`` (nothing was planned).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Tuple

from repro.db.plan_ir import (
    QueryPlanIR,
    decomposition_from_payload,
    decomposition_to_payload,
    hypertree_plan_ir,
    join_order_plan_ir,
    plan_ir_from_payload,
)
from repro.db.storage import query_fingerprint, statistics_digest
from repro.decomposition.hypertree import HypertreeDecomposition, NodeId
from repro.exceptions import DatabaseError
from repro.query.conjunctive import ConjunctiveQuery


@dataclass
class HypertreePlan:
    """A structural query plan: a complete hypertree decomposition plus the
    estimates the planner used to pick it."""

    kind = "hypertree"

    query: ConjunctiveQuery
    decomposition: HypertreeDecomposition
    estimated_cost: float
    k: int
    node_estimates: Dict[NodeId, float] = field(default_factory=dict)
    planning_seconds: float = 0.0
    #: Name of the weighting function the planner minimised (for reports).
    weighting: str = "cost_H(Q)"

    @property
    def width(self) -> int:
        return self.decomposition.width

    def to_ir(self) -> QueryPlanIR:
        """Lower the plan to the shared plan-node IR (the same node tree and
        kernels the baseline plan executes on)."""
        return hypertree_plan_ir(self.query, self.decomposition)

    def to_payload(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "decomposition": decomposition_to_payload(self.decomposition),
            "estimated_cost": self.estimated_cost,
            "k": self.k,
            "node_estimates": {
                str(node_id): value for node_id, value in self.node_estimates.items()
            },
            "weighting": self.weighting,
        }

    @classmethod
    def from_payload(cls, query: ConjunctiveQuery, payload) -> "HypertreePlan":
        if not isinstance(payload, Mapping) or payload.get("kind") != cls.kind:
            raise DatabaseError(f"not a hypertree plan payload: {payload!r}")
        decomposition = decomposition_from_payload(
            query.hypergraph(), payload.get("decomposition")
        )
        try:
            return cls(
                query=query,
                decomposition=decomposition,
                estimated_cost=float(payload["estimated_cost"]),
                k=int(payload["k"]),
                node_estimates={
                    int(node_id): float(value)
                    for node_id, value in payload["node_estimates"].items()
                },
                weighting=str(payload["weighting"]),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DatabaseError(f"malformed hypertree plan payload: {exc!r}") from exc

    def describe(self) -> str:
        lines = [
            f"Hypertree plan for {self.query.name} (k={self.k}, width={self.width}, "
            f"estimated cost={self.estimated_cost:,.0f})"
        ]

        def visit(node_id: NodeId, depth: int) -> None:
            node = self.decomposition.node(node_id)
            estimate = self.node_estimates.get(node_id)
            cost = f"  $≈{estimate:,.0f}" if estimate is not None else ""
            lam = ", ".join(sorted(node.lambda_edges))
            chi = ", ".join(sorted(node.chi))
            lines.append(f"{'  ' * (depth + 1)}λ={{{lam}}} χ={{{chi}}}{cost}")
            for kid in self.decomposition.children(node_id):
                visit(kid, depth + 1)

        visit(self.decomposition.root, 0)
        return "\n".join(lines)


@dataclass
class JoinOrderPlan:
    """A quantitative-only plan: a left-deep join order over the query atoms."""

    kind = "join_order"

    query: ConjunctiveQuery
    order: Tuple[str, ...]
    estimated_cost: float
    planning_seconds: float = 0.0

    def to_ir(self) -> QueryPlanIR:
        """Lower the plan to the shared plan-node IR."""
        return join_order_plan_ir(self.query, self.order)

    def to_payload(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "order": list(self.order),
            "estimated_cost": self.estimated_cost,
        }

    @classmethod
    def from_payload(cls, query: ConjunctiveQuery, payload) -> "JoinOrderPlan":
        if not isinstance(payload, Mapping) or payload.get("kind") != cls.kind:
            raise DatabaseError(f"not a join-order plan payload: {payload!r}")
        plan_ir_from_payload(query, payload)  # every atom exactly once
        try:
            cost = float(payload["estimated_cost"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DatabaseError(f"malformed join-order plan payload: {exc!r}") from exc
        return cls(query=query, order=tuple(payload["order"]), estimated_cost=cost)

    def describe(self) -> str:
        chain = " ⋈ ".join(self.order)
        return (
            f"Left-deep plan for {self.query.name}: {chain} "
            f"(estimated cost={self.estimated_cost:,.0f})"
        )


def cached_plan(
    plan_cache, plan_class, query, statistics, planner: Callable, **knobs
):
    """``planner()`` through ``plan_cache`` (``None``: uncached).  The key is
    (plan kind, query fingerprint, statistics digest, ``knobs``), so any
    statistics change is a miss.  A hit is ``plan_class.from_payload`` of
    the stored block; an entry that decoder refuses -- corrupt, or not a
    plan for ``query`` -- is replanned and overwritten, exactly like a
    miss.  Only successful plans are stored."""
    if plan_cache is None:
        return planner()
    key = {
        "kind": plan_class.kind,
        "query": query_fingerprint(query),
        "statistics": statistics_digest(statistics),
        **knobs,
    }
    payload = plan_cache.lookup(key)
    if payload is not None:
        try:
            return plan_class.from_payload(query, payload)
        except DatabaseError:
            pass
    plan = planner()
    plan_cache.store(key, plan.to_payload())
    return plan
