"""cost-k-decomp: minimal-k-decomp specialised to the query-cost TAF.

Section 6 of the paper: given a conjunctive query ``Q``, catalog statistics
and a width bound ``k``, compute a ``[cost_H(Q), kNFD_{H(Q)}]``-minimal
weighted hypertree decomposition and read it as a query plan.

Two details from the paper are handled here:

* **Completeness.**  Query answering needs *complete* decompositions, but NF
  decompositions need not be complete (and some hypergraphs have no complete
  NF decomposition at all).  The paper's remedy is to add a fresh variable to
  every query atom before decomposing -- then every atom must be strongly
  covered -- and filter the fresh variables out of the emitted plan.  That is
  the default behaviour (``completion="fresh"``); ``completion="post"``
  instead decomposes the original hypergraph and attaches the missing atoms
  afterwards (cheaper, but the completed decomposition may no longer be
  weight-minimal, exactly as the paper warns).
* **Reporting.**  The per-node ``$`` estimates of Figs. 6 and 7 are attached
  to the returned :class:`~repro.planner.plans.HypertreePlan`.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

from repro.db.statistics import CatalogStatistics
from repro.decomposition.candidates import CandidatesGraph
from repro.decomposition.hypertree import DecompositionNode, HypertreeDecomposition
from repro.decomposition.minimal import TieBreaker, minimal_k_decomp
from repro.decomposition.normal_form import complete_decomposition
from repro.exceptions import NoDecompositionExistsError, PlanningError
from repro.hypergraph.hypergraph import Hypergraph
from repro.obs.trace import active_recorder
from repro.planner.plans import HypertreePlan, cached_plan
from repro.query.conjunctive import ConjunctiveQuery, is_fresh_variable
from repro.weights.querycost import QueryCostTAF


def _strip_fresh_variables(
    decomposition: HypertreeDecomposition, original_hypergraph: Hypergraph
) -> HypertreeDecomposition:
    """Remove the fresh completeness variables from every χ label.

    The fresh variables exist only to force every atom to be strongly covered
    during planning (Section 6); carrying them into execution would prevent
    the per-node projections from deduplicating.  Dropping them yields a
    complete decomposition of the *original* query hypergraph with the same
    tree, the same λ labels and the same width.
    """
    nodes = {}
    for node in decomposition.nodes():
        nodes[node.node_id] = DecompositionNode(
            node_id=node.node_id,
            lambda_edges=node.lambda_edges,
            chi=frozenset(v for v in node.chi if not is_fresh_variable(v)),
            component=None,
        )
    children = {
        node_id: decomposition.children(node_id)
        for node_id in decomposition.node_ids()
    }
    return HypertreeDecomposition(
        hypergraph=original_hypergraph,
        root=decomposition.root,
        children=children,
        nodes=nodes,
    )


class CostPlanningFamily:
    """Shared planning state for several ``cost_k_decomp`` calls on one
    (query, statistics, completion) triple -- the Fig. 8(A) k-sweep, the
    doubling search of ``best_plan_over_k``, re-planning after a statistics
    refresh at a new ``k``.

    Holds the planned query (with its fresh completeness variables), its
    hypergraph and one :class:`QueryCostTAF` whose per-label cost memos
    therefore persist across the sweep -- the sweep's whole saving.  Each
    bound's candidates graph is built fresh by its ``cost_k_decomp`` call
    and not kept.  Construction does no planning work; everything expensive
    happens inside the per-``k`` ``cost_k_decomp`` call (and is charged to
    its ``planning_seconds``).
    """

    __slots__ = ("query", "statistics", "completion", "planned_query",
                 "hypergraph", "taf")

    def __init__(
        self,
        query: ConjunctiveQuery,
        statistics: CatalogStatistics,
        completion: str = "fresh",
    ) -> None:
        if completion not in {"fresh", "post", "none"}:
            raise PlanningError(f"unknown completion mode {completion!r}")
        self.query = query
        self.statistics = statistics
        self.completion = completion
        self.planned_query = (
            query.with_fresh_head_variables() if completion == "fresh" else query
        )
        self.hypergraph = self.planned_query.hypergraph()
        self.taf = QueryCostTAF(self.planned_query, statistics)

    def matches(
        self, query: ConjunctiveQuery, statistics: CatalogStatistics, completion: str
    ) -> bool:
        return (
            self.query == query
            and self.statistics is statistics
            and self.completion == completion
        )


def planning_family(
    query: ConjunctiveQuery,
    statistics: CatalogStatistics,
    completion: str = "fresh",
) -> CostPlanningFamily:
    """A reusable :class:`CostPlanningFamily` for k-sweeps over one query."""
    return CostPlanningFamily(query, statistics, completion=completion)


def cost_k_decomp(
    query: ConjunctiveQuery,
    statistics: CatalogStatistics,
    k: int,
    completion: str = "fresh",
    tie_breaker: Optional[TieBreaker] = None,
    graph: Optional[CandidatesGraph] = None,
    family: Optional[CostPlanningFamily] = None,
) -> HypertreePlan:
    """Compute the minimal-cost width-``k`` normal-form plan for ``query``.

    Parameters
    ----------
    query:
        The conjunctive query to plan.
    statistics:
        Catalog statistics (cardinalities and attribute selectivities) of the
        underlying database.
    k:
        Width bound; must be at least the hypertree width of the (completed)
        query hypergraph or planning fails.
    completion:
        ``"fresh"`` (default) uses the fresh-variable construction so the
        minimal decomposition is complete by construction; ``"post"``
        decomposes the original hypergraph and completes afterwards;
        ``"none"`` returns the NF decomposition as-is (only useful for
        inspection, not for execution).
    graph:
        An already-built candidates graph for the *planned* hypergraph (the
        completed query's hypergraph under ``completion="fresh"``), e.g.
        when re-planning the same query against several catalogs.  Must
        match the hypergraph being decomposed.
    family:
        A :class:`CostPlanningFamily` (see :func:`planning_family`) shared
        across several ``k``: the family's single TAF keeps its cost-model
        memos warm across the sweep (the candidates graph is still built
        fresh for each ``k``).  Mutually exclusive with ``graph``.

    Raises
    ------
    PlanningError
        If no width-``k`` decomposition exists, or ``completion`` is invalid.
    """
    if completion not in {"fresh", "post", "none"}:
        raise PlanningError(f"unknown completion mode {completion!r}")
    if family is not None:
        if graph is not None:
            raise PlanningError("pass either graph= or family=, not both")
        if not family.matches(query, statistics, completion):
            raise PlanningError(
                "the supplied planning family was built for a different "
                "query, statistics or completion mode"
            )

    started = time.perf_counter()
    started_monotonic = time.monotonic()
    if family is not None:
        hypergraph = family.hypergraph
        taf = family.taf
    else:
        planned_query = (
            query.with_fresh_head_variables() if completion == "fresh" else query
        )
        hypergraph = planned_query.hypergraph()
        taf = QueryCostTAF(planned_query, statistics)

    try:
        decomposition = minimal_k_decomp(
            hypergraph, k, taf, tie_breaker=tie_breaker, graph=graph
        )
    except NoDecompositionExistsError as exc:
        raise PlanningError(
            f"query {query.name!r} has no width-{k} normal-form decomposition "
            f"({'with' if completion == 'fresh' else 'without'} the fresh-variable "
            "construction); increase k"
        ) from exc

    estimated_cost = taf.weigh(decomposition)
    node_estimates: Dict[int, float] = {
        node.node_id: taf.node_estimate(node) for node in decomposition.nodes()
    }

    if completion == "post":
        decomposition = complete_decomposition(decomposition)
    elif completion == "fresh":
        # The fresh variables have served their purpose (forcing strong
        # covering); execute against the original query hypergraph.
        decomposition = _strip_fresh_variables(decomposition, query.hypergraph())

    elapsed = time.perf_counter() - started
    recorder = active_recorder()
    if recorder is not None:
        # Planner layers predate the trace= plumbing; they record into the
        # ambient recorder the caller activated (a write-only sidecar --
        # the search itself never sees it).
        recorder.add_span(
            f"plan:{query.name}",
            "planner",
            started_monotonic,
            time.monotonic(),
            attrs={
                "k": k,
                "estimated_cost": float(estimated_cost),
                "weighting": taf.name,
            },
        )
    return HypertreePlan(
        query=query,
        decomposition=decomposition,
        estimated_cost=estimated_cost,
        k=k,
        node_estimates=node_estimates,
        planning_seconds=elapsed,
        weighting=taf.name,
    )


def best_plan_over_k(
    query: ConjunctiveQuery,
    statistics: CatalogStatistics,
    k_values: Sequence[int],
    completion: str = "fresh",
    plan_cache=None,
) -> Dict[int, HypertreePlan]:
    """Plans for several width bounds (the Fig. 8(A) sweep ``k = 2..5``).

    The sweep shares one :class:`CostPlanningFamily`, so the cost-model
    memos of its one TAF stay warm across bounds (each bound builds its own
    candidates graph).  With a ``plan_cache`` (a
    :class:`~repro.db.storage.PlanCache`, keyed additionally by ``k`` and
    ``completion``) each bound is looked up first and a hit replays the
    stored winner with ``planning_seconds == 0.0``; the family is built on
    the first miss, so a fully warm sweep builds no planner state at all.
    Returns a dict ``k -> plan``; values of ``k`` below the query's
    hypertree width are silently skipped (planning fails there by
    definition).
    """
    family: Optional[CostPlanningFamily] = None

    def plan(k: int) -> HypertreePlan:
        nonlocal family
        if family is None:
            family = planning_family(query, statistics, completion=completion)
        return cost_k_decomp(query, statistics, k, completion=completion, family=family)

    plans: Dict[int, HypertreePlan] = {}
    for k in k_values:
        try:
            plans[k] = cached_plan(
                plan_cache, HypertreePlan, query, statistics, lambda: plan(k),
                k=int(k), completion=completion,
            )
        except PlanningError:
            continue
    if not plans:
        raise PlanningError(
            f"no plan found for query {query.name!r} for any k in {list(k_values)}"
        )
    return plans
