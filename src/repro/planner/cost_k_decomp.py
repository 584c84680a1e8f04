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

:func:`cost_k_decomp` plans one bound; :func:`best_plan_over_k` plans a
sweep of bounds (Fig. 8(A)) with one shared :class:`QueryCostTAF`, each
bound's plan identical to the standalone one.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence, Tuple

from repro.db.statistics import CatalogStatistics
from repro.decomposition.hypertree import DecompositionNode, HypertreeDecomposition
from repro.decomposition.minimal import minimal_k_decomp
from repro.decomposition.normal_form import complete_decomposition
from repro.exceptions import NoDecompositionExistsError, PlanningError
from repro.hypergraph.hypergraph import Hypergraph
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


def _check_completion(completion: str) -> None:
    if completion not in ("fresh", "post"):
        raise PlanningError(f"unknown completion mode {completion!r}")


def _planned(
    query: ConjunctiveQuery, statistics: CatalogStatistics, completion: str
) -> Tuple[Hypergraph, QueryCostTAF]:
    """The hypergraph cost-k-decomp searches and the TAF it weighs with,
    after checking ``completion``: under ``"fresh"`` the hypergraph of the
    query with a fresh variable added to every atom.  A k-sweep builds this
    pair once and plans every bound with it, so the TAF's per-label cost
    memos stay warm across bounds."""
    _check_completion(completion)
    planned_query = (
        query.with_fresh_head_variables() if completion == "fresh" else query
    )
    return planned_query.hypergraph(), QueryCostTAF(planned_query, statistics)


def _plan(
    query: ConjunctiveQuery,
    k: int,
    completion: str,
    hypergraph: Hypergraph,
    taf: QueryCostTAF,
) -> HypertreePlan:
    """The minimal width-``k`` plan over ``_planned``'s pair."""
    started = time.perf_counter()
    try:
        decomposition = minimal_k_decomp(hypergraph, k, taf)
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
    else:
        # The fresh variables have served their purpose (forcing strong
        # covering); execute against the original query hypergraph.
        decomposition = _strip_fresh_variables(decomposition, query.hypergraph())

    return HypertreePlan(
        query=query,
        decomposition=decomposition,
        estimated_cost=estimated_cost,
        k=k,
        node_estimates=node_estimates,
        planning_seconds=time.perf_counter() - started,
        weighting=taf.name,
    )


def cost_k_decomp(
    query: ConjunctiveQuery,
    statistics: CatalogStatistics,
    k: int,
    completion: str = "fresh",
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
        decomposes the original hypergraph and completes afterwards.

    Several bounds over one query are cheaper through
    :func:`best_plan_over_k`, which shares one TAF across them.

    Raises
    ------
    PlanningError
        If no width-``k`` decomposition exists, or ``completion`` is invalid.
    """
    return _plan(query, k, completion, *_planned(query, statistics, completion))


def best_plan_over_k(
    query: ConjunctiveQuery,
    statistics: CatalogStatistics,
    k_values: Sequence[int],
    completion: str = "fresh",
    plan_cache=None,
) -> Dict[int, HypertreePlan]:
    """Plans for several width bounds (the Fig. 8(A) sweep ``k = 2..5``).

    Every bound is planned exactly like a standalone :func:`cost_k_decomp`,
    but the sweep builds the planned hypergraph and its
    :class:`QueryCostTAF` once and shares them, so the TAF's cost-model
    memos stay warm across bounds (each bound builds its own candidates
    graph).  With a ``plan_cache`` (a :class:`~repro.db.storage.PlanCache`,
    keyed additionally by ``k`` and ``completion``) each bound is looked up
    first and a hit replays the stored winner with ``planning_seconds ==
    0.0``; the TAF is built on the first miss, so a fully warm sweep builds
    no planner state at all.  Returns a dict ``k -> plan`` keyed in
    first-seen order, each bound planned once however often it repeats;
    values of ``k`` below the query's hypertree width are silently skipped
    (planning fails there by definition), an unknown ``completion`` is not.
    """
    _check_completion(completion)
    planned: Optional[Tuple[Hypergraph, QueryCostTAF]] = None

    def plan(k: int) -> HypertreePlan:
        nonlocal planned
        if planned is None:
            planned = _planned(query, statistics, completion)
        return _plan(query, k, completion, *planned)

    plans: Dict[int, HypertreePlan] = {}
    for k in dict.fromkeys(k_values):
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
