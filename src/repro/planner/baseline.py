"""The quantitative-only baseline optimiser (the "CommDB" stand-in).

The paper compares cost-k-decomp against the internal optimiser of a
commercial DBMS.  Commercial optimisers are purely quantitative: they
restrict the search space to plans with a very simple structure -- typically
*left-deep join trees* -- and pick the cheapest according to a cost model
driven by relation sizes and attribute selectivities (Section 1.2).

:class:`SystemROptimizer` is exactly that classical algorithm:

* the search space is the left-deep join orders over the query atoms;
* the cost of an order is the estimated size of every intermediate join
  result plus the input scans (the same cardinality estimator the
  structure-aware planner uses, so the comparison isolates the *search
  space*, not the cost model);
* the search is the System-R dynamic program over atom subsets, avoiding
  Cartesian products whenever a connected extension exists, with a greedy
  fallback for queries too large for the exact DP.

Execution of the resulting plan is a flat pipeline of pairwise joins with no
semijoin reduction and no early projection -- the behaviour whose worst case
is ``O(n^ℓ)`` in the query length ℓ rather than ``O(n^{w+1})`` in the width,
which is precisely the gap the paper's experiments exhibit.
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.db.costmodel import CardinalityEstimator
from repro.db.statistics import CatalogStatistics
from repro.exceptions import PlanningError
from repro.planner.plans import JoinOrderPlan, cached_plan
from repro.query.conjunctive import ConjunctiveQuery


class SystemROptimizer:
    """Left-deep dynamic-programming join-order optimiser."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        statistics: CatalogStatistics,
        exhaustive_limit: int = 13,
    ) -> None:
        self.query = query
        self.statistics = statistics
        self.estimator = CardinalityEstimator(query, statistics)
        self.exhaustive_limit = exhaustive_limit
        self._adjacent: Dict[str, FrozenSet[str]] = self._atom_adjacency()

    # ------------------------------------------------------------------
    def _atom_adjacency(self) -> Dict[str, FrozenSet[str]]:
        """Atoms sharing at least one variable (used to avoid Cartesian
        products during the search)."""
        atoms = self.query.atoms
        adjacency: Dict[str, set] = {a.name: set() for a in atoms}
        for i, first in enumerate(atoms):
            for second in atoms[i + 1:]:
                if set(first.variables) & set(second.variables):
                    adjacency[first.name].add(second.name)
                    adjacency[second.name].add(first.name)
        return {name: frozenset(neigh) for name, neigh in adjacency.items()}

    def _order_cost(self, order: Sequence[str]) -> float:
        """Cost of a left-deep order: input scans plus every intermediate
        (and final) join-result estimate."""
        cost = sum(self.estimator.profile(name).cardinality for name in order)
        for prefix_length in range(2, len(order) + 1):
            cost += self.estimator.join_cardinality(list(order[:prefix_length]))
        return cost

    # ------------------------------------------------------------------
    def _optimize_exhaustive(self) -> Tuple[Tuple[str, ...], float]:
        """System-R dynamic programming over atom subsets (left-deep only)."""
        names = [a.name for a in self.query.atoms]
        best: Dict[FrozenSet[str], Tuple[float, Tuple[str, ...]]] = {}
        for name in names:
            subset = frozenset({name})
            best[subset] = (self.estimator.profile(name).cardinality, (name,))

        for size in range(2, len(names) + 1):
            for combo in combinations(names, size):
                subset = frozenset(combo)
                choices: List[Tuple[float, Tuple[str, ...]]] = []
                connected_choices: List[Tuple[float, Tuple[str, ...]]] = []
                for last in combo:
                    rest = subset - {last}
                    if rest not in best:
                        continue
                    rest_cost, rest_order = best[rest]
                    order = rest_order + (last,)
                    cost = rest_cost
                    cost += self.estimator.profile(last).cardinality
                    cost += self.estimator.join_cardinality(list(order))
                    entry = (cost, order)
                    choices.append(entry)
                    if any(other in self._adjacent[last] for other in rest):
                        connected_choices.append(entry)
                pool = connected_choices or choices
                if pool:
                    best[subset] = min(pool)
        full = frozenset(names)
        if full not in best:
            raise PlanningError("dynamic program failed to cover all atoms")
        cost, order = best[full]
        return order, cost

    def _optimize_greedy(self) -> Tuple[Tuple[str, ...], float]:
        """Greedy smallest-intermediate-first ordering for very large queries."""
        names = [a.name for a in self.query.atoms]
        remaining = set(names)
        start = min(remaining, key=lambda n: self.estimator.profile(n).cardinality)
        order = [start]
        remaining.remove(start)
        while remaining:
            connected = [
                n for n in remaining if any(o in self._adjacent[n] for o in order)
            ]
            pool = connected or sorted(remaining)
            nxt = min(
                pool,
                key=lambda n: self.estimator.join_cardinality(order + [n]),
            )
            order.append(nxt)
            remaining.remove(nxt)
        order_tuple = tuple(order)
        return order_tuple, self._order_cost(order_tuple)

    # ------------------------------------------------------------------
    def optimize(self) -> JoinOrderPlan:
        """Pick the cheapest left-deep plan."""
        started = time.perf_counter()
        if len(self.query.atoms) <= self.exhaustive_limit:
            order, cost = self._optimize_exhaustive()
        else:
            order, cost = self._optimize_greedy()
        elapsed = time.perf_counter() - started
        return JoinOrderPlan(
            query=self.query,
            order=order,
            estimated_cost=cost,
            planning_seconds=elapsed,
        )


def baseline_plan(
    query: ConjunctiveQuery, statistics: CatalogStatistics, plan_cache=None
) -> JoinOrderPlan:
    """The best left-deep plan for the query, through ``plan_cache`` (a
    :class:`~repro.db.storage.PlanCache`) when one is given: a hit skips the
    join-order search and reports ``planning_seconds == 0.0``."""
    return cached_plan(
        plan_cache, JoinOrderPlan, query, statistics,
        lambda: SystemROptimizer(query, statistics).optimize(),
    )
