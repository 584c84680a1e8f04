"""Correctness checks.  A mismatch is counted per op and fails the run
(``correct: false``, exit code 1); refusals and timeouts are not the oracle's
business -- the workloads count those into ``failed``."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.db.serving import execute_payload, strip_provenance
from repro.db.storage import decomposition_to_payload
from repro.exceptions import DecompositionError


class CountDrift(AssertionError):
    """A count that must repeat exactly did not."""


def plan_mismatches(planned: Sequence[Tuple[object, object]]) -> List[bool]:
    """One verdict per ``(PlanCase, HypertreePlan)`` row, ``True`` = wrong.

    A plan is right when its decomposition satisfies the four hypertree
    conditions, its width is at most ``k``, it equals every other plan of the
    same case (decomposition and estimated cost), and the estimated cost does
    not rise with ``k`` for the same query and statistics."""
    first: Dict[str, Tuple[object, float]] = {}
    by_query: Dict[str, List[Tuple[int, float]]] = {}  # case family -> (k, cost)
    verdicts = []
    for case, plan in planned:
        shape = decomposition_to_payload(plan.decomposition)
        seen = first.get(case.name)
        if seen is None:
            first[case.name] = (shape, plan.estimated_cost)
            by_query.setdefault(_family(case), []).append(
                (case.k, plan.estimated_cost)
            )
            try:
                plan.decomposition.validate()
                wrong = plan.width > case.k
            except DecompositionError:
                wrong = True
        else:
            wrong = seen != (shape, plan.estimated_cost)
        verdicts.append(wrong)
    rising = set()
    for family, costs in by_query.items():
        costs.sort()
        for (_, cost_below), (k, cost) in zip(costs, costs[1:]):
            if cost > cost_below:
                rising.add((family, k))
    return [
        wrong or (_family(case), case.k) in rising
        for wrong, (case, _) in zip(verdicts, planned)
    ]


def _family(case) -> str:
    """``q1_k4`` -> ``q1``: the cases that differ only in ``k``."""
    return case.name.rsplit("_k", 1)[0]


def comparable(response: Mapping, across_engines: bool = False) -> Dict[str, object]:
    """The part of a response that is a function of (data, payload) alone.
    Across engines the peak of transient index arrays is left out as well:
    the row engine allocates none."""
    reduced = strip_provenance(response)
    if across_engines and "stats" in reduced:
        reduced["stats"] = {
            key: value
            for key, value in reduced["stats"].items()
            if key != "peak_transient_elements"
        }
    return reduced


def expected_response(
    payload: Mapping, database, across_engines: bool = False
) -> Dict[str, object]:
    """What the program must answer for ``payload``: the same payload run
    once, serially and in-process, on ``database`` -- the row-engine twin for
    ``exec_replay``, the opened store for the pooled and daemon tiers."""
    response = execute_payload(payload, database)
    if response.get("status") != "ok":
        raise AssertionError(
            f"oracle run of {response.get('query')!r} ended {response.get('status')!r}; "
            "recalibrate the case so it finishes inside its budget"
        )
    return comparable(response, across_engines)


def matches(response: Mapping, expected: Mapping, across_engines: bool = False) -> bool:
    return comparable(response, across_engines) == expected


def require_exact_repeat(name: str, values: Iterable) -> object:
    """The single value a count took on every op; raises if it varied."""
    distinct = {repr(value): value for value in values}
    if len(distinct) != 1:
        raise CountDrift(f"{name} must repeat exactly, saw {sorted(distinct)}")
    return next(iter(distinct.values()))
