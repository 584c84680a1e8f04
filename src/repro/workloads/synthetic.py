"""Synthetic query/database workload generators.

Beyond the paper's own benchmark queries, the test suite, the ablation
benchmarks and the scalability experiments need families of queries with
controlled structure:

* :func:`chain_query` / :func:`star_query` -- acyclic (width-1) join queries
  of arbitrary length, the classical data-warehouse populating shapes the
  paper's introduction motivates (long, not very intricate queries);
* :func:`cycle_query` -- the canonical width-2 cyclic query;
* :func:`snowflake_query` -- a star of chains (acyclic but long);
* :func:`random_cyclic_query` -- random connected queries of bounded rank;
* :func:`workload_database` -- a random database for any of those queries
  with a chosen cardinality and attribute-domain size (the density knob that
  controls how explosive joins are).
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.db.database import Database
from repro.db.generator import uniform_database
from repro.db.storage import cached_database, query_fingerprint
from repro.exceptions import QueryError
from repro.query.conjunctive import ConjunctiveQuery, build_query


def chain_query(num_atoms: int, arity: int = 2, name: str = "chain") -> ConjunctiveQuery:
    """``r0(X0, X1) ∧ r1(X1, X2) ∧ ...`` -- an acyclic chain join.

    With ``arity > 2`` each atom carries extra private variables, which keeps
    the chain structure but fattens the relations.
    """
    if num_atoms < 1:
        raise QueryError("a chain query needs at least one atom")
    body = []
    extra_counter = 0
    for i in range(num_atoms):
        terms = [f"X{i}", f"X{i + 1}"]
        for _ in range(arity - 2):
            terms.append(f"P{extra_counter}")
            extra_counter += 1
        body.append((f"r{i}", terms))
    return build_query(body, name=name)


def star_query(num_rays: int, name: str = "star") -> ConjunctiveQuery:
    """A star join: every atom shares the hub variable ``H`` (acyclic)."""
    if num_rays < 1:
        raise QueryError("a star query needs at least one ray")
    body = [(f"r{i}", ["H", f"X{i}"]) for i in range(num_rays)]
    return build_query(body, name=name)


def cycle_query(length: int, name: str = "cycle") -> ConjunctiveQuery:
    """``r0(X0,X1) ∧ r1(X1,X2) ∧ ... ∧ r_{n-1}(X_{n-1},X0)``: hypertree
    width 2 for ``length ≥ 4`` (and 2 for length 3 as well, since no single
    edge covers the triangle's three vertices)."""
    if length < 3:
        raise QueryError("a cycle query needs at least three atoms")
    body = [
        (f"r{i}", [f"X{i}", f"X{(i + 1) % length}"])
        for i in range(length)
    ]
    return build_query(body, name=name)


def snowflake_query(num_arms: int, arm_length: int, name: str = "snowflake") -> ConjunctiveQuery:
    """A hub with ``num_arms`` chains of ``arm_length`` atoms hanging off it
    (acyclic, long -- the data-warehouse populating shape)."""
    if num_arms < 1 or arm_length < 1:
        raise QueryError("snowflake needs at least one arm of length one")
    body: List[Tuple[str, List[str]]] = []
    for arm in range(num_arms):
        previous = "Hub"
        for step in range(arm_length):
            current = f"A{arm}_{step}"
            body.append((f"r{arm}_{step}", [previous, current]))
            previous = current
    return build_query(body, name=name)


def random_cyclic_query(
    num_atoms: int,
    num_variables: int,
    arity: int = 3,
    seed: int = 0,
    name: str = "random",
) -> ConjunctiveQuery:
    """A random connected query: each atom picks ``<= arity`` variables, with
    a spanning structure guaranteeing connectivity."""
    if num_atoms < 1 or num_variables < 2:
        raise QueryError("need at least one atom and two variables")
    rng = random.Random(seed)
    variables = [f"V{i}" for i in range(num_variables)]
    body: List[Tuple[str, List[str]]] = []
    connected = [variables[0]]
    remaining = variables[1:]
    index = 0
    while remaining and index < num_atoms:
        anchor = rng.choice(connected)
        fresh = remaining.pop(0)
        others = rng.sample(variables, k=min(max(arity - 2, 0), len(variables)))
        terms = [anchor, fresh] + [v for v in others if v not in (anchor, fresh)][: arity - 2]
        body.append((f"r{index}", terms))
        connected.append(fresh)
        index += 1
    while index < num_atoms:
        size = rng.randint(2, arity)
        terms = rng.sample(variables, k=min(size, len(variables)))
        body.append((f"r{index}", terms))
        index += 1
    return build_query(body, name=name)


def workload_database(
    query: ConjunctiveQuery,
    tuples_per_relation: int = 200,
    domain_size: int = 10,
    seed: int = 0,
    cache_dir=None,
) -> Database:
    """A random database for a synthetic query.

    ``domain_size`` much smaller than ``tuples_per_relation`` reproduces the
    paper's density regime (joins that blow up unless the plan is careful);
    ``domain_size`` of the same order as the cardinality gives sparse,
    selective joins.

    Generation goes through the content-addressed workload cache of
    :mod:`repro.db.storage` keyed by (query fingerprint, cardinality,
    domain, seed): when a cache directory is configured (``cache_dir`` or
    ``REPRO_WORKLOAD_CACHE_DIR``) a repeated call opens the stored columns
    (mmap, no interning) instead of regenerating; otherwise it generates as
    before.  Either way the data is identical -- the cache stores exactly
    what the generator would produce.
    """
    return cached_database(
        kind="uniform-workload",
        params={
            "query": query_fingerprint(query),
            "tuples_per_relation": int(tuples_per_relation),
            "domain_size": int(domain_size),
            "seed": int(seed),
        },
        builder=lambda: uniform_database(
            query,
            tuples_per_relation=tuples_per_relation,
            domain_size=domain_size,
            seed=seed,
        ),
        cache_dir=cache_dir,
    )


def scalability_suite(
    max_atoms: int = 12, step: int = 2, seed: int = 0
) -> Dict[str, ConjunctiveQuery]:
    """A family of growing queries for the scalability benchmark: chains and
    cycles from 4 atoms up to ``max_atoms``."""
    suite: Dict[str, ConjunctiveQuery] = {}
    for n in range(4, max_atoms + 1, step):
        suite[f"chain_{n}"] = chain_query(n, name=f"chain_{n}")
        suite[f"cycle_{n}"] = cycle_query(n, name=f"cycle_{n}")
    return suite
