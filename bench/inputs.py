"""Seeded inputs: the queries, statistics and databases the workloads run on.

The *shape* of every database (cardinalities, value frequencies, which tuples
join) is frozen: it comes from the repository's own generators at
``DATA_SEED``.  ``--seed`` then redraws the data isomorphically -- one seeded
permutation relabels every value and every relation's rows are shuffled --
and drives the mix order and the arrival schedule.  Different seeds therefore
give the program different bytes to chew on while the work counters
(``total_work``, tuples read, answer sizes) and the chosen plans stay equal,
so a latency difference between two seeds is noise, not data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.db.database import Database
from repro.db.generator import uniform_database
from repro.db.relation import Relation
from repro.db.statistics import CatalogStatistics
from repro.query.conjunctive import ConjunctiveQuery, build_query, parse_query
from repro.query.examples import q1, q2, q3
from repro.workloads.paper_queries import (
    fig5_database,
    fig5_statistics,
    fig8_database,
    fig8_statistics,
)
from repro.workloads.synthetic import (
    chain_query,
    cycle_query,
    random_cyclic_query,
    snowflake_query,
    workload_database,
)

#: Frozen calibration constant: the generator seed that fixes the data's shape.
DATA_SEED = 0


def redraw(bases: Sequence[Database], seed: int, columnar: bool = True) -> Database:
    """One database holding an isomorphic copy of every relation of
    ``bases``: values relabelled by one seeded permutation, rows shuffled.
    ``columnar=False`` gives the row-engine twin of the same data."""
    rng = random.Random(f"redraw:{seed}")
    values = sorted(
        {
            value
            for base in bases
            for name in base.relation_names()
            for row in base.relation(name).rows
            for value in row
        }
    )
    images = list(values)
    rng.shuffle(images)
    relabel = dict(zip(values, images))
    database = Database(name="bench", columnar=columnar)
    for base in bases:
        for name in base.relation_names():
            relation = base.relation(name)
            rows = [tuple(relabel[value] for value in row) for row in relation.rows]
            rng.shuffle(rows)
            database.add_relation(Relation(name, relation.attributes, rows))
    database.analyze()
    return database


# ----------------------------------------------------------------------
# plan_cold: 15 fixed planning cases spanning roughly 5-400 ms.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PlanCase:
    name: str
    query: ConjunctiveQuery
    statistics: CatalogStatistics
    k: int
    weight: int  # occurrences in one pass of the mix


#: One pass is 37 ops (about 2 s): the three cases under 10 ms six times, the
#: seven other cases under 60 ms twice, the five heavier ones once.  A run
#: reaches 300 ops and more, and each reported percentile lies in the lower
#: part of the samples of one case whose cheaper neighbour is far below it --
#: the median in cycle12_k2 (18 ms, above q1_k2 at 8 ms), the 95th percentile
#: in rand14_k3 (300 ms, above q1_k4 at 160 ms).  There a percentile reads
#: that case's time in the machine's fast state; in the upper part of a band,
#: or between two bands, it would read how much of the run the machine spent
#: in a slow spell.
_TINY, _LIGHT, _HEAVY = 6, 2, 1


def plan_cases() -> List[PlanCase]:
    q1_weights = {2: _TINY, 3: _LIGHT, 4: _HEAVY, 5: _HEAVY}
    cases = [
        PlanCase(f"q1_k{k}", q1(), fig5_statistics(), k, weight)
        for k, weight in q1_weights.items()
    ]
    for query in (q2(), q3()):
        statistics = fig8_statistics(query)
        cases += [
            PlanCase(f"{query.name.lower()}_k{k}", query, statistics, k, weight)
            for k, weight in {2: _TINY, 3: _LIGHT}.items()
        ]
    synthetic = [
        ("cycle12", cycle_query(12), {2: _LIGHT, 3: _HEAVY}),
        ("snow6x3", snowflake_query(6, 3), {2: _LIGHT}),
        ("chain16", chain_query(16), {2: _LIGHT}),
        ("rand10", random_cyclic_query(10, 10, seed=1), {3: _LIGHT}),
        ("rand12", random_cyclic_query(12, 12, seed=2), {3: _HEAVY}),
        ("rand14", random_cyclic_query(14, 14, seed=3), {3: _HEAVY}),
    ]
    for name, query, weights in synthetic:
        # Statistics of a small generated database: planning cost depends on
        # the query's structure, the catalog only steers the cost estimates.
        statistics = workload_database(
            query, tuples_per_relation=60, domain_size=12, seed=DATA_SEED
        ).statistics
        cases += [
            PlanCase(f"{name}_k{k}", query, statistics, k, weight)
            for k, weight in weights.items()
        ]
    return cases


# ----------------------------------------------------------------------
# exec_replay: four stored databases, one warm payload each.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExecCase:
    name: str
    query: ConjunctiveQuery
    k_values: Tuple[int, ...]  # empty: the baseline join-order plan
    weight: int  # occurrences in one pass of the mix
    make_base: Callable[[], Database]  # the frozen-shape database it runs on


#: cycle6 with two output variables: the one case with a (small) answer
#: relation, so the executor's top-down and fold phases run too.
_CYCLE6_PAIRS = ConjunctiveQuery(
    atoms=cycle_query(6).atoms, output_variables=("X0", "X3"), name="cycle6"
)

#: One pass is 8 ops.  The weights keep the median inside the cycle6 band
#: and the 95th percentile inside the q1_fig5 band, away from the gaps
#: between cases where a percentile would jump.
EXEC_CASES = (
    ExecCase(
        "q1_fig5", q1(), (2, 3, 4), 1,
        lambda: fig5_database(seed=DATA_SEED, scale=0.25),
    ),
    ExecCase(
        "q2_fig8", q2(), (2, 3), 2,
        lambda: fig8_database(q2(), tuples_per_relation=400, selectivity=40, seed=DATA_SEED),
    ),
    ExecCase(
        "cycle6", _CYCLE6_PAIRS, (2, 3), 3,
        lambda: workload_database(
            cycle_query(6), tuples_per_relation=400, domain_size=20, seed=DATA_SEED
        ),
    ),
    # 1000 tuples: at the issue's 300 the baseline plan finishes in 1 ms.
    ExecCase(
        "q1_base", q1(), (), 2,
        lambda: fig8_database(q1(), tuples_per_relation=1000, seed=DATA_SEED),
    ),
)


# ----------------------------------------------------------------------
# serve_rows / serve_open: one store, three answer sizes plus cycle6.
# ----------------------------------------------------------------------

#: tuples per relation of the chain4 relations behind each answer size
#: (domain 60): about 1k, 10k and 32k answer rows.
ROWS_SIZES = {"s": 120, "m": 220, "l": 300}

#: tuples per relation (domain 20) behind the small request of serve_open
SMALL_TUPLES = 200

#: The small request of serve_open, as datalog text: the daemon parses the
#: same text for its refresh loop, so both sides share PlanCache entries.
CYCLE6_TEXT = (
    "c0(X0,X1), c1(X1,X2), c2(X2,X3), c3(X3,X4), c4(X4,X5), c5(X5,X0)"
)


def rows_query(size: str) -> ConjunctiveQuery:
    """chain4 over the relations of one answer size, all five variables out."""
    return build_query(
        [(f"{size}{i}", [f"X{i}", f"X{i + 1}"]) for i in range(4)],
        output_variables=[f"X{i}" for i in range(5)],
        name=f"chain4_{size}",
    )


def cycle6_query() -> ConjunctiveQuery:
    return parse_query(CYCLE6_TEXT)


def serving_bases() -> List[Database]:
    bases = [
        uniform_database(
            rows_query(size), tuples_per_relation=tuples, domain_size=60,
            seed=DATA_SEED,
        )
        for size, tuples in ROWS_SIZES.items()
    ]
    bases.append(
        uniform_database(
            cycle6_query(), tuples_per_relation=SMALL_TUPLES, domain_size=20,
            seed=DATA_SEED,
        )
    )
    return bases


def queries_by_name() -> Dict[str, ConjunctiveQuery]:
    queries = {size: rows_query(size) for size in ROWS_SIZES}
    queries["c6"] = cycle6_query()
    return queries
