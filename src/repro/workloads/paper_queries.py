"""The paper's benchmark workload: queries Q1-Q3 plus the Fig. 5 statistics.

Fig. 5 of the paper reports, for every relation of Q1, the number of tuples
and the selectivity (number of distinct values) of every attribute, as
obtained with ``ANALYZE TABLE`` on CommDB.  :func:`fig5_statistics` encodes
those numbers verbatim; :func:`fig5_database` materialises a synthetic
database realising them (optionally scaled down so the experiments run in
seconds on a laptop); :func:`fig8_database` builds the 1500-tuples-per-
relation databases used for the timing comparison of Fig. 8.

Primed variables of the paper (``X'``) are spelled with a trailing ``p``
(``Xp``), matching :mod:`repro.query.examples`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.db.database import Database
from repro.db.generator import database_from_statistics
from repro.db.statistics import CatalogStatistics
from repro.db.storage import cached_database, query_fingerprint
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.examples import q1

#: Fig. 5 -- number of tuples per relation of Q1.
FIG5_CARDINALITIES: Dict[str, int] = {
    "a": 4606,
    "b": 2808,
    "c": 1748,
    "d": 3756,
    "e": 3554,
    "f": 2892,
    "g": 4573,
    "h": 3390,
    "j": 4234,
}

#: Fig. 5 -- per-attribute selectivity (distinct-value count) per relation.
FIG5_SELECTIVITIES: Dict[str, Dict[str, int]] = {
    "a": {"S": 14, "X": 24, "Xp": 16, "C": 21, "F": 15},
    "b": {"S": 17, "Y": 5, "Yp": 12, "Cp": 20, "Fp": 7},
    "c": {"C": 18, "Cp": 7, "Z": 19},
    "d": {"X": 18, "Z": 7},
    "e": {"Y": 21, "Z": 13},
    "f": {"F": 20, "Fp": 7, "Zp": 6},
    "g": {"Xp": 22, "Zp": 16},
    "h": {"Yp": 15, "Zp": 12},
    "j": {"J": 18, "X": 8, "Y": 18, "Xp": 22, "Yp": 10},
}

#: The per-k estimated plan costs the paper reports for Q1 in Section 6
#: (used by the Fig. 6/7 experiment to compare shapes, not absolute values).
PAPER_Q1_ESTIMATED_COSTS: Dict[int, int] = {
    2: 3_521_741,
    3: 1_373_879,
    4: 854_867,
    5: 854_867,
}


def fig5_statistics() -> CatalogStatistics:
    """The Fig. 5 catalog, exactly as published."""
    return CatalogStatistics.from_declared(FIG5_CARDINALITIES, FIG5_SELECTIVITIES)


def fig5_database(seed: int = 0, scale: float = 0.05, cache_dir=None) -> Database:
    """A synthetic database realising the Fig. 5 profile.

    ``scale`` scales the cardinalities (default 5% so the full evaluation
    comparison runs in seconds in pure Python); the attribute selectivities
    are scaled gently (square root of the cardinality ratio) by the
    generator.  Generation is routed
    through the content-addressed workload cache (see
    :func:`repro.db.storage.cached_database`), so repeated sweeps over the
    same profile reopen the stored columns instead of regenerating.
    """
    return cached_database(
        kind="fig5",
        params={"seed": int(seed), "scale": float(scale)},
        builder=lambda: database_from_statistics(
            q1(), fig5_statistics(), seed=seed, scale=scale
        ),
        cache_dir=cache_dir,
    )


def _uniform_profile(
    query: ConjunctiveQuery,
    tuples_per_relation: int,
    selectivity: int,
) -> CatalogStatistics:
    """A flat profile: every relation has the same cardinality and every
    attribute the same selectivity (used for Q2/Q3, whose statistics the
    paper does not publish)."""
    cardinalities = {}
    selectivities: Dict[str, Dict[str, int]] = {}
    for atom in query.atoms:
        cardinalities[atom.predicate] = tuples_per_relation
        selectivities[atom.predicate] = {
            variable: selectivity for variable in atom.variables
        }
    return CatalogStatistics.from_declared(cardinalities, selectivities)


def fig8_statistics(
    query: Optional[ConjunctiveQuery] = None,
    tuples_per_relation: int = 1500,
    selectivity: int = 15,
) -> CatalogStatistics:
    """The statistics profile of the Fig. 8 runs: 1500-tuple relations.

    For Q1 the attribute selectivities of Fig. 5 are kept (they are
    independent of the cardinality); for Q2/Q3 a flat profile is used.
    """
    query = query or q1()
    if query.name == "Q1":
        return CatalogStatistics.from_declared(
            {name: tuples_per_relation for name in FIG5_CARDINALITIES},
            FIG5_SELECTIVITIES,
        )
    return _uniform_profile(query, tuples_per_relation, selectivity)


def fig8_database(
    query: Optional[ConjunctiveQuery] = None,
    tuples_per_relation: int = 1500,
    selectivity: int = 15,
    seed: int = 0,
    cache_dir=None,
) -> Database:
    """A database for the Fig. 8 timing comparison.

    The paper uses 1500-tuple relations with randomly generated data and no
    indices; pure-Python evaluation of the baseline plan is a few orders of
    magnitude slower per tuple than a C engine, so the experiments default to
    smaller cardinalities via ``tuples_per_relation`` while keeping the same
    density regime (cardinality much larger than the attribute domains).
    """
    query = query or q1()
    stats = fig8_statistics(query, tuples_per_relation, selectivity)
    return cached_database(
        kind="fig8",
        params={
            "query": query_fingerprint(query),
            "tuples_per_relation": int(tuples_per_relation),
            "selectivity": int(selectivity),
            "seed": int(seed),
        },
        builder=lambda: database_from_statistics(query, stats, seed=seed, scale=1.0),
        cache_dir=cache_dir,
    )

