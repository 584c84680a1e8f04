"""Synthetic data generation matching a statistics profile.

The paper's experiments (Section 6) run on "randomly generated synthetic
data" whose per-relation cardinalities and per-attribute selectivities are
reported in Fig. 5 (and 1500-tuple relations for the Fig. 8 runs).  This
module produces in-memory relations realising such a profile:

* the relation gets exactly the requested number of tuples;
* each attribute draws its values from an integer domain whose size equals
  the requested distinct count, so the measured selectivity matches the
  declared one (up to sampling noise on very skewless draws, which the
  generator corrects by forcing one occurrence of every domain value whenever
  the cardinality allows it);
* attributes that different relations share (same attribute/variable name)
  draw from the same global domain, so joins behave the way the estimates
  assume.

All generation is deterministic given a seed.
"""

from __future__ import annotations

import random
from typing import List, Mapping, Sequence

try:  # Columnar storage needs numpy; the generator then emits row relations.
    from repro.db.columnar import ColumnarRelation
except ImportError:  # pragma: no cover - exercised only without numpy
    ColumnarRelation = None  # type: ignore[assignment]
from repro.db.database import Database
from repro.db.relation import Relation
from repro.db.statistics import CatalogStatistics
from repro.exceptions import DatabaseError
from repro.query.conjunctive import ConjunctiveQuery


def generate_column(
    cardinality: int, distinct: int, rng: random.Random, domain_offset: int = 0
) -> List[int]:
    """A column of ``cardinality`` values with (approximately, and usually
    exactly) ``distinct`` distinct values drawn from
    ``[domain_offset, domain_offset + distinct)``."""
    if distinct < 1:
        raise DatabaseError("distinct count must be at least 1")
    distinct = min(distinct, max(cardinality, 1))
    values = [domain_offset + rng.randrange(distinct) for _ in range(cardinality)]
    # Force every domain value to appear at least once so the measured
    # distinct count equals the requested one.
    for i, value in enumerate(range(domain_offset, domain_offset + min(distinct, cardinality))):
        values[i] = value
    rng.shuffle(values)
    return values


def _generate_columns(
    name: str,
    attributes: Sequence[str],
    cardinality: int,
    distinct_counts: Mapping[str, int],
    seed: int,
) -> List[List[int]]:
    """The per-attribute value columns of one generated relation (the shared
    random stream behind both relation representations)."""
    rng = random.Random(f"{seed}:{name}")
    columns: List[List[int]] = []
    for attribute in attributes:
        distinct = int(distinct_counts.get(attribute, cardinality))
        columns.append(generate_column(cardinality, distinct, rng))
    return columns


def _add_generated(
    database: Database,
    name: str,
    attributes: Sequence[str],
    columns: Sequence[List[int]],
) -> None:
    """Store generated value columns in the database: interned straight into
    its dictionary, or materialised as row tuples when numpy is missing (the
    single place where the two representations split)."""
    if ColumnarRelation is not None:
        database.add_relation(
            ColumnarRelation.from_value_columns(
                name, attributes, columns, database.dictionary
            )
        )
    else:
        length = len(columns[0]) if columns else 0
        rows = [tuple(column[i] for column in columns) for i in range(length)]
        database.add_relation(Relation(name, attributes, rows))


def generate_relation(
    name: str,
    attributes: Sequence[str],
    cardinality: int,
    distinct_counts: Mapping[str, int],
    seed: int = 0,
) -> Relation:
    """Generate one relation matching the requested statistics.

    Attributes missing from ``distinct_counts`` get a distinct count equal to
    the cardinality (i.e. a key-like column).
    """
    columns = _generate_columns(name, attributes, cardinality, distinct_counts, seed)
    rows = [tuple(column[i] for column in columns) for i in range(cardinality)]
    # Relations use bag semantics, so the cardinality is exactly as requested
    # even when the attribute domains are small (as in Fig. 5, where e.g.
    # relation d has 3756 tuples over an 18 x 7 value space).
    return Relation(name, attributes, rows)


def database_from_statistics(
    query: ConjunctiveQuery,
    statistics: CatalogStatistics,
    seed: int = 0,
    scale: float = 1.0,
    name: str = "synthetic",
) -> Database:
    """Generate a database realising a declared statistics profile for the
    relations used by ``query``.

    ``scale`` multiplies every cardinality (the paper uses the Fig. 5 profile
    for cost estimation but 1500-tuple relations for the timing runs; scaling
    lets the experiments do the same).  Selectivities are scaled with the
    square root of the cardinality ratio, clamped to the new cardinality --
    shrinking a relation shrinks its value sets too, but more slowly, which
    keeps joins selective.

    The generated columns are interned straight into the database
    dictionary without ever materialising rows.  A row-engine twin of the
    result is ``Database(relations=..., columnar=False)`` over its
    relations.
    """
    database = Database(name=name)
    for atom in query.atoms:
        if database.has_relation(atom.predicate):
            continue
        table = statistics.table(atom.predicate)
        cardinality = max(int(round(table.cardinality * scale)), 1)
        factor = (cardinality / max(table.cardinality, 1)) ** 0.5 if table.cardinality else 1.0
        distinct_counts = {}
        for attribute, count in table.distinct_counts.items():
            scaled = max(int(round(count * factor)), 1) if scale != 1.0 else int(count)
            distinct_counts[attribute] = min(scaled, cardinality)
        # Column names follow the atom's terms so that measured statistics and
        # the Fig. 5-style declarations use the same keys.
        attributes = list(atom.terms)
        columns = _generate_columns(
            atom.predicate, attributes, cardinality, distinct_counts, seed
        )
        _add_generated(database, atom.predicate, attributes, columns)
    database.analyze()
    return database


def uniform_database(
    query: ConjunctiveQuery,
    tuples_per_relation: int = 1500,
    domain_size: int = 30,
    seed: int = 0,
    name: str = "uniform",
) -> Database:
    """A database with the same cardinality for every relation and a common
    value domain -- the "1500 data tuples" setting of the Fig. 8 experiments.

    ``domain_size`` controls join selectivity: smaller domains make joins
    blow up more, larger domains make them more selective.
    """
    rng = random.Random(seed)
    database = Database(name=name)
    for atom in query.atoms:
        if database.has_relation(atom.predicate):
            continue
        attributes = list(atom.terms)
        # Row-major draws: one tuple at a time, column by column.
        columns: List[List[int]] = [[] for _ in attributes]
        for _ in range(tuples_per_relation):
            for column in columns:
                column.append(rng.randrange(domain_size))
        _add_generated(database, atom.predicate, attributes, columns)
    database.analyze()
    return database
