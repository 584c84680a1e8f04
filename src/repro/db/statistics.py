"""Catalog statistics: cardinalities and attribute selectivities.

The paper's cost model (Example 4.3 and Section 6) consumes exactly the
output of ``ANALYZE TABLE`` shown in Fig. 5: for every relation its number of
tuples, and for every attribute its *selectivity*, i.e. the number of
distinct values the attribute takes in the relation.

:class:`TableStatistics` stores those numbers for one relation;
:class:`CatalogStatistics` is the per-database catalog.  Statistics can be

* measured from actual relations (:func:`analyze_relation`,
  :meth:`CatalogStatistics.analyze`), which is what the experiments do after
  generating synthetic data, or
* declared directly from published numbers (e.g. the Fig. 5 table in
  :mod:`repro.workloads.paper_queries`), so the paper's estimates can be
  recomputed without materialising any data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional

try:  # Columnar analysis needs numpy; the row path covers its absence.
    from repro.db.columnar import ColumnarRelation
except ImportError:  # pragma: no cover - exercised only without numpy
    ColumnarRelation = None  # type: ignore[assignment]
from repro.db.relation import Relation
from repro.exceptions import DatabaseError


@dataclass(frozen=True)
class TableStatistics:
    """Statistics of one relation: cardinality and per-attribute distinct
    counts (the paper's "selectivity")."""

    relation_name: str
    cardinality: int
    distinct_counts: Mapping[str, int]

    def __post_init__(self) -> None:
        if self.cardinality < 0:
            raise DatabaseError("cardinality cannot be negative")
        for attribute, count in self.distinct_counts.items():
            if count < 0:
                raise DatabaseError(
                    f"distinct count of {attribute!r} cannot be negative"
                )
            if count > self.cardinality and self.cardinality > 0:
                raise DatabaseError(
                    f"distinct count of {attribute!r} ({count}) exceeds the "
                    f"cardinality ({self.cardinality}) of {self.relation_name!r}"
                )

    def selectivity(self, attribute: str) -> int:
        """Distinct-value count of an attribute; defaults to the cardinality
        when the attribute was never analysed (the most pessimistic safe
        value)."""
        return int(self.distinct_counts.get(attribute, max(self.cardinality, 1)))

    @property
    def estimated_raw_bytes(self) -> int:
        """The relation's column footprint at the raw (int64) encoding:
        8 bytes per cell over the analysed attributes.  A statistics-only
        stand-in for :meth:`~repro.db.relation.Relation.column_nbytes` --
        what a memory budget is compared against to decide whether a
        workload even fits unpacked."""
        return 8 * len(self.distinct_counts) * self.cardinality

    def attributes(self) -> Iterable[str]:
        return self.distinct_counts.keys()

    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """A JSON-safe rendering (the storage catalog and the planner's
        statistics digest both consume it)."""
        return {
            "cardinality": int(self.cardinality),
            "distinct_counts": {
                str(attribute): int(count)
                for attribute, count in sorted(self.distinct_counts.items())
            },
        }


def analyze_relation(relation: Relation) -> TableStatistics:
    """Measure statistics from an actual relation (the ``ANALYZE TABLE``
    equivalent).

    Columnar relations are analysed directly on their id columns: a distinct
    count is the size of a set of ints, no value is ever decoded.  The
    numbers feed the planner's cost model either way, so both engines plan
    from identical statistics.
    """
    if ColumnarRelation is not None and isinstance(relation, ColumnarRelation):
        distinct_counts = relation.distinct_counts()
    else:
        distinct_counts = {
            attribute: relation.distinct_count(attribute)
            for attribute in relation.attributes
        }
    return TableStatistics(
        relation_name=relation.name,
        cardinality=relation.cardinality,
        distinct_counts=distinct_counts,
    )


class CatalogStatistics:
    """The statistics catalog of a database: one :class:`TableStatistics`
    per relation."""

    def __init__(self, tables: Optional[Mapping[str, TableStatistics]] = None) -> None:
        self._tables: Dict[str, TableStatistics] = dict(tables or {})

    # ------------------------------------------------------------------
    def add(self, statistics: TableStatistics) -> None:
        self._tables[statistics.relation_name] = statistics

    def table(self, relation_name: str) -> TableStatistics:
        try:
            return self._tables[relation_name]
        except KeyError as exc:
            raise DatabaseError(
                f"no statistics for relation {relation_name!r}; run analyze() "
                "or declare them explicitly"
            ) from exc

    def has_table(self, relation_name: str) -> bool:
        return relation_name in self._tables

    def relation_names(self) -> Iterable[str]:
        return sorted(self._tables)

    # ------------------------------------------------------------------
    def cardinality(self, relation_name: str) -> int:
        return self.table(relation_name).cardinality

    def selectivity(self, relation_name: str, attribute: str) -> int:
        return self.table(relation_name).selectivity(attribute)

    def estimated_raw_bytes(self) -> int:
        """Catalog-wide raw int64 column footprint (the sum of every table's
        :attr:`TableStatistics.estimated_raw_bytes`)."""
        return sum(
            table.estimated_raw_bytes for table in self._tables.values()
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_declared(
        cls,
        cardinalities: Mapping[str, int],
        selectivities: Mapping[str, Mapping[str, int]],
    ) -> "CatalogStatistics":
        """Build a catalog from published numbers (e.g. Fig. 5)."""
        catalog = cls()
        for name, cardinality in cardinalities.items():
            catalog.add(
                TableStatistics(
                    relation_name=name,
                    cardinality=int(cardinality),
                    distinct_counts=dict(selectivities.get(name, {})),
                )
            )
        return catalog

    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """JSON-safe catalog rendering, keyed and ordered by relation name
        (deterministic, so the planner's statistics digest is stable)."""
        return {
            "tables": {
                name: self._tables[name].to_payload()
                for name in self.relation_names()
            }
        }

    def describe(self) -> str:
        """A Fig. 5-style rendering of the catalog."""
        lines = []
        for name in self.relation_names():
            stats = self._tables[name]
            sel = ", ".join(
                f"{attribute}={stats.distinct_counts[attribute]}"
                for attribute in sorted(stats.distinct_counts)
            )
            lines.append(f"{name}: |{name}| = {stats.cardinality}; selectivity: {sel}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"CatalogStatistics({len(self._tables)} relations)"
