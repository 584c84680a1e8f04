"""In-memory relations (bag semantics).

A :class:`Relation` is a named table: a tuple of attribute names plus a
sequence of value tuples.  Rows are kept with **bag (multiset) semantics**,
i.e. duplicates are preserved, because that is both

* what the paper's experimental data looks like (Fig. 5: relation ``d`` has
  3756 tuples over attributes with only 18 and 7 distinct values, so the
  stored table necessarily contains many duplicate value combinations once
  projected to its join attributes), and
* how a SQL engine materialises intermediate join results (no implicit
  ``DISTINCT``), which matters for a faithful comparison between left-deep
  plans and hypertree plans.

Explicit duplicate elimination is available through :meth:`Relation.distinct`
and through the ``distinct`` flag of the projection operator -- projection in
the paper's (set-based) relational algebra, as used in the per-node
expressions ``E(p) = Π_{χ(p)} ⋈_{h ∈ λ(p)} rel(h)``, removes duplicates.

During query evaluation the attributes of intermediate relations are *query
variables*, which makes the relational-algebra operators in
:mod:`repro.db.algebra` natural joins in the logic-programming sense (join on
shared variable names).
"""

from __future__ import annotations

import json
import threading
from collections import Counter, OrderedDict
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.db.dictionary import unencodable
from repro.exceptions import DatabaseError

Value = object
Row = Tuple[Value, ...]

#: How many hash indexes a relation keeps alive at once.  Long comparison
#: sweeps (many plans over the same database) index the same relations on
#: many different key sets; an unbounded cache would accumulate every one of
#: them for the lifetime of the relation.  Eight covers every access pattern
#: a single plan produces (build side of each join the relation feeds).
INDEX_CACHE_LIMIT = 8


class Relation:
    """A named relation with a fixed attribute list and bag semantics.

    Parameters
    ----------
    name:
        Relation (predicate) name.
    attributes:
        Column names, in order.  Must be distinct.
    rows:
        An iterable of tuples, each of the same arity as ``attributes``.
        Duplicates are preserved.
    """

    __slots__ = ("name", "attributes", "_rows", "_index_cache", "_index_lock")

    def __init__(
        self,
        name: str,
        attributes: Sequence[str],
        rows: Iterable[Sequence[Value]] = (),
    ) -> None:
        attrs = tuple(str(a) for a in attributes)
        if len(set(attrs)) != len(attrs):
            raise DatabaseError(f"relation {name!r} has duplicate attributes: {attrs}")
        self.name = name
        self.attributes: Tuple[str, ...] = attrs
        materialised: List[Row] = []
        for row in rows:
            row_tuple = tuple(row)
            if len(row_tuple) != len(attrs):
                raise DatabaseError(
                    f"relation {name!r}: row {row_tuple} has arity {len(row_tuple)}, "
                    f"expected {len(attrs)}"
                )
            materialised.append(row_tuple)
        self._rows: Tuple[Row, ...] = tuple(materialised)
        self._index_cache: "OrderedDict[Tuple[str, ...], Dict[Row, List[Row]]]" = (
            OrderedDict()
        )
        self._index_lock = threading.Lock()

    # ------------------------------------------------------------------
    @classmethod
    def from_value_columns(
        cls,
        name: str,
        attributes: Sequence[str],
        columns: Sequence[Sequence[Value]],
        cardinality: int | None = None,
    ) -> "Relation":
        """Build a relation from per-attribute value columns (the row-engine
        twin of ``ColumnarRelation.from_value_columns``; the storage plane's
        numpy-free open path decodes stored columns through it).

        ``cardinality`` is only needed for zero-arity relations, whose row
        count cannot be inferred from an empty column list.
        """
        if columns:
            return cls(name, attributes, zip(*columns))
        return cls(name, attributes, ((),) * int(cardinality or 0))

    # ------------------------------------------------------------------
    @property
    def rows(self) -> Tuple[Row, ...]:
        return self._rows

    def rows_json(self) -> str:
        """The rows as compact JSON text (``json.dumps(rows, separators=
        (",", ":"))``); a value JSON cannot encode raises
        :class:`DatabaseError` naming it."""
        try:
            return json.dumps(self.rows, separators=(",", ":"))
        except TypeError:
            raise unencodable(self.rows) from None

    @property
    def arity(self) -> int:
        return len(self.attributes)

    @property
    def cardinality(self) -> int:
        """Number of rows, duplicates included (the ``|p|`` of Fig. 5)."""
        return len(self._rows)

    def distinct_cardinality(self) -> int:
        """Number of distinct rows."""
        return len(set(self.rows))

    def __len__(self) -> int:
        return self.cardinality

    def __iter__(self):
        return iter(self.rows)

    def __bool__(self) -> bool:
        return self.cardinality > 0

    # ------------------------------------------------------------------
    def position(self, attribute: str) -> int:
        try:
            return self.attributes.index(attribute)
        except ValueError as exc:
            raise DatabaseError(
                f"relation {self.name!r} has no attribute {attribute!r} "
                f"(attributes: {self.attributes})"
            ) from exc

    def column(self, attribute: str) -> Tuple[Value, ...]:
        """All values of one column (with duplicates, in row order)."""
        pos = self.position(attribute)
        return tuple(row[pos] for row in self.rows)

    def distinct_count(self, attribute: str) -> int:
        """The number of distinct values of an attribute -- the paper's
        *selectivity* of the attribute (Fig. 5)."""
        pos = self.position(attribute)
        return len({row[pos] for row in self.rows})

    def index_on(self, attributes: Sequence[str]) -> Dict[Row, List[Row]]:
        """A hash index keyed by the given attributes (LRU-cached, at most
        :data:`INDEX_CACHE_LIMIT` indexes per relation).

        The cache bookkeeping is locked: the parallel executor may probe one
        relation from sibling tasks concurrently, and an unguarded
        get / move_to_end / popitem interleaving could evict a key between
        another task's hit and its recency update.  Index construction
        itself stays outside the lock (two tasks may rarely build the same
        index; both results are identical)."""
        key_attrs = tuple(attributes)
        cache = self._index_cache
        with self._index_lock:
            index = cache.get(key_attrs)
            if index is not None:
                cache.move_to_end(key_attrs)
                return index
        positions = [self.position(a) for a in key_attrs]
        index = {}
        for row in self.rows:
            key = tuple(row[p] for p in positions)
            index.setdefault(key, []).append(row)
        with self._index_lock:
            existing = cache.get(key_attrs)
            if existing is not None:
                cache.move_to_end(key_attrs)
                return existing
            cache[key_attrs] = index
            if len(cache) > INDEX_CACHE_LIMIT:
                cache.popitem(last=False)
        return index

    def column_nbytes(self) -> int:
        """Estimated column bytes of the relation at the storage plane's raw
        encoding: 8 bytes (one int64 id) per cell.  The columnar subclass
        overrides this with the exact bytes of its (possibly packed) arrays;
        the pair is what ``repro db info`` compares to report a store's
        compression ratio."""
        return 8 * self.arity * self.cardinality

    # ------------------------------------------------------------------
    def distinct(self, name: str | None = None) -> "Relation":
        """The relation with duplicate rows removed (explicit ``DISTINCT``)."""
        seen = dict.fromkeys(self.rows)
        return Relation(name or self.name, self.attributes, seen.keys())

    def rename(self, mapping: Dict[str, str], name: str | None = None) -> "Relation":
        """A copy with attributes renamed (e.g. relation attributes -> query
        variables when binding an atom)."""
        new_attrs = [mapping.get(a, a) for a in self.attributes]
        return Relation(name or self.name, new_attrs, self.rows)

    def with_rows(self, rows: Iterable[Sequence[Value]], name: str | None = None) -> "Relation":
        """A relation with the same schema but different rows."""
        return Relation(name or self.name, self.attributes, rows)

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Equality is bag equality: same attributes and the same multiset of
        rows."""
        if not isinstance(other, Relation):
            return NotImplemented
        return self.attributes == other.attributes and Counter(self.rows) == Counter(
            other.rows
        )

    def __hash__(self) -> int:
        return hash((self.attributes, frozenset(Counter(self.rows).items())))

    def same_tuples(self, other: "Relation") -> bool:
        """Set equality of the rows regardless of multiplicities (useful when
        comparing answers of plans that deduplicate at different points)."""
        return self.attributes == other.attributes and set(self.rows) == set(other.rows)

    def __repr__(self) -> str:
        return (
            f"Relation({self.name!r}, attributes={self.attributes}, "
            f"cardinality={self.cardinality})"
        )

    def head(self, limit: int = 5) -> List[Row]:
        """A few rows, for debugging and examples."""
        return sorted(set(self.rows))[:limit]
