"""In-memory databases and atom-to-relation binding.

A :class:`Database` maps predicate names to :class:`~repro.db.relation.Relation`
objects and carries a :class:`~repro.db.statistics.CatalogStatistics` catalog.
By default every stored relation is interned at load time into the columnar
representation (:class:`~repro.db.columnar.ColumnarRelation`) against the
database's shared value :class:`~repro.db.dictionary.Dictionary`, so the
whole execution pipeline -- binding, joins, semijoins, Yannakakis -- runs on
dense int columns.  The engine is decided where a database comes into
being -- ``Database(columnar=)`` or :meth:`Database.open` -- and nowhere
else: ``columnar=False`` holds plain row relations (the reference engine the
equivalence tests and benchmarks compare against), decoding any columnar
relation it is given.

The central operation for query evaluation is :meth:`Database.bind_atom`,
which renames a relation's columns to the variables of a query atom (and
applies the selections implied by constants and repeated variables), turning
every body atom into a relation over query variables -- the form the
relational-algebra operators and Yannakakis' algorithm work on.  On columnar
relations binding is (near) zero-copy: the bound relation shares the stored
column arrays and carries at most a fresh selection vector.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

try:  # Columnar storage needs numpy; fall back to row storage without it.
    from repro.db.columnar import ColumnarRelation
except ImportError:  # pragma: no cover - exercised only without numpy
    ColumnarRelation = None  # type: ignore[assignment]
from repro.db.dictionary import Dictionary
from repro.db.relation import Relation
from repro.db.statistics import CatalogStatistics, analyze_relation
from repro.exceptions import DatabaseError
from repro.query.atoms import Atom, is_variable
from repro.query.conjunctive import ConjunctiveQuery, is_fresh_variable


class Database:
    """A named collection of relations plus a statistics catalog.

    A database holds data only: the execution options (``threads``,
    ``memory_budget_bytes``, ``trace``) are arguments of each
    :func:`~repro.db.executor.execute_plan` call.
    """

    def __init__(
        self,
        relations: Optional[Mapping[str, Relation]] = None,
        statistics: Optional[CatalogStatistics] = None,
        name: str = "db",
        columnar: bool = True,
        dictionary: Optional[Dictionary] = None,
    ) -> None:
        self.name = name
        self.columnar = columnar
        #: Directory this database was opened from (set by the storage
        #: plane).  The serving pool's worker processes re-open -- and
        #: content-digest -- the store through this path; ``None`` for
        #: purely in-memory databases, which cannot be served.
        self.source_path: Optional[str] = None
        self.dictionary = dictionary if dictionary is not None else Dictionary()
        self._relations: Dict[str, Relation] = {
            key: self._intern(relation) for key, relation in (relations or {}).items()
        }
        self.statistics = statistics or CatalogStatistics()

    # ------------------------------------------------------------------
    def _intern(self, relation: Relation) -> Relation:
        if ColumnarRelation is None:
            return relation
        if self.columnar:
            return ColumnarRelation.from_relation(relation, self.dictionary)
        if isinstance(relation, ColumnarRelation):
            return Relation(relation.name, relation.attributes, relation.rows)
        return relation

    def add_relation(self, relation: Relation) -> None:
        self._relations[relation.name] = self._intern(relation)

    def relation(self, predicate: str) -> Relation:
        try:
            return self._relations[predicate]
        except KeyError as exc:
            raise DatabaseError(
                f"database {self.name!r} has no relation {predicate!r}"
            ) from exc

    def has_relation(self, predicate: str) -> bool:
        return predicate in self._relations

    def relation_names(self) -> Iterable[str]:
        return sorted(self._relations)

    def total_tuples(self) -> int:
        return sum(r.cardinality for r in self._relations.values())

    # ------------------------------------------------------------------
    def save(self, path) -> "Database":
        """Persist this database to ``path`` in the mmap-able columnar
        storage format (see :mod:`repro.db.storage`): a JSON catalog plus
        one frame-of-reference packed file per column, whose width the
        column's id span picks.  Returns ``self`` for chaining."""
        from repro.db.storage import save_database

        save_database(self, path)
        return self

    @classmethod
    def open(cls, path, columnar: bool = True) -> "Database":
        """Open a stored database.  Under the columnar engine (the
        default) every column is ``np.memmap``'d read-only straight into the
        relations -- no interning, no row materialisation; ``columnar=False``
        (or a missing numpy) decodes the stored ids through the row engine.
        Statistics come back verbatim from the catalog."""
        from repro.db.storage import open_database

        return open_database(path, columnar=columnar)

    # ------------------------------------------------------------------
    def analyze(self) -> CatalogStatistics:
        """Recompute the catalog from the stored relations (``ANALYZE TABLE``
        for every table) and return it."""
        catalog = CatalogStatistics()
        for relation in self._relations.values():
            catalog.add(analyze_relation(relation))
        self.statistics = catalog
        return catalog

    # ------------------------------------------------------------------
    def bind_atom(self, atom: Atom) -> Relation:
        """The relation denoted by a query atom, with columns renamed to the
        atom's variables.

        Handles the three standard cases:

        * plain variables -- rename the column to the variable;
        * constants -- select the rows with that constant and drop the column;
        * repeated variables -- select the rows where the positions agree and
          keep a single column;
        * *fresh* variables added by the completeness transformation
          (Section 6) -- these do not exist in the stored relation, so each
          row is extended with a unique surrogate value, preserving
          cardinality and keeping the fresh column joinable only with itself.
        """
        stored = self.relation(atom.predicate)
        fresh_terms = [t for t in atom.terms if is_variable(t) and is_fresh_variable(t)]
        real_terms = [t for t in atom.terms if t not in fresh_terms]
        if len(real_terms) != stored.arity:
            raise DatabaseError(
                f"atom {atom} has {len(real_terms)} stored terms but relation "
                f"{atom.predicate!r} has arity {stored.arity}"
            )

        out_attributes = []
        seen_positions: Dict[str, int] = {}
        keep_positions = []
        for position, term in enumerate(real_terms):
            if is_variable(term) and term not in seen_positions:
                seen_positions[term] = position
                out_attributes.append(term)
                keep_positions.append(position)

        if (
            ColumnarRelation is not None
            and isinstance(stored, ColumnarRelation)
            and stored.dictionary is self.dictionary
        ):
            return self._bind_columnar(
                atom, stored, real_terms, fresh_terms,
                out_attributes, seen_positions, keep_positions,
            )

        rows = []
        for row in stored.rows:
            ok = True
            for position, term in enumerate(real_terms):
                if not is_variable(term):
                    if row[position] != _coerce_constant(term):
                        ok = False
                        break
                elif row[seen_positions[term]] != row[position]:
                    ok = False
                    break
            if ok:
                rows.append(tuple(row[p] for p in keep_positions))

        if fresh_terms:
            out_attributes = out_attributes + fresh_terms
            rows = [
                row + tuple(f"{atom.name}@{i}" for _ in fresh_terms)
                for i, row in enumerate(rows)
            ]
        return Relation(atom.name, out_attributes, rows)

    def _bind_columnar(
        self,
        atom: Atom,
        stored: ColumnarRelation,
        real_terms: List[str],
        fresh_terms: List[str],
        out_attributes: List[str],
        seen_positions: Dict[str, int],
        keep_positions: List[int],
    ) -> ColumnarRelation:
        """Columnar atom binding: share the stored column arrays, apply
        constant/repeated-variable selections as a selection vector, and add
        surrogate columns for fresh variables.  Packed columns are compared
        as stored: a constant's id is shifted by the column's reference, and
        a repeated-variable check aligns the two columns' references."""
        import numpy as np

        from repro.db.columnar import _aligned_pair

        columns = stored._columns
        references = stored._references
        # Selection conditions implied by the atom's terms.  A constant the
        # dictionary has never seen matches no stored row at all.
        constant_checks = []  # (column, reference, id or None)
        repeat_checks = []  # (first column+ref, repeated column+ref)
        for position, term in enumerate(real_terms):
            if not is_variable(term):
                constant_checks.append(
                    (
                        columns[position],
                        references[position],
                        self.dictionary.id_of(_coerce_constant(term)),
                    )
                )
            elif seen_positions[term] != position:
                first = seen_positions[term]
                repeat_checks.append(
                    (
                        columns[first],
                        references[first],
                        columns[position],
                        references[position],
                    )
                )

        selection = stored._selection
        if constant_checks or repeat_checks:
            if any(wanted is None for _, _, wanted in constant_checks):
                selection = np.empty(0, dtype=np.int64)
            else:
                rows = stored._row_indices()
                mask = None
                for column, reference, wanted in constant_checks:
                    # Compare in the column's stored frame.  A target outside
                    # the narrow dtype's range cannot occur in the column, so
                    # branch explicitly instead of leaning on numpy's
                    # (version-dependent) out-of-range scalar comparison.
                    target = wanted - reference
                    info = (
                        np.iinfo(column.dtype)
                        if column.dtype != np.int64
                        else None
                    )
                    if info is not None and not (info.min <= target <= info.max):
                        hits = np.zeros(len(rows), dtype=bool)
                    else:
                        hits = column[rows] == column.dtype.type(target)
                    mask = hits if mask is None else (mask & hits)
                for first, first_ref, repeated, repeated_ref in repeat_checks:
                    fcol, rcol = _aligned_pair(
                        first[rows], first_ref, repeated[rows], repeated_ref
                    )
                    hits = fcol == rcol
                    mask = hits if mask is None else (mask & hits)
                selection = rows[mask]

        kept_columns = [columns[p] for p in keep_positions]
        kept_references = [references[p] for p in keep_positions]
        base_length = stored._base_length
        if fresh_terms:
            # Materialise the selection so the surrogate column aligns with
            # the kept ones, then give every row a unique surrogate value
            # (joinable only with itself), exactly as the row-based binding.
            if selection is not None:
                kept_columns = [column[selection] for column in kept_columns]
            cardinality = len(selection) if selection is not None else base_length
            fresh_ids = np.fromiter(
                self.dictionary.encode_column(
                    f"{atom.name}@{i}" for i in range(cardinality)
                ),
                dtype=np.int64,
                count=cardinality,
            )
            kept_columns = kept_columns + [fresh_ids] * len(fresh_terms)
            kept_references = kept_references + [0] * len(fresh_terms)
            out_attributes = out_attributes + fresh_terms
            selection = None
            base_length = cardinality
        return ColumnarRelation(
            atom.name,
            out_attributes,
            self.dictionary,
            kept_columns,
            selection,
            base_length,
            references=kept_references,
        )

    def bind_query(self, query: ConjunctiveQuery) -> Dict[str, Relation]:
        """Bind every atom of the query; keys are atom names."""
        return {atom.name: self.bind_atom(atom) for atom in query.atoms}

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"Database({self.name!r}, relations={len(self._relations)}, "
            f"tuples={self.total_tuples()})"
        )

    def describe(self) -> str:
        lines = [f"Database {self.name!r}"]
        for name in self.relation_names():
            relation = self._relations[name]
            lines.append(
                f"  {name}({', '.join(relation.attributes)}): {relation.cardinality} tuples"
            )
        return "\n".join(lines)


def _coerce_constant(term: str):
    """Constants written in queries are strings; compare them against stored
    integers as well so ``r(X, 3)`` matches a relation holding ints."""
    try:
        return int(term)
    except ValueError:
        return term
