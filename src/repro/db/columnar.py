"""Columnar relations: dictionary-encoded columns plus selection vectors.

This is the data-plane twin of the bitset decomposition core
(:mod:`repro.core`): every domain value is interned once into a shared
:class:`~repro.db.dictionary.Dictionary`, a relation stores each attribute
as a flat integer array of ids, and the hot relational operators run as
vectorised kernels over those columns:

* a **semijoin** never materialises tuples -- it produces a new relation
  sharing the same column arrays with a fresh *selection vector* ("keep
  these row indices", an ``np.isin`` membership mask), so both Yannakakis
  passes are pure index filtering;
* a **join** stable-sorts the smaller side's key column, range-probes it
  (one lookup in a dense cumulative-count table when the build keys' value
  span is no larger than the two inputs, ``searchsorted`` otherwise),
  expands the match ranges with one ``repeat`` per emit chunk and gathers
  the output columns with ``np.take`` -- the emitted cardinality is known
  *before* anything is materialised, which is what lets the evaluation
  budget stop a runaway join at the budget instead of far past it;
* **project(distinct)** packs every row's key and row number into one
  uint64 word ``(key << row_bits) | row``, sorts the words with one
  unstable sort and keeps the first row of every key group -- a
  first-occurrence selection vector with no stable argsort -- and
  **select** decodes values only to feed the user-supplied predicate.

Multi-attribute keys are packed into a single integer key
(``(id0 << w) | id1`` with ``w`` derived from the ids actually present)
held in the smallest sufficient dtype when they fit; wider keys fall back
to an iterative combine that re-densifies through ``np.unique`` before
every step that could overflow, and join kernels always derive both
sides' keys from one shared packing so they can never alias.

**Packed (frame-of-reference) columns.**  Columns may be narrower than
``int64``: the storage plane (:mod:`repro.db.storage`) persists each
column as ``ids - reference`` in the smallest of uint8/16/32/int64, and
the kernels here operate on those packed arrays *without decoding*.  Each
column carries its integer ``reference``; within one relation the offset
is constant per column, so packed equality is id equality and every
within-relation kernel (distinct, project, local key packing) runs on the
narrow dtype untouched.  Across two relations a shared attribute's
references may differ; :func:`_aligned_pair` then *rebases* the smaller
reference side by the delta -- widening only as far as the shifted maximum
requires, never all the way to decoded ids unless necessary.  FOR is
order- and equality-preserving, which is exactly what the join's sort and
range probe, ``np.isin`` membership and the (key, row)-word dedup need.
Ids are only widened back (``column + reference``) at the
dictionary/value boundary.  Join/semijoin/project output row order depends
only on key *equality classes* (stable sorts keep original order among
equal keys; the dedup keeps each key's smallest row; both probes return
the same ranges), so packed execution is byte-identical -- answers, row
order and ``OperatorStats`` -- to the same ids held in int64 columns, as
an in-memory database holds them.

The string/value-at-the-boundary invariant of the decomposition core holds
here too: ids never escape.  :attr:`ColumnarRelation.rows` and every other
public :class:`~repro.db.relation.Relation` accessor decodes through the
dictionary (a list index per id -- each distinct value is decoded exactly
once, at interning time) and caches the materialised tuples, so the
row-based surface the rest of the library sees is unchanged.

The memory budget bounds exactly one thing: the join's materialisation,
the only phase whose arrays can grow past the inputs.  The join reads it
from the :class:`~repro.db.algebra.OperatorStats` it records into
(``stats.memory_budget_bytes``; with none set -- ``stats=None``, ``None``
or non-positive -- the default ``_DEFAULT_BUDGET_BYTES`` = 64 MiB
applies).  It knows the exact per-probe-row emit counts before
materialising anything, so it grows each emit chunk to the largest
probe-row prefix whose transient cost fits the budget, and a runaway join
never materialises output-sized transients.  Every other pass -- key
packing, the probe, the semijoin's membership test, project-distinct --
runs once over arrays that are input-sized whatever the budget.  Results,
emit counts, budget-stop behaviour and ``OperatorStats`` counters are
**byte-identical** under any budget; only the peak size of the
intermediates changes.  All sizing decisions are computed from element
counts only -- never dtypes -- so packed and int64 runs of the same query
make identical chunking decisions and report identical
``peak_transient_elements``.  The join's count table is the one choice
that depends on key *values* (FOR shifts them, so packed and int64 runs may
choose differently); it is bounded by the input sizes, feeds no element
count or chunking decision, and shows only in ``peak_transient_bytes``.

The module requires numpy; :mod:`repro.db.database` degrades to the
row-based engine when it is unavailable.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.db.dictionary import Dictionary, unencodable
from repro.db.relation import Relation, Row, Value
from repro.exceptions import DatabaseError
from repro.obs.trace import note as _obs_note

#: Largest bit budget for a packed int64 key (signed, one bit of slack).
_PACK_BITS = 62

#: Column dtypes the kernels accept natively (anything else is widened to
#: int64 at construction).  All are non-negative under the
#: frame-of-reference offset, so cross-dtype comparisons promote exactly.
_ID_DTYPES = (
    np.dtype(np.uint8),
    np.dtype(np.uint16),
    np.dtype(np.uint32),
    np.dtype(np.int64),
)

#: The join's emit-chunk budget when the execution sets none (see the
#: module docstring) -- a module constant, not a knob.
_DEFAULT_BUDGET_BYTES = 64 << 20
#: Floor of the emit-chunk budget, in int64 words: below this the
#: per-chunk Python overhead swamps any memory saving.
_MIN_BUDGET_WORDS = 512


def _key_dtype(bits: int) -> np.dtype:
    """The smallest kernel dtype holding ``bits`` unsigned bits."""
    if bits <= 8:
        return _ID_DTYPES[0]
    if bits <= 16:
        return _ID_DTYPES[1]
    if bits <= 32:
        return _ID_DTYPES[2]
    return _ID_DTYPES[3]


def _as_id_array(column) -> np.ndarray:
    """A kernel-ready column: narrow unsigned / int64 arrays pass through
    untouched (memmaps stay mapped), everything else widens to int64."""
    if (
        isinstance(column, np.ndarray)
        and column.ndim == 1
        and column.dtype in _ID_DTYPES
    ):
        return column
    return np.asarray(column, dtype=np.int64)


def _rebased(col: np.ndarray, delta: int) -> np.ndarray:
    """``col + delta`` in the smallest dtype that holds the shifted maximum
    (the cross-reference alignment step: rebase, not decode)."""
    if delta == 0:
        return col
    top = (int(col.max()) if col.size else 0) + delta
    dtype = _key_dtype(max(top.bit_length(), 1)) if top >= 0 else np.dtype(np.int64)
    return col.astype(dtype) + dtype.type(delta)


def _aligned_pair(
    lcol: np.ndarray, lref: int, rcol: np.ndarray, rref: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Two key columns over one shared attribute, made comparable as
    stored: equal references need nothing (FOR preserves order and
    equality), otherwise both sides are rebased onto the smaller
    reference."""
    if lref == rref:
        return lcol, rcol
    base = min(lref, rref)
    return _rebased(lcol, lref - base), _rebased(rcol, rref - base)


class ColumnarRelation(Relation):
    """A relation stored as dictionary-encoded integer columns.

    Parameters
    ----------
    name, attributes:
        As for :class:`Relation`.
    dictionary:
        The shared value interner; all ids in ``columns`` index into it
        (after the per-column reference offset).
    columns:
        One flat array (or list) of int ids per attribute, all of the same
        length (the *base* length).  Arrays of dtype uint8/16/32/int64 are
        kept as-is (the packed fast path); anything else widens to int64.
    selection:
        Optional array of base row indices: the relation's logical rows, in
        order.  ``None`` means "all base rows".  Treated as immutable by
        every kernel.  Narrow unsigned index arrays are accepted (fancy
        indexing works on them directly); selections never carry a
        reference -- their values are real indices.
    base_length:
        Length of the base columns; required when there are no columns
        (zero-arity relations still have a cardinality).
    references:
        Optional per-column frame-of-reference offsets: the stored value
        ``v`` of column ``i`` denotes dictionary id ``v + references[i]``.
        ``None`` means all zero (plain id columns).
    """

    __slots__ = (
        "dictionary",
        "_columns",
        "_selection",
        "_base_length",
        "_references",
        "_positions",
        "_decoded",
        "_known_distinct",
    )

    def __init__(
        self,
        name: str,
        attributes: Sequence[str],
        dictionary: Dictionary,
        columns: Sequence[Sequence[int]],
        selection=None,
        base_length: Optional[int] = None,
        references: Optional[Sequence[int]] = None,
    ) -> None:
        attrs = tuple(str(a) for a in attributes)
        if len(set(attrs)) != len(attrs):
            raise DatabaseError(f"relation {name!r} has duplicate attributes: {attrs}")
        cols = tuple(_as_id_array(column) for column in columns)
        if len(cols) != len(attrs):
            raise DatabaseError(
                f"relation {name!r}: {len(cols)} columns for {len(attrs)} attributes"
            )
        if base_length is None:
            if not cols:
                raise DatabaseError(
                    f"relation {name!r}: a column-less relation needs an explicit "
                    "base_length"
                )
            base_length = len(cols[0])
        for col in cols:
            if col.ndim != 1 or len(col) != base_length:
                raise DatabaseError(
                    f"relation {name!r}: ragged columns ({len(col)} vs {base_length})"
                )
        if references is None:
            refs = (0,) * len(cols)
        else:
            refs = tuple(int(r) for r in references)
            if len(refs) != len(cols):
                raise DatabaseError(
                    f"relation {name!r}: {len(refs)} references for "
                    f"{len(cols)} columns"
                )
        self.name = name
        self.attributes = attrs
        self.dictionary = dictionary
        self._columns = cols
        self._selection = None if selection is None else _as_id_array(selection)
        self._references = refs
        self._base_length = base_length
        self._positions = {a: i for i, a in enumerate(attrs)}
        self._decoded: Optional[Tuple[Row, ...]] = None
        # Set by distinct()/project-distinct: the logical rows are known to
        # be duplicate-free, which lets a semijoin pick np.isin's sort-based
        # algorithm without re-deriving distinctness.
        self._known_distinct = False
        self._rows = None  # unused; the decoded cache lives in _decoded
        self._index_cache = OrderedDict()
        self._index_lock = threading.Lock()

    # -- construction ---------------------------------------------------
    @classmethod
    def from_relation(
        cls, relation: Relation, dictionary: Dictionary, name: Optional[str] = None
    ) -> "ColumnarRelation":
        """Encode an arbitrary relation against ``dictionary`` (no-op when it
        is already columnar over the same dictionary)."""
        if (
            isinstance(relation, cls)
            and relation.dictionary is dictionary
            and (name is None or name == relation.name)
        ):
            return relation
        rows = relation.rows
        count = len(rows)
        columns = [
            np.fromiter(
                dictionary.encode_column(row[position] for row in rows),
                dtype=np.int64,
                count=count,
            )
            for position in range(len(relation.attributes))
        ]
        return cls(
            name or relation.name,
            relation.attributes,
            dictionary,
            columns,
            base_length=count,
        )

    @classmethod
    def from_value_columns(
        cls,
        name: str,
        attributes: Sequence[str],
        value_columns: Sequence[Sequence[Value]],
        dictionary: Dictionary,
    ) -> "ColumnarRelation":
        """Build a relation directly from per-attribute value columns,
        skipping row materialisation entirely (the generator's fast path)."""
        columns = [
            np.fromiter(
                dictionary.encode_column(column), dtype=np.int64, count=len(column)
            )
            for column in value_columns
        ]
        return cls(name, attributes, dictionary, columns)

    # -- row-boundary accessors -----------------------------------------
    @property
    def rows(self) -> Tuple[Row, ...]:
        """The decoded tuples, materialised once and cached."""
        if self._decoded is None:
            cols = self._columns
            if not cols:
                self._decoded = ((),) * self.cardinality
            else:
                decode_ids = self.dictionary.decode_ids
                decoded_columns = [
                    decode_ids(self._decoded_logical(position).tolist())
                    for position in range(len(cols))
                ]
                self._decoded = tuple(zip(*decoded_columns))
        return self._decoded

    def rows_json(self) -> str:
        """:meth:`Relation.rows_json` built column by column: one fancy
        index of the dictionary's JSON tokens and one ``tolist()`` per
        column, then one ``zip`` and ``join`` -- no per-row container
        outlives its row, so the cyclic collector has nothing to walk."""
        if not self._columns or not self.cardinality:
            return super().rows_json()
        tokens = self.dictionary.json_tokens()
        cells = [
            tokens[self._decoded_logical(position)].tolist()
            for position in range(len(self._columns))
        ]
        try:
            return "[[" + "],[".join(map(",".join, zip(*cells))) + "]]"
        except TypeError:  # a None token: a value JSON cannot encode
            raise unencodable(self.rows) from None

    @property
    def cardinality(self) -> int:
        selection = self._selection
        return len(selection) if selection is not None else self._base_length

    def column(self, attribute: str) -> Tuple[Value, ...]:
        ids = self._decoded_logical(self.position(attribute))
        return tuple(self.dictionary.decode_ids(ids.tolist()))

    def distinct_count(self, attribute: str) -> int:
        col = self._logical(self._columns[self.position(attribute)])
        return int(np.unique(col).size)

    def distinct_counts(self) -> Dict[str, int]:
        """Distinct-value counts of every attribute, straight from the id
        columns (the columnar ``ANALYZE TABLE``)."""
        return {a: self.distinct_count(a) for a in self.attributes}

    def distinct_cardinality(self) -> int:
        return int(np.unique(_local_keys(self, self.attributes)).size)

    def distinct(self, name: Optional[str] = None) -> "ColumnarRelation":
        selection = _distinct_selection(self, self.attributes)
        result = ColumnarRelation(
            name or self.name,
            self.attributes,
            self.dictionary,
            self._columns,
            selection,
            self._base_length,
            references=self._references,
        )
        result._known_distinct = True
        return result

    def rename(
        self, mapping: Dict[str, str], name: Optional[str] = None
    ) -> "ColumnarRelation":
        new_attrs = [mapping.get(a, a) for a in self.attributes]
        result = ColumnarRelation(
            name or self.name,
            new_attrs,
            self.dictionary,
            self._columns,
            self._selection,
            self._base_length,
            references=self._references,
        )
        result._known_distinct = self._known_distinct
        return result

    def with_rows(
        self, rows: Iterable[Sequence[Value]], name: Optional[str] = None
    ) -> "ColumnarRelation":
        materialised = [tuple(row) for row in rows]
        arity = len(self.attributes)
        for row in materialised:
            if len(row) != arity:
                raise DatabaseError(
                    f"relation {self.name!r}: row {row} has arity {len(row)}, "
                    f"expected {arity}"
                )
        count = len(materialised)
        columns = [
            np.fromiter(
                self.dictionary.encode_column(row[position] for row in materialised),
                dtype=np.int64,
                count=count,
            )
            for position in range(arity)
        ]
        return ColumnarRelation(
            name or self.name,
            self.attributes,
            self.dictionary,
            columns,
            base_length=count,
        )

    def column_nbytes(self) -> int:
        """Bytes held by the base column arrays plus the selection vector --
        also the exact on-disk size of the relation's binary files under
        :mod:`repro.db.storage` (the format stores each column's packed
        little-endian representation verbatim, so saving is a plain dump
        and opening is ``np.memmap``; packed columns count their narrow
        dtype here, which is what the compression ratio of ``db info``
        measures).  Columns loaded from storage are read-only memmaps;
        every kernel treats input columns as immutable, so they execute on
        mapped relations unchanged.
        """
        total = sum(col.nbytes for col in self._columns)
        if self._selection is not None:
            total += self._selection.nbytes
        return int(total)

    def __repr__(self) -> str:
        return (
            f"ColumnarRelation({self.name!r}, attributes={self.attributes}, "
            f"cardinality={self.cardinality})"
        )

    # -- id-space internals (used by the kernels below) ------------------
    def _row_indices(self) -> np.ndarray:
        """The logical rows as base indices."""
        selection = self._selection
        if selection is not None:
            return selection
        return np.arange(self._base_length, dtype=np.int64)

    def _logical(self, column: np.ndarray) -> np.ndarray:
        """A base column restricted to the logical rows."""
        selection = self._selection
        return column if selection is None else column[selection]

    def _decoded_logical(self, position: int) -> np.ndarray:
        """The logical column at ``position`` widened back to dictionary
        ids (int64) -- the value-boundary decode, the only place a packed
        column's reference is re-applied."""
        col = self._logical(self._columns[position])
        ref = self._references[position]
        if ref == 0 and col.dtype == np.int64:
            return col
        col = col.astype(np.int64)
        if ref:
            col += ref
        return col

    def _gathered(self, attrs: Sequence[str]) -> List[np.ndarray]:
        """The (packed) id columns of ``attrs``, in logical row order."""
        positions = self._positions
        return [self._logical(self._columns[positions[a]]) for a in attrs]

    def _gathered_refs(self, attrs: Sequence[str]) -> List[int]:
        """The frame-of-reference offsets of ``attrs``' columns."""
        positions = self._positions
        return [self._references[positions[a]] for a in attrs]


# ----------------------------------------------------------------------
# Key construction.
# ----------------------------------------------------------------------


def _column_bits(columns: Sequence[np.ndarray]) -> int:
    """Bits needed to represent every id appearing in ``columns``."""
    bits = 0
    for col in columns:
        if col.size:
            bits = max(bits, int(col.max()).bit_length())
    return bits


def _combine_columns(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Fold id columns into one injective int64 key per row, re-densifying
    through ``np.unique`` before any step that could overflow."""
    keys = columns[0].astype(np.int64, copy=False)
    key_limit = int(keys.max()) + 1 if keys.size else 1
    for col in columns[1:]:
        col = col.astype(np.int64, copy=False)
        col_limit = int(col.max()) + 1 if col.size else 1
        if key_limit > (1 << _PACK_BITS) // col_limit:
            _, keys = np.unique(keys, return_inverse=True)
            key_limit = int(keys.max()) + 1 if keys.size else 1
        keys = keys * col_limit + col
        key_limit = key_limit * col_limit
    return keys


def _shift_pack(
    columns: Sequence[np.ndarray], width: int, total_bits: int
) -> np.ndarray:
    """Fold id columns into one key per row by shift-and-or, in the
    smallest dtype holding ``total_bits``."""
    dtype = _key_dtype(total_bits)
    shift = dtype.type(width)
    keys = columns[0].astype(dtype)
    for col in columns[1:]:
        keys <<= shift
        keys |= col.astype(dtype, copy=False)
    return keys


def _local_keys(relation: ColumnarRelation, attrs: Sequence[str]) -> np.ndarray:
    """One packed key per logical row over ``attrs`` (keys comparable only
    within this relation).  References need no handling here: a column's
    offset is constant, so packed equality is id equality."""
    cols = relation._gathered(attrs)
    if not cols:
        return np.zeros(relation.cardinality, dtype=np.int64)
    if len(cols) == 1:
        return cols[0]
    # The pack width comes from the ids actually present, not the dictionary
    # size, so a dictionary bloated by other relations (or fresh-variable
    # surrogates) never pushes a narrow key off the shift fast path.
    width = max(_column_bits([col]) for col in cols[1:])
    total = _column_bits([cols[0]]) + width * (len(cols) - 1)
    if total <= _PACK_BITS:
        return _shift_pack(cols, width, total)
    return _combine_columns(cols)


def _first_occurrences(keys: np.ndarray) -> np.ndarray:
    """The ascending positions of the first occurrence of every distinct
    value in the non-negative ``keys`` -- ``np.unique(keys,
    return_index=True)``'s index, sorted, without the stable argsort.

    Each row packs into one uint64 word ``(key << row_bits) | row`` with
    ``row_bits = bit_length(n - 1)``.  The words are all distinct, so one
    plain unstable sort orders them totally, and the low bits of each key
    group's first word are that key's smallest row.  Keys too wide to share
    a word (``key_bits + row_bits > 64``) are first re-densified through
    ``np.unique(return_inverse=True)``, after which every key is < n."""
    n = keys.shape[0]
    if not n:
        return np.zeros(0, dtype=np.intp)
    row_bits = (n - 1).bit_length()
    if int(keys.max()).bit_length() + row_bits > 64:
        _, keys = np.unique(keys, return_inverse=True)
    shift = np.uint64(row_bits)
    words = keys.astype(np.uint64)
    words <<= shift
    words |= np.arange(n, dtype=np.uint64)
    words.sort()
    high = words >> shift
    group_start = np.empty(n, dtype=bool)
    group_start[0] = True
    np.not_equal(high[1:], high[:-1], out=group_start[1:])
    first = words[group_start]
    first &= np.uint64((1 << row_bits) - 1)
    first = first.astype(np.intp)
    first.sort()
    return first


def _distinct_selection(
    relation: ColumnarRelation, attrs: Sequence[str]
) -> np.ndarray:
    """The base indices of the first occurrence of every distinct ``attrs``
    combination, in row order -- the shared dedup kernel behind
    ``distinct()`` and project-distinct.  :func:`_first_occurrences`
    depends only on key equality classes, so packed and int64 columns
    select the same rows."""
    keys = _local_keys(relation, attrs)
    return relation._row_indices()[_first_occurrences(keys)]


def _joint_keys(
    left: ColumnarRelation, right: ColumnarRelation, shared: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray]:
    """Packed keys for the shared columns of two relations, built from one
    packing so equal rows get equal keys on both sides.  Each shared
    column pair is first *aligned*: sides whose frame-of-reference offsets
    differ are rebased onto the smaller reference (staying narrow), after
    which stored equality is id equality and the usual width derivation
    applies."""
    if not shared:
        return (
            np.zeros(left.cardinality, dtype=np.int64),
            np.zeros(right.cardinality, dtype=np.int64),
        )
    left_cols = left._gathered(shared)
    right_cols = right._gathered(shared)
    aligned = [
        _aligned_pair(lcol, lref, rcol, rref)
        for lcol, lref, rcol, rref in zip(
            left_cols, left._gathered_refs(shared),
            right_cols, right._gathered_refs(shared),
        )
    ]
    left_cols = [pair[0] for pair in aligned]
    right_cols = [pair[1] for pair in aligned]
    if len(shared) == 1:
        return left_cols[0], right_cols[0]
    # One width for both sides, derived from the ids actually present (see
    # _local_keys); equal rows then pack to equal keys on either side.
    width = max(
        _column_bits([lcol, rcol])
        for lcol, rcol in zip(left_cols[1:], right_cols[1:])
    )
    lead = _column_bits([left_cols[0], right_cols[0]])
    total = lead + width * (len(shared) - 1)
    if total <= _PACK_BITS:
        return (
            _shift_pack(left_cols, width, total),
            _shift_pack(right_cols, width, total),
        )
    # Too wide for a shift pack: combine over the concatenation so the
    # data-dependent densify steps are shared by both sides.
    split = left.cardinality
    combined = _combine_columns(
        [np.concatenate([lc, rc]) for lc, rc in zip(left_cols, right_cols)]
    )
    return combined[:split], combined[split:]


def _count_table(sorted_keys: np.ndarray, probe_card: int) -> Optional[np.ndarray]:
    """The join probe's dense lookup table over the non-empty sorted build
    keys, or ``None`` when their value span exceeds the build plus probe
    row count (a memory bound: the table is never larger than the inputs).

    ``table[j]`` counts the build keys below ``low + j - 1`` for the
    ``span + 3`` slots: a zero slot under the minimum, the cumulative
    counts over ``[low, high]`` and an ``n_build`` slot above the maximum,
    so :func:`_match_ranges` answers every probe key, in range or not, with
    one clipped lookup."""
    build_card = sorted_keys.shape[0]
    low = int(sorted_keys[0])
    span = int(sorted_keys[-1]) - low + 1
    if span > build_card + probe_card:
        return None
    table = np.empty(span + 3, dtype=np.int64)
    table[:2] = 0
    np.cumsum(np.bincount(sorted_keys - low, minlength=span), out=table[2:-1])
    table[-1] = build_card
    return table


def _match_ranges(
    sorted_keys: np.ndarray, table: Optional[np.ndarray], keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every probe key's ``[lo, lo + count)`` range of equal sorted build
    keys -- exactly ``searchsorted``'s left index and right minus left,
    keys outside the build range included -- read from the
    :func:`_count_table` ``table``, or by binary search without one."""
    if table is None:
        lo = np.searchsorted(sorted_keys, keys, side="left")
        return lo, np.searchsorted(sorted_keys, keys, side="right") - lo
    # Both operands are non-negative, so the int64 difference never wraps.
    slot = np.subtract(keys, int(sorted_keys[0]), dtype=np.int64)
    np.clip(slot, -1, table.shape[0] - 3, out=slot)
    slot += 1
    lo = table[slot]
    counts = table[1:][slot]
    counts -= lo
    return lo, counts


# ----------------------------------------------------------------------
# Kernels.  All record the same OperatorStats counts as the row-based
# operators in repro.db.algebra (same operator label, same read and emitted
# cardinalities), so "evaluation work" numbers are representation-blind.
# ----------------------------------------------------------------------


def columnar_natural_join(
    left: ColumnarRelation,
    right: ColumnarRelation,
    stats=None,
    name: Optional[str] = None,
    keep=None,
) -> ColumnarRelation:
    """Sort-and-probe hash-equivalent join on packed keys.

    The smaller side is stable-sorted by key, and every probe row becomes a
    [lo, lo + count) range of matches (:func:`_match_ranges`: one lookup in
    a :func:`_count_table` when the build keys' span is at most the build
    plus probe rows, ``searchsorted`` otherwise).  The range sizes are
    known before any output is built, so the budget check fires *between
    the probe and materialisation phases* with the exact would-be emit
    count -- a runaway join stops at the budget, not past it.  The ranges
    expand into sorted positions with one ``repeat`` per emit chunk.

    ``keep`` (an attribute collection) is the kernel-level projection
    pushdown: only the listed output columns are gathered, skipping the
    fancy-indexing for columns a downstream projection would immediately
    drop.  The join semantics, the emitted cardinality and hence every
    ``OperatorStats`` count are unaffected -- callers must keep every
    attribute that later operators (joins on shared variables, the final
    projection) still need.

    The memory budget ``stats`` carries (else ``_DEFAULT_BUDGET_BYTES``)
    bounds the one output-sized phase, materialisation: the match indices
    are built in emit chunks written straight into the preallocated output
    columns, so the transient index arrays (``matched``/``build_idx``/
    ``probe_idx``/...) hold O(budget) elements instead of O(emitted).  Each
    chunk is the largest probe-row prefix whose transient cost
    ``5*chunk_emit + 3*chunk_probe`` fits the budget (in 8-byte words),
    computed exactly from the per-row emit counts; a join that fits is one
    chunk.  The total emit count is known before any chunk is built, so the
    budget stop, the output (values **and** row order) and all
    ``OperatorStats`` counters do not depend on the budget.  All sizing
    decisions are element counts, never bytes-of-dtype, so packed and int64
    runs chunk identically and ``peak_transient_elements`` stays pinned.
    """
    positions = right._positions
    shared = tuple(a for a in left.attributes if a in positions)
    left_positions = left._positions
    right_extra = [a for a in right.attributes if a not in left_positions]
    if keep is None:
        out_left = left.attributes
        out_right = right_extra
    else:
        out_left = tuple(a for a in left.attributes if a in keep)
        out_right = [a for a in right_extra if a in keep]
    out_attributes = out_left + tuple(out_right)
    reads = left.cardinality + right.cardinality
    if stats is not None:
        stats.check(reads)

    if left.cardinality == 0 or right.cardinality == 0:
        # Degenerate fast path: an empty side means an empty join -- skip
        # key packing, the sort and the range probe entirely.  The
        # emit count (0) and hence every OperatorStats number match the
        # full kernel on the same inputs.
        result = ColumnarRelation(
            name or f"({left.name}⋈{right.name})",
            out_attributes,
            left.dictionary,
            [np.empty(0, dtype=np.int64) for _ in out_attributes],
            base_length=0,
        )
        if stats is not None:
            stats.record("join", reads, 0)
        return result

    left_keys, right_keys = _joint_keys(left, right, shared)
    if left.cardinality <= right.cardinality:
        build, build_keys, probe, probe_keys = left, left_keys, right, right_keys
        build_is_left = True
    else:
        build, build_keys, probe, probe_keys = right, right_keys, left, left_keys
        build_is_left = False

    order = np.argsort(build_keys, kind="stable")
    sorted_keys = build_keys[order]
    probe_card = probe.cardinality
    # The table's size depends on key values, which FOR shifts, so it
    # counts only into the dtype-aware bytes, never into an element count.
    table = _count_table(sorted_keys, probe_card)
    key_bytes = sorted_keys.nbytes + probe_keys.nbytes
    if table is not None:
        key_bytes += table.nbytes

    lo, counts = _match_ranges(sorted_keys, table, probe_keys)
    emitted = int(counts.sum())
    if stats is not None:
        # The exact would-be total, before anything is materialised: the
        # stop point does not depend on how the emit is chunked.
        stats.check(reads + emitted)

    left_columns = left._columns
    right_columns = right._columns
    left_refs = left._references
    right_refs = right._references
    # (source column, comes-from-left) per output attribute; gathering
    # happens per emit chunk below.  Gathered columns keep their stored
    # dtype and reference -- the join never decodes.
    gather = [(left_columns[left_positions[a]], True) for a in out_left]
    gather += [(right_columns[positions[a]], False) for a in out_right]
    out_references = [left_refs[left_positions[a]] for a in out_left]
    out_references += [right_refs[positions[a]] for a in out_right]
    build_selection = build._selection
    probe_rows = probe._row_indices()

    # Materialisation in emit chunks, written straight into the
    # preallocated output columns (which keep each source column's packed
    # dtype).  Each chunk is the largest prefix of the remaining probe rows
    # whose transient cost 5*chunk_emit + 3*chunk_probe fits the budget,
    # found on a strictly increasing cost curve (cum is non-decreasing, the
    # 3-per-row term strictly increases) -- built only when the whole join
    # does not fit one chunk.  All quantities are element counts (dtype
    # independent), so packed and int64 runs make identical decisions.
    budget_bytes = None if stats is None else stats.memory_budget_bytes
    if budget_bytes is None or budget_bytes <= 0:
        budget_bytes = _DEFAULT_BUDGET_BYTES
    budget_words = max(int(budget_bytes) // 8, _MIN_BUDGET_WORDS)
    cum = np.cumsum(counts)
    cost = None
    if 5 * emitted + 3 * probe_card > budget_words:
        cost = 5 * cum + 3 * np.arange(1, probe_card + 1, dtype=np.int64)
    out_columns = [np.empty(emitted, dtype=column.dtype) for column, _ in gather]
    peak = 0
    start_row = 0
    offset = 0
    while start_row < probe_card:
        stop_row = probe_card
        if cost is not None:
            limit = 5 * offset + 3 * start_row + budget_words
            stop_row = int(np.searchsorted(cost, limit, side="right"))
            stop_row = max(start_row + 1, min(stop_row, probe_card))
        chunk_counts = counts[start_row:stop_row]
        chunk_emit = int(cum[stop_row - 1]) - offset
        # Expand every [lo, lo + count) range: output row i of a range that
        # starts at output offset c sits at sorted position lo + (i - c).
        matched = np.arange(offset, offset + chunk_emit, dtype=np.int64)
        matched += np.repeat(
            lo[start_row:stop_row] - (cum[start_row:stop_row] - chunk_counts),
            chunk_counts,
        )
        matched = order[matched]
        build_idx = matched if build_selection is None else build_selection[matched]
        probe_idx = np.repeat(probe_rows[start_row:stop_row], chunk_counts)
        left_idx, right_idx = (
            (build_idx, probe_idx) if build_is_left else (probe_idx, build_idx)
        )
        for out_column, (column, from_left) in zip(out_columns, gather):
            # The indices come from the sort order and the selection
            # vectors, so they are in range; "clip" lets take() write into
            # ``out`` unbuffered.
            np.take(
                column,
                left_idx if from_left else right_idx,
                out=out_column[offset : offset + chunk_emit],
                mode="clip",
            )
        peak = max(peak, 5 * chunk_emit + 3 * (stop_row - start_row))
        _obs_note("emit_morsels")
        _obs_note("emitted", chunk_emit)
        offset += chunk_emit
        start_row = stop_row
    if stats is not None:
        stats.note_transient(peak, 8 * peak + key_bytes)

    result = ColumnarRelation(
        name or f"({left.name}⋈{right.name})",
        out_attributes,
        left.dictionary,
        out_columns,
        base_length=emitted,
        references=out_references,
    )
    if stats is not None:
        stats.record("join", reads, result.cardinality)
    return result


def columnar_semijoin(
    left: ColumnarRelation,
    right: ColumnarRelation,
    stats=None,
) -> ColumnarRelation:
    """``left ⋉ right`` as pure selection-vector filtering: an ``np.isin``
    membership mask over the key column, no tuple ever materialised.

    An empty side short-circuits before any key is packed; a build side
    known to be duplicate-free (project-distinct output) picks ``np.isin``'s
    sort-based algorithm directly.  Every array here is input-sized, so
    the memory budget does not apply.
    """
    shared = tuple(a for a in left.attributes if a in right._positions)
    reads = left.cardinality + right.cardinality
    if stats is not None:
        stats.check(reads)
    if not shared or left.cardinality == 0 or right.cardinality == 0:
        # No shared attribute, or a degenerate side: the semijoin keeps
        # everything iff the right side is non-empty -- no key packing, no
        # membership test.
        selection = (
            left._selection
            if right.cardinality
            else np.empty(0, dtype=np.int64)
        )
    else:
        left_keys, right_keys = _joint_keys(left, right, shared)
        # np.isin picks table- vs sort-based internally; when the build
        # side is project-distinct output its keys are duplicate-free, so
        # the sort-based merge is chosen outright.
        kind = (
            "sort"
            if right._known_distinct and len(shared) == len(right.attributes)
            else None
        )
        mask = np.isin(left_keys, right_keys, kind=kind)
        if stats is not None:
            filter_card = left_keys.shape[0]
            stats.note_transient(
                2 * filter_card + right_keys.shape[0],
                left_keys.nbytes + right_keys.nbytes + 2 * filter_card,
            )
        selection = left._row_indices()[mask]
    result = ColumnarRelation(
        left.name,
        left.attributes,
        left.dictionary,
        left._columns,
        selection,
        left._base_length,
        references=left._references,
    )
    if stats is not None:
        stats.record("semijoin", reads, result.cardinality)
    return result


def columnar_project(
    relation: ColumnarRelation,
    attributes: Sequence[str],
    stats=None,
    name: Optional[str] = None,
    distinct: bool = True,
) -> ColumnarRelation:
    """``Π_attributes`` as column subsetting; ``distinct`` deduplicates
    packed keys into a first-occurrence selection vector by one unstable
    sort of (key, row) words (:func:`_first_occurrences`; every array is
    input-sized, so the memory budget does not apply)."""
    positions = relation._positions
    wanted = [a for a in attributes if a in positions]
    columns = tuple(relation._columns[positions[a]] for a in wanted)
    references = [relation._references[positions[a]] for a in wanted]
    if stats is not None:
        stats.check(relation.cardinality)
    if distinct:
        selection = _distinct_selection(relation, wanted)
    else:
        selection = relation._selection
    result = ColumnarRelation(
        name or relation.name,
        wanted,
        relation.dictionary,
        columns,
        selection,
        relation._base_length,
        references=references,
    )
    if distinct:
        result._known_distinct = True
    if stats is not None:
        stats.record("project", relation.cardinality, result.cardinality)
    return result


def columnar_select(relation: ColumnarRelation, predicate, stats=None) -> ColumnarRelation:
    """``σ_predicate``: decode per row only to feed the predicate, keep the
    result as a selection vector over the same columns."""
    dictionary = relation.dictionary
    attrs = relation.attributes
    decoded = [
        dictionary.decode_ids(
            relation._logical(relation._columns[position]).tolist(),
            relation._references[position],
        )
        for position in range(len(relation._columns))
    ]
    kept = [
        bool(predicate(dict(zip(attrs, row_values))))
        for row_values in zip(*decoded)
    ] if decoded else [bool(predicate({})) for _ in range(relation.cardinality)]
    mask = np.fromiter(kept, dtype=bool, count=len(kept))
    selection = relation._row_indices()[mask]
    result = ColumnarRelation(
        relation.name,
        attrs,
        relation.dictionary,
        relation._columns,
        selection,
        relation._base_length,
        references=relation._references,
    )
    if stats is not None:
        stats.record("select", relation.cardinality, result.cardinality)
    return result
