"""Value ↔ dense-integer interning for the columnar engine.

A :class:`Dictionary` is the data-plane sibling of
:class:`repro.core.vocabulary.Vocabulary`: it assigns consecutive integer
ids to *domain values* (the objects stored in relation tuples) so that a
column becomes a flat array of small ints and every equality test, hash
probe and distinct count runs on machine integers instead of arbitrary
Python objects.

Interning uses ordinary ``dict`` equality, so two values that compare equal
(``3 == 3.0``) share an id — exactly the equality the row-based operators
used, which keeps the columnar kernels answer-identical.  Dictionaries are
append-only: ids are never reused, so a decoded value is always the object
that was interned first, and decoding is a single list index ("decode once
per distinct id").

One :class:`Dictionary` is shared by every relation of a
:class:`repro.db.database.Database`, so columns of different relations are
directly comparable: a join or semijoin between two relations of the same
database never touches the values themselves.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import DatabaseError, StorageFormatError

#: Type tags of the persistence segments (see :meth:`Dictionary.to_segments`).
#: ``bool`` must be tested before ``int`` (it is an ``int`` subclass) so a
#: stored ``True`` decodes back to ``True``, not ``1``.
_SEGMENT_TYPES: Tuple[Tuple[str, type], ...] = (
    ("bool", bool),
    ("int", int),
    ("float", float),
    ("str", str),
)


def json_token(value: Any) -> Optional[str]:
    """The compact JSON text of one value -- exactly what ``json.dumps``
    writes for it inside a row -- or ``None`` when JSON cannot encode it."""
    try:
        return json.dumps(value, separators=(",", ":"))
    except (TypeError, ValueError):
        return None


def unencodable(rows: Iterable[Sequence[Any]]) -> DatabaseError:
    """The error naming the first value of ``rows`` JSON cannot encode
    (the caller knows there is one)."""
    value = next(v for row in rows for v in row if json_token(v) is None)
    kind = type(value).__name__
    return DatabaseError(f"value {value!r} of type {kind!r} cannot be encoded as JSON")


class Dictionary:
    """An append-only interner mapping hashable domain values to dense ids."""

    __slots__ = ("_values", "_ids", "_tokens")

    def __init__(self, values: Iterable[Any] = ()) -> None:
        self._values: List[Any] = []
        self._ids: Dict[Any, int] = {}
        self._tokens = None  # see json_tokens()
        for value in values:
            self.encode(value)

    # ------------------------------------------------------------------
    def encode(self, value: Any) -> int:
        """The id of ``value``, assigning the next free id on first sight."""
        ids = self._ids
        index = ids.get(value)
        if index is None:
            index = len(self._values)
            ids[value] = index
            self._values.append(value)
        return index

    def encode_column(self, values: Iterable[Any]) -> List[int]:
        """Encode a whole column of values (interning as needed)."""
        ids = self._ids
        out: List[int] = []
        append = out.append
        values_list = self._values
        for value in values:
            index = ids.get(value)
            if index is None:
                index = len(values_list)
                ids[value] = index
                values_list.append(value)
            append(index)
        return out

    def id_of(self, value: Any) -> Optional[int]:
        """The id of an already-interned value, or ``None`` (no interning).

        Used for probe-side lookups (e.g. constants in query atoms): a value
        the database has never stored cannot match any row.
        """
        return self._ids.get(value)

    # ------------------------------------------------------------------
    def decode(self, index: int) -> Any:
        return self._values[index]

    def decode_ids(self, ids: Iterable[int], reference: int = 0) -> List[Any]:
        """Decode a batch of ids (optionally frame-of-reference offset).

        ``reference`` is the offset a packed column stores its ids relative
        to (see :mod:`repro.db.storage`); the true id of a stored value ``v``
        is ``v + reference``.  This is the single widening point where packed
        columns meet the value domain — the kernels themselves never decode.
        """
        if reference:
            values = self._values
            return [values[index + reference] for index in ids]
        return list(map(self._values.__getitem__, ids))

    @property
    def values(self) -> Sequence[Any]:
        """The id-indexed value list (read-only by convention); indexing it
        is the decode kernel the columnar accessors use."""
        return self._values

    def json_tokens(self):
        """The :func:`json_token` of every value as an id-indexed numpy
        object array (``None`` for a value JSON cannot encode), so a column
        of ids renders by one fancy index.  Built element-wise -- a tuple
        value stays one cell -- and, when the dictionary has grown since,
        extended by the new ids only."""
        import numpy as np

        tokens = self._tokens
        fresh = self._values[0 if tokens is None else len(tokens):]
        if tokens is None or fresh:
            new = np.fromiter(map(json_token, fresh), dtype=object, count=len(fresh))
            tokens = new if tokens is None else np.concatenate((tokens, new))
            self._tokens = tokens
        return tokens

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: object) -> bool:
        return value in self._ids

    # ------------------------------------------------------------------
    # Persistence (the storage plane serialises dictionaries as typed
    # segments; see repro.db.storage).
    # ------------------------------------------------------------------
    def to_segments(self) -> List[Tuple[str, List[Any]]]:
        """The id-ordered value list as (type-tag, values) runs.

        Consecutive values of the same JSON-representable type are grouped
        into one segment, so the common case (a long run of ints, or of
        strings) stays compact and decoding is a straight concatenation that
        reproduces the exact id order.  Unicode strings, negative and
        arbitrarily large ints, floats, bools and ``None`` all round-trip
        exactly; any other value type raises :class:`StorageFormatError`
        (the on-disk format would not preserve it).
        """
        segments: List[Tuple[str, List[Any]]] = []
        for value in self._values:
            tag = None
            if value is None:
                tag = "none"
            else:
                for candidate, cls in _SEGMENT_TYPES:
                    if isinstance(value, cls):
                        tag = candidate
                        break
            if tag is None:
                raise StorageFormatError(
                    f"dictionary value {value!r} of type "
                    f"{type(value).__name__!r} cannot be stored; supported "
                    "types: int, str, float, bool, None"
                )
            if segments and segments[-1][0] == tag:
                segments[-1][1].append(value)
            else:
                segments.append((tag, [value]))
        return segments

    @classmethod
    def from_segments(cls, segments: Iterable[Sequence[Any]]) -> "Dictionary":
        """Rebuild a dictionary from :meth:`to_segments` output (ids are
        reassigned in order, hence identical to the saved ones).  A segment
        that is not ``[tag, [values of exactly that type]]`` raises
        :class:`StorageFormatError` -- nothing is coerced."""
        kinds = dict(_SEGMENT_TYPES, none=type(None))

        def values():
            for segment in segments:
                if (
                    not isinstance(segment, (list, tuple))
                    or len(segment) != 2
                    or not isinstance(segment[1], list)
                ):
                    raise StorageFormatError(
                        f"malformed dictionary segment: {segment!r}"
                    )
                tag, payload = segment
                if not isinstance(tag, str) or tag not in kinds:
                    raise StorageFormatError(
                        f"unknown dictionary segment type {tag!r}"
                    )
                kind = kinds[tag]
                for value in payload:
                    if type(value) is not kind:
                        raise StorageFormatError(
                            f"dictionary segment {tag!r} holds {value!r}"
                        )
                    yield value

        return cls(values())

    def __repr__(self) -> str:
        return f"Dictionary({len(self._values)} values)"
