"""The store format: an mmap-backed on-disk database, a content-addressed
workload cache over it, and the plan cache's entry files.

**The storage format** (:func:`save_database` / :func:`open_database`) -- a
directory per database::

    <dir>/catalog.json        # format marker+version, relation metadata,
                              # per-column encoding, statistics, dictionary
    <dir>/dictionary.json     # the interner as typed value segments
    <dir>/cols/r<i>_c<j>.<dt> # one little-endian column file per column
    <dir>/cols/r<i>_sel.<dt>  # optional selection vector

``<dt>`` names the column's storage dtype: ``u1``/``u2``/``u4`` for
frame-of-reference packed columns (codec ``"for"``: the file holds
``id - reference`` in the smallest unsigned dtype covering the column's id
span; the reference is recorded in the catalog) and ``i64`` for raw int64
columns (codec ``"raw"``, reference 0).  :func:`pack_ids` /
:func:`unpack_ids` are the codec, and the data picks the width: a save
writes ``i64`` only for a span over 32 bits, while the reader accepts an
``i64`` column wherever one is on disk.

**One decode per document.**  :func:`load_catalog` is the only reader of
``catalog.json``: it returns a frozen :class:`Catalog` of
:class:`StoredRelation` / :class:`StoredColumn` records whose every field
has been type- and range-checked, cross-checked against the fields that
restate it (column count vs attributes, ``bytes`` vs dtype x length,
cardinality vs selection) and whose file names are confined to the store
directory -- or raises :class:`StorageFormatError`.  ``dictionary.json``
likewise has one reader.  :func:`open_database` (both engines),
:func:`storage_info`, :func:`verify_store`, :func:`store_digest` and
:func:`cached_database` are loops over those records.  Only the current
:data:`FORMAT_VERSION` is read; an older store is refused with a message
asking for a re-save.

Opening maps every column file with ``np.memmap(mode="r")`` **at its
stored width** -- no interning, no row materialisation, no decode: the
kernels run on the packed ids and never mutate input columns, so the maps
are read-only.  Without numpy (or with ``columnar=False``) the same files
decode through the row engine.  A round-tripped database yields
byte-identical answers, row order and ``OperatorStats`` to the in-memory
database it was saved from (``tests/test_storage.py``,
``tests/test_packed_encoding.py``).

**The workload cache** (:func:`cached_database`) -- a content-addressed
store of generated databases keyed by ``(generator kind, params)``, active
when a directory is configured (``REPRO_WORKLOAD_CACHE_DIR`` or an explicit
``cache_dir``).  Saves are atomic; an entry that does not open -- corrupt,
or written at another format version -- is regenerated in place.

**The plan cache** (:class:`PlanCache`) -- key-echoed JSON entry files.
What a key and an entry *mean* is the planner's business
(:func:`repro.planner.plans.cached_plan`; the plan payload codec lives in
:mod:`repro.db.plan_ir`).
"""

from __future__ import annotations

import json
import hashlib
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

try:  # The mmap fast path needs numpy; the row fallback covers its absence.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None  # type: ignore[assignment]

from repro.db.database import Database
from repro.db.dictionary import Dictionary
# Re-exported: it lived here, and callers still import it from this module.
from repro.db.plan_ir import decomposition_to_payload as decomposition_to_payload
from repro.db.relation import Relation
from repro.db.statistics import CatalogStatistics, TableStatistics
from repro.exceptions import DatabaseError, StorageFormatError

try:
    from repro.db.columnar import ColumnarRelation
except ImportError:  # pragma: no cover - exercised only without numpy
    ColumnarRelation = None  # type: ignore[assignment]

#: Format marker + version of the on-disk layout.  Bump the version on any
#: incompatible change; readers raise :class:`StorageFormatError` on both an
#: unknown marker and any other version (version 1 had no per-column
#: encoding metadata; a store that old must be re-saved).
FORMAT_NAME = "repro-columnar-db"
FORMAT_VERSION = 2

_CATALOG_FILE = "catalog.json"
_DICTIONARY_FILE = "dictionary.json"
_COLUMN_DIR = "cols"

#: Environment knob of the workload cache: the directory that activates it.
CACHE_DIR_ENV = "REPRO_WORKLOAD_CACHE_DIR"


# ----------------------------------------------------------------------
# Column codec: frame-of-reference + bit-width packing.
# ----------------------------------------------------------------------

#: Storage dtype tags: ``tag -> (array typecode, itemsize, numpy dtype)``.
#: The tag doubles as the column file extension; ``i64`` is the raw codec's
#: dtype.
_DTYPE_TAGS = {
    "u1": ("B", 1, "<u1"),
    "u2": ("H", 2, "<u2"),
    "u4": ("I", 4, "<u4"),
    "i64": ("q", 8, "<i8"),
}


def _id_bounds(ids, reference: int = 0):
    """``(lo, hi)`` of a column's true ids (stored value + reference);
    ``(0, 0)`` for an empty column."""
    if np is not None and isinstance(ids, np.ndarray):
        if ids.size == 0:
            return 0, 0
        return int(ids.min()) + reference, int(ids.max()) + reference
    if not len(ids):
        return 0, 0
    return int(min(ids)) + reference, int(max(ids)) + reference


def _span_tag(lo: int, hi: int) -> str:
    """The smallest unsigned tag whose range covers ``hi - lo``; ``i64``
    when the span needs more than 32 bits."""
    span = hi - lo
    if span < 1 << 8:
        return "u1"
    if span < 1 << 16:
        return "u2"
    if span < 1 << 32:
        return "u4"
    return "i64"


def pack_ids(
    ids,
    reference: int = 0,
    frame_of_reference: bool = True,
) -> "tuple[bytes, Dict[str, Any]]":
    """Encode one id column into its on-disk bytes plus encoding metadata
    ``{"codec", "dtype", "reference"}``.

    ``reference`` is the frame the *input* ids are already stored in (their
    true value is ``stored + reference``); the encoder re-frames from
    scratch, so re-saving a packed store re-packs optimally.  With
    ``frame_of_reference=False`` (selection vectors: the values are real
    row indices that fancy indexing consumes directly) the new reference is
    pinned to 0 and only the width narrows.  A span over 32 bits yields
    codec ``"raw"``: int64, reference 0.  Negative ids (never produced by
    the dictionary, but legal int64 input) fall back to the raw codec unless
    a frame shift absorbs them.
    """
    lo, hi = _id_bounds(ids, reference)
    if frame_of_reference:
        tag = _span_tag(lo, hi)
        new_reference = lo if tag != "i64" else 0
    else:
        tag = _span_tag(0, hi) if lo >= 0 else "i64"
        new_reference = 0
    typecode, _, np_dtype = _DTYPE_TAGS[tag]
    if np is not None and isinstance(ids, np.ndarray):
        true_ids = ids.astype(np.int64)
        if reference:
            true_ids += reference
        if new_reference:
            true_ids -= new_reference
        payload = np.ascontiguousarray(true_ids, dtype=np.dtype(np_dtype)).tobytes()
    else:
        import array

        arr = array.array(
            typecode, [int(v) + reference - new_reference for v in ids]
        )
        if sys.byteorder == "big":  # pragma: no cover - LE everywhere we run
            arr.byteswap()
        payload = arr.tobytes()
    meta = {
        "codec": "raw" if tag == "i64" else "for",
        "dtype": tag,
        "reference": int(new_reference),
    }
    return payload, meta


def unpack_ids(payload: bytes, meta: Mapping, length: int) -> List[int]:
    """Decode one column file's bytes back to true ids (the numpy-free
    inverse of :func:`pack_ids`; the mmap path never calls this)."""
    tag = str(meta.get("dtype", "i64"))
    if tag not in _DTYPE_TAGS:
        raise StorageFormatError(f"unknown column dtype tag {tag!r}")
    typecode, itemsize, _ = _DTYPE_TAGS[tag]
    if len(payload) != itemsize * length:
        raise StorageFormatError(
            f"column payload holds {len(payload)} bytes, expected "
            f"{itemsize * length} ({length} {tag} values)"
        )
    import array

    arr = array.array(typecode)
    arr.frombytes(payload)
    if sys.byteorder == "big":  # pragma: no cover - LE everywhere we run
        arr.byteswap()
    reference = int(meta.get("reference", 0))
    if reference:
        return [value + reference for value in arr]
    return arr.tolist()


# ----------------------------------------------------------------------
# The catalog: one typed decode of catalog.json / dictionary.json.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StoredColumn:
    """One catalog-declared column file (``attribute is None``: a selection
    vector).  ``file`` is relative to the store and confined to it."""

    attribute: Optional[str]
    file: str
    length: int
    dtype: str
    reference: int
    sha256: Optional[str]

    @property
    def codec(self) -> str:
        return "raw" if self.dtype == "i64" else "for"

    @property
    def nbytes(self) -> int:
        return _DTYPE_TAGS[self.dtype][1] * self.length


@dataclass(frozen=True)
class StoredRelation:
    """One catalog-declared relation: its columns share ``base_length``
    rows, narrowed by the optional selection vector."""

    name: str
    attributes: Tuple[str, ...]
    base_length: int
    columns: Tuple[StoredColumn, ...]
    selection: Optional[StoredColumn]
    known_distinct: bool

    @property
    def cardinality(self) -> int:
        return self.base_length if self.selection is None else self.selection.length

    @property
    def files(self) -> Tuple[StoredColumn, ...]:
        return self.columns + (() if self.selection is None else (self.selection,))


@dataclass(frozen=True)
class Catalog:
    """A fully checked ``catalog.json`` (see :func:`load_catalog`);
    ``digest`` is the canonical content digest of the document."""

    root: Path
    name: str
    digest: str
    dictionary_file: str
    dictionary_entries: int
    dictionary_sha256: Optional[str]
    relations: Tuple[StoredRelation, ...]
    statistics: CatalogStatistics


def _load_json(path: Path) -> Mapping:
    """A store document: a JSON object carrying this build's format marker
    and version."""
    try:
        # parse_constant=float: one fresh NaN object per stored NaN.  The
        # decoder's default shares one, and distinct NaNs -- distinct
        # dictionary ids -- would then intern to a single id.
        payload = json.loads(path.read_text(), parse_constant=float)
    except OSError as exc:
        raise StorageFormatError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise StorageFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise StorageFormatError(f"{path} does not hold a JSON object")
    if payload.get("format") != FORMAT_NAME:
        raise StorageFormatError(
            f"{path} has format marker {payload.get('format')!r}, expected "
            f"{FORMAT_NAME!r} (not a stored repro database?)"
        )
    if payload.get("version") != FORMAT_VERSION:
        raise StorageFormatError(
            f"{path} is format version {payload.get('version')!r}; this build "
            f"reads only version {FORMAT_VERSION} -- re-save the database from "
            "its source (Database.save writes the current version)"
        )
    return payload


_REQUIRED = object()


def _field(meta, key: str, kind: type, default=_REQUIRED, of: Optional[type] = None):
    """``meta[key]``, which must be exactly a ``kind`` (a ``bool`` is not an
    ``int``; ints are non-negative; a list holds only ``of`` items) -- or
    ``default`` when the key is absent and a default is given."""
    if not isinstance(meta, dict):
        raise StorageFormatError(
            f"malformed catalog payload: {meta!r} is not an object"
        )
    value = meta.get(key, default)
    if value is default and default is not _REQUIRED:
        return value
    if (
        type(value) is not kind
        or (kind is int and value < 0)
        or (of is not None and any(type(item) is not of for item in value))
    ):
        raise StorageFormatError(
            f"malformed catalog payload: {key!r} must be "
            f"{'a non-negative int' if kind is int else kind.__name__}"
            f"{'' if of is None else ' of ' + of.__name__}, got {value!r}"
        )
    return value


def _confined(name: str) -> str:
    """``name`` if joining it to the store path stays inside the store."""
    if (
        not name
        or "\x00" in name
        or os.path.isabs(name)
        or ".." in PurePosixPath(name).parts
    ):
        raise StorageFormatError(
            f"malformed catalog payload: file name {name!r} leaves the store directory"
        )
    return name


def load_catalog(path) -> Catalog:
    """The one decode of ``catalog.json`` (metadata only -- no column file
    is touched).  Every consumer of a stored database reads the returned
    records, never the JSON."""
    root = Path(path)
    payload = _load_json(root / _CATALOG_FILE)
    dictionary = _field(payload, "dictionary", dict)
    entries = _field(dictionary, "entries", int)

    def column(meta, length: int, attribute: Optional[str]) -> StoredColumn:
        encoding = _field(meta, "encoding", dict)
        dtype = _field(encoding, "dtype", str)
        if dtype not in _DTYPE_TAGS:
            raise StorageFormatError(f"unknown column dtype tag {dtype!r}")
        stored = StoredColumn(
            attribute=attribute,
            file=_confined(_field(meta, "file", str)),
            length=length,
            dtype=dtype,
            reference=_field(encoding, "reference", int),
            sha256=_field(meta, "sha256", str, None),
        )
        if (
            _field(encoding, "codec", str) != stored.codec
            or stored.reference > (entries if stored.codec == "for" else 0)
            or _field(meta, "bytes", int) != stored.nbytes
            or _field(meta, "attribute", str, attribute) != attribute
        ):
            raise StorageFormatError(
                f"malformed catalog payload: column file {stored.file!r} "
                f"contradicts its own metadata ({meta!r})"
            )
        return stored

    relations = []
    for meta in _field(payload, "relations", list):
        name = _field(meta, "name", str)
        attributes = tuple(_field(meta, "attributes", list, of=str))
        base_length = _field(meta, "base_length", int)
        column_metas = _field(meta, "columns", list)
        if len(column_metas) != len(attributes):
            raise StorageFormatError(
                f"malformed catalog payload: relation {name!r} has "
                f"{len(column_metas)} column files for {len(attributes)} attributes"
            )
        selection = _field(meta, "selection", dict, None)
        if selection is not None:
            # Selection values are row indices: width-packed, never re-framed.
            selection = column(selection, _field(selection, "length", int), None)
        stored = StoredRelation(
            name=name,
            attributes=attributes,
            base_length=base_length,
            columns=tuple(
                column(column_meta, base_length, attribute)
                for column_meta, attribute in zip(column_metas, attributes)
            ),
            selection=selection,
            known_distinct=_field(meta, "known_distinct", bool),
        )
        if _field(meta, "cardinality", int) != stored.cardinality or (
            selection is not None and selection.reference
        ):
            raise StorageFormatError(
                f"malformed catalog payload: relation {name!r} contradicts its "
                "own selection metadata"
            )
        relations.append(stored)
    if len({stored.name for stored in relations}) != len(relations):
        raise StorageFormatError(
            "malformed catalog payload: two relations share one name"
        )
    statistics = CatalogStatistics()
    tables = _field(_field(payload, "statistics", dict), "tables", dict)
    for name, table in tables.items():
        cardinality = _field(table, "cardinality", int)
        counts = _field(table, "distinct_counts", dict)
        counts = {key: _field(counts, key, int) for key in counts}
        try:
            statistics.add(TableStatistics(name, cardinality, counts))
        except DatabaseError as exc:  # e.g. more distinct values than rows
            raise StorageFormatError(f"malformed catalog payload: {exc}") from exc
    return Catalog(
        root=root,
        name=_field(payload, "name", str),
        digest=canonical_digest(payload),
        dictionary_file=_confined(_field(dictionary, "file", str)),
        dictionary_entries=entries,
        dictionary_sha256=_field(dictionary, "sha256", str, None),
        relations=tuple(relations),
        statistics=statistics,
    )


def _load_dictionary(catalog: Catalog) -> Dictionary:
    """The one decode of ``dictionary.json``, checked against the entry
    count its catalog declares."""
    source = catalog.root / catalog.dictionary_file
    segments = _load_json(source).get("segments")
    if not isinstance(segments, list):
        raise StorageFormatError(f"{source} holds no segment list")
    dictionary = Dictionary.from_segments(segments)
    if len(dictionary) != catalog.dictionary_entries:
        raise StorageFormatError(
            f"dictionary holds {len(dictionary)} values, catalog declares "
            f"{catalog.dictionary_entries}"
        )
    return dictionary


def _check_column_file(root: Path, column: StoredColumn) -> Path:
    """The column's path, once the file is there at exactly its declared
    size -- checked before anything is mapped, read or allocated."""
    path = root / column.file
    try:
        size = path.stat().st_size
    except OSError as exc:
        raise StorageFormatError(f"missing column file {path}") from exc
    if size != column.nbytes:
        raise StorageFormatError(
            f"column file {path} holds {size} bytes, expected "
            f"{column.nbytes} ({column.length} {column.dtype} values)"
        )
    return path


def _memmap_column(root: Path, column: StoredColumn):
    """Map one column file read-only at its stored width (zero rows need no
    file mapping)."""
    path = _check_column_file(root, column)
    np_dtype = np.dtype(_DTYPE_TAGS[column.dtype][2])
    if column.length == 0:
        return np.empty(0, dtype=np_dtype.newbyteorder("="))
    try:
        return np.memmap(path, dtype=np_dtype, mode="r")
    except (OSError, ValueError) as exc:
        raise StorageFormatError(f"cannot map column file {path}: {exc}") from exc


def _read_column(root: Path, column: StoredColumn) -> List[int]:
    """Decode one column file to true ids without numpy (the row-engine
    open path)."""
    path = _check_column_file(root, column)
    try:
        payload = path.read_bytes()
    except OSError as exc:
        raise StorageFormatError(f"cannot read column file {path}: {exc}") from exc
    return unpack_ids(
        payload, {"dtype": column.dtype, "reference": column.reference}, column.length
    )


def _checked_ids(
    column,
    limit: int,
    relation: str,
    what: str = "dictionary id",
    reference: int = 0,
):
    """Range-check a loaded id column against ``[0, limit)``.

    Bit-level corruption that survives the byte-length check would otherwise
    decode *silently* through Python/numpy negative indexing into wrong
    values; a single min/max scan turns it into a loud
    :class:`StorageFormatError`.  (For memmaps this is the one sequential
    read an open performs -- no allocation, and orders of magnitude cheaper
    than regeneration.)  ``reference`` is the column's frame offset: the
    check runs on true ids, the stored values stay packed.
    """
    lo, hi = _id_bounds(column, reference)
    if len(column) and (lo < 0 or hi >= limit):
        raise StorageFormatError(
            f"relation {relation!r}: stored {what} out of range "
            f"([{lo}, {hi}] not within [0, {limit}))"
        )
    return column


# ----------------------------------------------------------------------
# Save.
# ----------------------------------------------------------------------


def _encoded_relations(database: Database):
    """``(dictionary, [(relation, base_columns, references, selection,
    base_length, known_distinct)])`` -- the id-space view of every stored
    relation.

    Columnar relations are already in id space over the database's shared
    dictionary (their columns may be packed with per-column references).
    Row relations (a ``columnar=False`` database) are encoded column-major
    into a fresh dictionary at save time, in relation order -- the same
    interning order the columnar generator produces, so the stored bytes
    are identical whichever engine generated the data.
    """
    columnar = [
        relation
        for relation in (database.relation(n) for n in database.relation_names())
    ]
    if database.columnar and ColumnarRelation is not None and all(
        isinstance(r, ColumnarRelation) and r.dictionary is database.dictionary
        for r in columnar
    ):
        encoded = [
            (
                r,
                r._columns,
                r._references,
                r._selection,
                r._base_length,
                r._known_distinct,
            )
            for r in columnar
        ]
        return database.dictionary, encoded
    dictionary = Dictionary()
    encoded = []
    for relation in columnar:
        rows = relation.rows
        columns = [
            dictionary.encode_column(row[position] for row in rows)
            for position in range(len(relation.attributes))
        ]
        references = [0] * len(relation.attributes)
        encoded.append((relation, columns, references, None, len(rows), False))
    return dictionary, encoded


def save_database(database: Database, path) -> Path:
    """Write ``database`` to ``path`` (a directory, created as needed) in
    the mmap-able columnar format.  Existing contents are replaced
    **atomically**: the whole store is encoded into a staging sibling
    directory first and only a complete, self-consistent store is renamed
    into place -- a crash mid-save leaves a previous good store at ``path``
    untouched (and a fresh save simply absent), never a half-written mix
    of old and new files.  The statistics catalog is stored verbatim, so
    opening restores it without re-analysis.  Every column/selection file
    and the dictionary carry a SHA-256 content digest in the catalog
    (checked by ``verify_store(deep=True)``).  Every column is packed by
    :func:`pack_ids`.  Returns the directory path."""
    root = Path(path)
    root.parent.mkdir(parents=True, exist_ok=True)
    staging = root.parent / f".{root.name}.saving.{os.getpid()}"
    if staging.exists():
        shutil.rmtree(staging)
    try:
        _write_store(database, staging)
        _publish_store(staging, root)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return root


def _publish_store(staging: Path, root: Path) -> None:
    """Move a fully-written staging store to its final path.  A fresh
    target is a single rename; replacing an existing store parks the old
    directory under a sibling name first (rename + rename, each atomic),
    so at every instant ``root`` is either the complete old store, absent
    for the instant between the two renames, or the complete new store --
    never a blend."""
    if root.exists():
        backup = root.parent / f".{root.name}.replaced.{os.getpid()}"
        if backup.exists():
            shutil.rmtree(backup)
        os.rename(root, backup)
        try:
            os.rename(staging, root)
        except OSError:
            os.rename(backup, root)  # restore the old store, then fail
            raise
        shutil.rmtree(backup, ignore_errors=True)
    else:
        os.rename(staging, root)


def _write_store(database: Database, root: Path) -> None:
    column_dir = root / _COLUMN_DIR
    column_dir.mkdir(parents=True, exist_ok=True)

    dictionary, encoded = _encoded_relations(database)
    relations_meta = []
    total_bytes = 0
    for index, (
        relation, columns, references, selection, base_length, known_distinct
    ) in enumerate(encoded):
        column_files = []
        for position, column in enumerate(columns):
            payload, col_encoding = pack_ids(column, reference=references[position])
            file_name = (
                f"{_COLUMN_DIR}/r{index}_c{position}.{col_encoding['dtype']}"
            )
            (root / file_name).write_bytes(payload)
            nbytes = len(payload)
            total_bytes += nbytes
            column_files.append(
                {
                    "attribute": relation.attributes[position],
                    "file": file_name,
                    "bytes": nbytes,
                    "sha256": hashlib.sha256(payload).hexdigest(),
                    "encoding": col_encoding,
                }
            )
        selection_meta = None
        if selection is not None:
            # Selection values are real row indices consumed by fancy
            # indexing, so they pack width-only (reference pinned to 0).
            payload, sel_encoding = pack_ids(selection, frame_of_reference=False)
            file_name = f"{_COLUMN_DIR}/r{index}_sel.{sel_encoding['dtype']}"
            (root / file_name).write_bytes(payload)
            nbytes = len(payload)
            total_bytes += nbytes
            selection_meta = {
                "file": file_name,
                "length": int(len(selection)),
                "bytes": nbytes,
                "sha256": hashlib.sha256(payload).hexdigest(),
                "encoding": sel_encoding,
            }
        relations_meta.append(
            {
                "name": relation.name,
                "attributes": list(relation.attributes),
                "base_length": int(base_length),
                "cardinality": int(relation.cardinality),
                "columns": column_files,
                "selection": selection_meta,
                "known_distinct": bool(known_distinct),
            }
        )

    dictionary_payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "segments": [[tag, values] for tag, values in dictionary.to_segments()],
    }
    dictionary_text = json.dumps(dictionary_payload)
    (root / _DICTIONARY_FILE).write_text(dictionary_text)

    catalog = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "name": database.name,
        "dictionary": {
            "file": _DICTIONARY_FILE,
            "entries": len(dictionary),
            "sha256": hashlib.sha256(
                dictionary_text.encode("utf-8")
            ).hexdigest(),
        },
        "relations": relations_meta,
        "statistics": database.statistics.to_payload(),
        "total_column_bytes": total_bytes,
    }
    (root / _CATALOG_FILE).write_text(json.dumps(catalog, indent=1))


# ----------------------------------------------------------------------
# Open.
# ----------------------------------------------------------------------


def store_digest(path) -> str:
    """Content digest of a stored database's catalog (canonical JSON of
    the validated payload, so whitespace never matters).  The catalog names
    every column file with its byte size and encoding, so two stores with
    equal digests hold the same relations over the same physical layout --
    the check the serving pool uses to assert every worker process opened
    the *identical* store."""
    return load_catalog(path).digest


def open_database(path, columnar: bool = True) -> Database:
    """Open a stored database.

    With numpy present and ``columnar=True`` (the default) every column file
    is ``np.memmap``'d read-only directly into the relations -- no value is
    interned and no row materialised, which is what makes warm opens orders
    of magnitude cheaper than regeneration.  ``columnar=False`` (or a
    missing numpy) decodes the same files through the row engine instead.
    """
    catalog = load_catalog(path)
    root = catalog.root
    dictionary = _load_dictionary(catalog)
    entries = len(dictionary)
    use_columnar = columnar and np is not None and ColumnarRelation is not None
    database = Database(
        name=catalog.name,
        columnar=use_columnar,
        dictionary=dictionary if use_columnar else None,
    )
    for stored in catalog.relations:
        name, base_length = stored.name, stored.base_length
        if use_columnar:
            selection = None
            if stored.selection is not None:
                selection = _checked_ids(
                    _memmap_column(root, stored.selection),
                    base_length,
                    name,
                    what="selection index",
                )
            relation = ColumnarRelation(
                name,
                list(stored.attributes),
                dictionary,
                [
                    _checked_ids(
                        _memmap_column(root, column),
                        entries,
                        name,
                        reference=column.reference,
                    )
                    for column in stored.columns
                ],
                selection,
                base_length,
                references=[column.reference for column in stored.columns],
            )
            relation._known_distinct = stored.known_distinct
            database.add_relation(relation)
        else:
            values = dictionary.values
            id_columns = [
                _checked_ids(_read_column(root, column), entries, name)
                for column in stored.columns
            ]
            if stored.selection is not None:
                selection = _checked_ids(
                    _read_column(root, stored.selection),
                    base_length,
                    name,
                    what="selection index",
                )
                id_columns = [[col[i] for i in selection] for col in id_columns]
            database.add_relation(
                Relation.from_value_columns(
                    name,
                    list(stored.attributes),
                    [[values[i] for i in col] for col in id_columns],
                    stored.cardinality,
                )
            )
    database.statistics = catalog.statistics
    # Remember where the columns live: the serving plane re-opens (and
    # digests) the store per worker process through this path.
    database.source_path = str(root)
    return database


def storage_info(path) -> Dict[str, Any]:
    """Catalog summary of a stored database without opening any column:
    relation count/rows/bytes, per-column encoding, and the whole-store
    compression ratio against raw int64 (the ``db info`` subcommand prints
    this)."""
    catalog = load_catalog(path)
    relations = [
        {
            "name": stored.name,
            "attributes": list(stored.attributes),
            "rows": stored.cardinality,
            "bytes": sum(column.nbytes for column in stored.files),
            "raw_bytes": sum(8 * column.length for column in stored.files),
            "columns": [
                {
                    "attribute": column.attribute,
                    "codec": column.codec,
                    "dtype": column.dtype,
                    "reference": column.reference,
                    "bytes": column.nbytes,
                    "raw_bytes": 8 * column.length,
                }
                for column in stored.columns
            ],
        }
        for stored in catalog.relations
    ]
    total_bytes = sum(relation["bytes"] for relation in relations)
    total_raw_bytes = sum(relation["raw_bytes"] for relation in relations)
    return {
        "name": catalog.name,
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "digest": catalog.digest,
        "relations": relations,
        "total_rows": sum(relation["rows"] for relation in relations),
        "total_column_bytes": total_bytes,
        "total_raw_column_bytes": total_raw_bytes,
        "compression_ratio": (
            total_raw_bytes / total_bytes if total_bytes else 1.0
        ),
        "dictionary_entries": catalog.dictionary_entries,
    }


def verify_store(path, deep: bool = False) -> Dict[str, Any]:
    """Integrity report for a stored database -- the operator-facing twin
    of the serving workers' startup hello.

    Decodes the catalog (a catalog :func:`load_catalog` refuses is the one
    problem reported), then runs, file by file so *all* problems are
    reported and not just the first, the checks every open performs: the
    dictionary decodes to the declared entry count, every column and
    selection file has exactly its declared size.  ``deep=True``
    additionally reads every file and compares its SHA-256 against the
    digest the catalog recorded at save time, catching bit rot that leaves
    sizes intact (files saved before digests existed are counted in
    ``"unhashed_files"`` instead of failing).  Returns ``{"path", "name",
    "digest", "checked_files", "deep", "hashed_files", "unhashed_files",
    "problems": [{"file", "error"}, ...], "ok"}``; the ``repro db verify``
    CLI exits non-zero when ``ok`` is false.
    """
    root = Path(path)
    problems: List[Dict[str, str]] = []
    report: Dict[str, Any] = {
        "path": str(root),
        "name": None,
        "digest": None,
        "checked_files": 0,
        "deep": bool(deep),
        "hashed_files": 0,
        "unhashed_files": 0,
        "problems": problems,
        "ok": False,
    }
    try:
        catalog = load_catalog(root)
    except StorageFormatError as exc:
        problems.append({"file": _CATALOG_FILE, "error": str(exc)})
        return report
    report.update(name=catalog.name, digest=catalog.digest)

    def check(file_name: str, sha256: Optional[str], shallow: Callable, *args) -> None:
        report["checked_files"] += 1
        try:
            shallow(*args)
            if not deep:
                return
            if sha256 is None:
                report["unhashed_files"] += 1  # saved before content digests existed
                return
            actual = hashlib.sha256((root / file_name).read_bytes()).hexdigest()
            report["hashed_files"] += 1
            if actual != sha256:
                raise StorageFormatError(
                    f"content digest mismatch: file hashes to {actual[:12]}..., "
                    f"catalog recorded {sha256[:12]}... (bit rot or tampering)"
                )
        except (StorageFormatError, OSError) as exc:
            problems.append({"file": file_name, "error": str(exc)})

    check(
        catalog.dictionary_file, catalog.dictionary_sha256, _load_dictionary, catalog
    )
    for stored in catalog.relations:
        for column in stored.files:
            check(column.file, column.sha256, _check_column_file, root, column)
    report["ok"] = not problems
    return report


# ----------------------------------------------------------------------
# Fingerprints and digests (shared by both caches).
# ----------------------------------------------------------------------


def canonical_digest(payload) -> str:
    """SHA-256 over the canonical JSON rendering of a payload -- the single
    content-addressing primitive of the storage plane."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def query_fingerprint(query) -> Dict[str, Any]:
    """A JSON-safe structural fingerprint of a conjunctive query: atom
    names, predicates, term tuples and the output variables -- everything
    that determines both the generated workload and the plan space."""
    return {
        "name": query.name,
        "atoms": [
            [atom.name, atom.predicate, list(atom.terms)] for atom in query.atoms
        ],
        "output": list(query.output_variables),
    }


def statistics_digest(statistics: CatalogStatistics) -> str:
    """Content digest of a statistics catalog.  Any cardinality or
    selectivity change changes the digest, which is exactly the plan
    cache's invalidation rule."""
    return canonical_digest(statistics.to_payload())


# ----------------------------------------------------------------------
# Content-addressed workload cache.
# ----------------------------------------------------------------------

#: Process-wide hit/miss counters (reported by benchmarks, asserted by CI).
_workload_cache_counters = {"hits": 0, "misses": 0}


def workload_cache_stats() -> Dict[str, int]:
    """A copy of the process-wide workload-cache hit/miss counters."""
    return dict(_workload_cache_counters)


def reset_workload_cache_stats() -> None:
    _workload_cache_counters["hits"] = 0
    _workload_cache_counters["misses"] = 0


def cached_database(
    kind: str,
    params: Mapping[str, Any],
    builder: Callable[[], Database],
    cache_dir=None,
) -> Database:
    """Generate-or-reuse a workload database.

    ``kind`` names the generator and ``params`` its JSON-safe parameters
    (include the seed and a :func:`query_fingerprint`); they form the
    content address.  The storage format version is deliberately *not*
    part of the key: an entry written at another format version would
    otherwise be orphaned forever under its old digest.  Instead, an entry
    that does not open -- corrupt, or any version but the current
    :data:`FORMAT_VERSION` -- is a miss: removed and rebuilt, so the cache
    converges to freshly-encoded stores.  On a hit the stored database is
    opened (mmap'd under the columnar engine); on a miss ``builder()`` runs
    and its result is saved atomically (temp sibling + rename, so
    concurrent processes never observe a half-written entry).  The cache
    lives in ``cache_dir``, else in ``REPRO_WORKLOAD_CACHE_DIR``; with
    neither set this is exactly ``builder()``.
    """
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV, "").strip() or None
    if cache_dir is None:
        return builder()
    root = Path(cache_dir)
    digest = canonical_digest({"kind": kind, "params": dict(params)})
    entry = root / f"{kind}-{digest[:20]}"
    if (entry / _CATALOG_FILE).exists():
        try:
            database = open_database(entry)
            _workload_cache_counters["hits"] += 1
            return database
        except StorageFormatError:
            shutil.rmtree(entry, ignore_errors=True)
    _workload_cache_counters["misses"] += 1
    database = builder()
    root.mkdir(parents=True, exist_ok=True)
    staging = root / f".{entry.name}.tmp{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    try:
        save_database(database, staging)
        try:
            os.replace(staging, entry)
        except OSError:
            if (entry / _CATALOG_FILE).exists():
                # A concurrent process published the same entry first; its
                # content is identical by construction.
                shutil.rmtree(staging, ignore_errors=True)
            else:
                # A stale half-entry (e.g. a crash between cleanup and
                # republish) blocks the rename; heal it so the key is not
                # permanently cold.
                shutil.rmtree(entry, ignore_errors=True)
                try:
                    os.replace(staging, entry)
                except OSError:
                    shutil.rmtree(staging, ignore_errors=True)
    except Exception:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return database


# ----------------------------------------------------------------------
# Persistent plan cache.
# ----------------------------------------------------------------------


class PlanCache:
    """A persistent store of winning plans, one JSON file per entry.

    Keys are JSON payloads (built by the planner layer from a query
    fingerprint, a statistics digest, the width bound and the planner
    knobs); the stored entry echoes its key, so a digest collision can
    never hand back the wrong plan.  Version-mismatched or corrupt entries
    read as misses and are overwritten on the next store; the plan block
    itself is handed back as stored -- decoding and validating it is the
    plan codec's job (:mod:`repro.db.plan_ir`).  ``hits`` /
    ``misses`` / ``stores`` count this process's lookups -- the CI
    cold-vs-warm step asserts the second run reports hits.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _entry_path(self, key_payload: Mapping) -> Path:
        return self.path / f"plan-{canonical_digest(key_payload)[:24]}.json"

    def lookup(self, key_payload: Mapping) -> Optional[Mapping]:
        """The stored plan payload for a key, or ``None`` (a miss).

        A torn or otherwise non-JSON entry (a crash caught a pre-atomic
        writer mid-file) is a miss that also *deletes* the corrupt file,
        so it cannot shadow the slot forever; an unreadable file (plain
        OSError) is left alone -- it may be a permission problem, not
        corruption."""
        entry = self._entry_path(key_payload)
        try:
            stored = json.loads(entry.read_text())
        except OSError:
            self.misses += 1
            return None
        except (ValueError, RecursionError):
            try:
                entry.unlink()
            except OSError:  # pragma: no cover - raced or read-only dir
                pass
            self.misses += 1
            return None
        if (
            not isinstance(stored, dict)
            or stored.get("format") != FORMAT_NAME
            or stored.get("version") != FORMAT_VERSION
            or stored.get("key") != json.loads(json.dumps(key_payload))
        ):
            self.misses += 1
            return None
        self.hits += 1
        return stored.get("plan")

    def store(self, key_payload: Mapping, plan_payload: Mapping) -> None:
        """Publish one entry crash-safely: write to a per-process staging
        file, flush+fsync it, then ``os.replace`` into place -- readers
        (and a crash at any point) see either the old entry or the whole
        new one, never a torn write."""
        self.path.mkdir(parents=True, exist_ok=True)
        entry = self._entry_path(key_payload)
        staging = entry.with_name(entry.name + f".tmp{os.getpid()}")
        text = json.dumps(
            {
                "format": FORMAT_NAME,
                "version": FORMAT_VERSION,
                "key": key_payload,
                "plan": plan_payload,
            }
        )
        try:
            with open(staging, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(staging, entry)
        except OSError:
            try:
                staging.unlink()
            except OSError:
                pass
            raise
        self.stores += 1

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}

    def __repr__(self) -> str:
        return (
            f"PlanCache({str(self.path)!r}, hits={self.hits}, "
            f"misses={self.misses}, stores={self.stores})"
        )
