"""Persistent columnar storage plane: an mmap-backed on-disk database
format, a content-addressed workload cache, and a persistent plan cache.

The paper's experiments (Figs. 5-8) are repeated sweeps over the same
generated databases, yet every run historically paid full generation plus
dictionary interning before a single join ran.  The columnar engine makes
persistence almost free: a :class:`~repro.db.database.Database` is a shared
value :class:`~repro.db.dictionary.Dictionary` plus flat ``int64`` id
columns, both of which serialise trivially.  This module defines:

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
columns (codec ``"raw"``, reference 0 -- byte-identical to a version-1
store).  :func:`pack_ids` / :func:`unpack_ids` are the codec;
:func:`resolve_encoding` picks the store-wide mode (``"packed"`` by
default, ``"raw"`` as the oracle, overridable per save).

**Version compatibility (v1 -> v2).**  Version 2 added the encoding layer.
A column meta without an ``"encoding"`` key denotes a raw int64 file with
reference 0 -- exactly what version 1 wrote -- so v2 readers open v1
stores unchanged (:data:`_SUPPORTED_READ_VERSIONS`).  Writers always
produce version 2; version 1 is never written again.  Any future
incompatible change must bump :data:`FORMAT_VERSION` and either extend
the read set or drop v1 support explicitly.

Opening maps every column file with ``np.memmap(mode="r")`` straight into
:class:`~repro.db.columnar.ColumnarRelation` columns **at its stored
width**: no interning, no row materialisation, no decode -- the kernels
run on the packed ids (frame-of-reference preserves order and equality)
and widen only at the Dictionary value boundary.  The maps are
**read-only** (writes raise), which is safe because every kernel treats
input columns as immutable.  Without numpy the same files are decoded
through the row engine (:meth:`Relation.from_value_columns`), so a stored
database opens on either engine.  Because join/semijoin/project output
order is id-independent (matches surface in probe-row then base-row
order), a round-tripped database yields byte-identical answers, row order
and ``OperatorStats`` to the in-memory original -- whichever encoding it
was saved under -- the invariant the Hypothesis suites in
``tests/test_storage.py`` and ``tests/test_packed_encoding.py`` pin.

**The workload cache** (:func:`cached_database`) -- a content-addressed
store of generated databases keyed by ``(generator kind, params)`` digests.
:func:`repro.workloads.synthetic.workload_database` and the Fig. 5/Fig. 8
drivers route generation through it, so repeated experiment sweeps reuse
the stored columns instead of regenerating.  The cache activates when a
directory is configured (``REPRO_WORKLOAD_CACHE_DIR`` or an explicit
``cache_dir``); saves are atomic (build in a temp sibling, rename), and a
corrupt or version-mismatched entry is regenerated in place.

**The plan cache** (:class:`PlanCache`) -- a persistent store of winning
plans keyed by (query fingerprint, statistics digest, width bound, planner
knobs).  :func:`repro.planner.compare.compare_planners` consults it so a
repeated k-sweep over unchanged statistics skips planning entirely (a hit
reports ``planning_seconds == 0.0``); any statistics change alters the
digest and invalidates the entry.  The cache stores payloads, not pickles:
decompositions serialise through :func:`decomposition_to_payload`.
"""

from __future__ import annotations

import json
import hashlib
import os
import shutil
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

try:  # The mmap fast path needs numpy; the row fallback covers its absence.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None  # type: ignore[assignment]

from repro.db.database import Database
from repro.db.dictionary import Dictionary
from repro.db.relation import Relation
from repro.db.statistics import CatalogStatistics
from repro.exceptions import StorageFormatError

try:
    from repro.db.columnar import ColumnarRelation
except ImportError:  # pragma: no cover - exercised only without numpy
    ColumnarRelation = None  # type: ignore[assignment]

#: Format marker + version of the on-disk layout.  Bump the version on any
#: incompatible change; readers raise :class:`StorageFormatError` on both an
#: unknown marker and a version they do not understand.  Version 2 added
#: per-column frame-of-reference encoding; version-1 stores (raw int64, no
#: ``"encoding"`` metadata) remain readable -- see the module docstring.
FORMAT_NAME = "repro-columnar-db"
FORMAT_VERSION = 2
_SUPPORTED_READ_VERSIONS = (1, 2)

_CATALOG_FILE = "catalog.json"
_DICTIONARY_FILE = "dictionary.json"
_COLUMN_DIR = "cols"

#: Store-wide encoding modes.
_ENCODINGS = ("packed", "raw")
_DEFAULT_ENCODING = "packed"

#: Environment knobs of the workload cache: the directory that activates it
#: and the kill switch that beats an explicitly passed directory.
CACHE_DIR_ENV = "REPRO_WORKLOAD_CACHE_DIR"
CACHE_DISABLE_ENV = "REPRO_WORKLOAD_CACHE"


# ----------------------------------------------------------------------
# Column codec: frame-of-reference + bit-width packing.
# ----------------------------------------------------------------------

#: Storage dtype tags: ``tag -> (array typecode, itemsize, numpy dtype)``.
#: The tag doubles as the column file extension; ``i64`` is the raw codec's
#: dtype and the only one a version-1 store contains.
_DTYPE_TAGS = {
    "u1": ("B", 1, "<u1"),
    "u2": ("H", 2, "<u2"),
    "u4": ("I", 4, "<u4"),
    "i64": ("q", 8, "<i8"),
}


def resolve_encoding(encoding: Optional[str] = None) -> str:
    """The effective store-wide encoding mode: an explicit argument, else
    ``"packed"``.  Unknown names raise :class:`StorageFormatError`."""
    encoding = _DEFAULT_ENCODING if encoding is None else str(encoding).lower()
    if encoding not in _ENCODINGS:
        raise StorageFormatError(
            f"unknown storage encoding {encoding!r}; expected one of "
            f"{', '.join(_ENCODINGS)}"
        )
    return encoding


def _id_bounds(ids, reference: int = 0):
    """``(lo, hi)`` of a column's true ids (stored value + reference);
    ``(0, 0)`` for an empty column."""
    if np is not None and isinstance(ids, np.ndarray):
        if ids.size == 0:
            return 0, 0
        return int(ids.min()) + reference, int(ids.max()) + reference
    ids = list(ids)
    if not ids:
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
    mode: str = "packed",
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
    pinned to 0 and only the width narrows.  ``mode="raw"`` always yields
    codec ``"raw"``: int64, reference 0 -- byte-identical to a version-1
    file.  Negative ids (never produced by the dictionary, but legal int64
    input) fall back to the raw codec unless a frame shift absorbs them.
    """
    lo, hi = _id_bounds(ids, reference)
    if mode == "raw":
        tag, new_reference = "i64", 0
    elif frame_of_reference:
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


def _column_encoding(meta: Mapping) -> "tuple[str, int]":
    """``(dtype tag, reference)`` of a column meta; a missing ``"encoding"``
    key is a version-1 raw int64 column (the compatibility rule)."""
    encoding = meta.get("encoding")
    if not encoding:
        return "i64", 0
    tag = str(encoding.get("dtype", "i64"))
    if tag not in _DTYPE_TAGS:
        raise StorageFormatError(f"unknown column dtype tag {tag!r}")
    return tag, int(encoding.get("reference", 0))


def _check_column_file(path: Path, length: int, tag: str) -> int:
    typecode, itemsize, _ = _DTYPE_TAGS[tag]
    try:
        size = path.stat().st_size
    except OSError as exc:
        raise StorageFormatError(f"missing column file {path}") from exc
    if size != itemsize * length:
        raise StorageFormatError(
            f"column file {path} holds {size} bytes, expected "
            f"{itemsize * length} ({length} {tag} values)"
        )
    return itemsize


def _memmap_column(path: Path, length: int, tag: str = "i64"):
    """Map one column file read-only at its stored width (zero rows need no
    file mapping)."""
    _check_column_file(path, length, tag)
    np_dtype = np.dtype(_DTYPE_TAGS[tag][2])
    if length == 0:
        return np.empty(0, dtype=np_dtype.newbyteorder("="))
    try:
        return np.memmap(path, dtype=np_dtype, mode="r")
    except (OSError, ValueError) as exc:
        raise StorageFormatError(f"cannot map column file {path}: {exc}") from exc


def _read_column_fallback(
    path: Path, length: int, meta: Mapping
) -> List[int]:
    """Decode one column file to true ids without numpy (the row-engine
    open path).  ``meta`` is the column's catalog entry; a missing
    ``"encoding"`` key reads as v1 raw int64."""
    tag, reference = _column_encoding(meta)
    _check_column_file(path, length, tag)
    return unpack_ids(
        path.read_bytes(), {"dtype": tag, "reference": reference}, length
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
    if np is not None and isinstance(column, np.ndarray):
        if column.size == 0:
            return column
        lo, hi = int(column.min()) + reference, int(column.max()) + reference
    else:
        if not column:
            return column
        lo, hi = min(column) + reference, max(column) + reference
    if lo < 0 or hi >= limit:
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
    Row relations (the ``columnar=False`` engine) are encoded column-major
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


def save_database(database: Database, path, encoding: Optional[str] = None) -> Path:
    """Write ``database`` to ``path`` (a directory, created as needed) in
    the mmap-able columnar format.  Existing contents are replaced
    **atomically**: the whole store is encoded into a staging sibling
    directory first and only a complete, self-consistent store is renamed
    into place -- a crash mid-save leaves a previous good store at ``path``
    untouched (and a fresh save simply absent), never a half-written mix
    of old and new files.  The statistics catalog is stored verbatim, so
    opening restores it without re-analysis.  Every column/selection file
    and the dictionary carry a SHA-256 content digest in the catalog
    (checked by ``verify_store(deep=True)``).  ``encoding`` picks the
    column codec (``"packed"`` / ``"raw"``; ``None`` defers to
    :func:`resolve_encoding`).  Returns the directory path."""
    root = Path(path)
    root.parent.mkdir(parents=True, exist_ok=True)
    staging = root.parent / f".{root.name}.saving.{os.getpid()}"
    if staging.exists():
        shutil.rmtree(staging)
    try:
        _write_store(database, staging, encoding)
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


def _write_store(database: Database, root: Path, encoding: Optional[str]) -> None:
    mode = resolve_encoding(encoding)
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
            payload, col_encoding = pack_ids(
                column, mode=mode, reference=references[position]
            )
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
            payload, sel_encoding = pack_ids(
                selection, mode=mode, frame_of_reference=False
            )
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


def _load_json(path: Path) -> Mapping:
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise StorageFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise StorageFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise StorageFormatError(f"{path} does not hold a JSON object")
    return payload


def _checked_format(payload: Mapping, path: Path) -> Mapping:
    marker = payload.get("format")
    version = payload.get("version")
    if marker != FORMAT_NAME:
        raise StorageFormatError(
            f"{path} has format marker {marker!r}, expected {FORMAT_NAME!r} "
            "(not a stored repro database?)"
        )
    if version not in _SUPPORTED_READ_VERSIONS:
        raise StorageFormatError(
            f"{path} is format version {version!r}; this build reads only "
            f"versions {', '.join(str(v) for v in _SUPPORTED_READ_VERSIONS)}"
        )
    return payload


def load_catalog(path) -> Mapping:
    """The validated catalog of a stored database (metadata only -- no
    column file is touched; the ``db info`` command reads just this)."""
    root = Path(path)
    return _checked_format(_load_json(root / _CATALOG_FILE), root / _CATALOG_FILE)


def store_digest(path) -> str:
    """Content digest of a stored database's catalog (canonical JSON of
    the validated payload, so whitespace never matters).  The catalog names
    every column file with its byte size and encoding, so two stores with
    equal digests hold the same relations over the same physical layout --
    the check the serving pool uses to assert every worker process opened
    the *identical* store."""
    return canonical_digest(dict(load_catalog(path)))


def open_database(
    path,
    columnar: bool = True,
    threads: Optional[int] = None,
    memory_budget_bytes: Optional[int] = None,
) -> Database:
    """Open a stored database.

    With numpy present and ``columnar=True`` (the default) every column file
    is ``np.memmap``'d read-only directly into the relations -- no value is
    interned and no row materialised, which is what makes warm opens orders
    of magnitude cheaper than regeneration.  ``columnar=False`` (or a
    missing numpy) decodes the same files through the row engine instead.
    ``threads`` / ``memory_budget_bytes`` are the usual execution-plane
    knobs of :class:`Database`.
    """
    root = Path(path)
    catalog = load_catalog(root)
    dict_meta = catalog.get("dictionary", {})
    dictionary_payload = _checked_format(
        _load_json(root / dict_meta.get("file", _DICTIONARY_FILE)),
        root / dict_meta.get("file", _DICTIONARY_FILE),
    )
    dictionary = Dictionary.from_segments(dictionary_payload.get("segments", ()))
    if len(dictionary) != int(dict_meta.get("entries", len(dictionary))):
        raise StorageFormatError(
            f"dictionary holds {len(dictionary)} values, catalog declares "
            f"{dict_meta.get('entries')}"
        )

    use_columnar = columnar and np is not None and ColumnarRelation is not None
    database = Database(
        name=str(catalog.get("name", "db")),
        columnar=use_columnar,
        dictionary=dictionary if use_columnar else None,
        threads=threads,
        memory_budget_bytes=memory_budget_bytes,
    )
    # Any shape defect in the catalog payload -- missing keys, non-numeric
    # fields -- is a corrupt store, not a programming error: surface it as
    # StorageFormatError so cache layers regenerate instead of crashing.
    try:
        relation_metas = [
            (
                str(meta["name"]),
                [str(a) for a in meta["attributes"]],
                int(meta["base_length"]),
                list(meta["columns"]),
                dict(meta["selection"]) if meta.get("selection") else None,
                bool(meta.get("known_distinct", False)),
            )
            for meta in catalog.get("relations", ())
        ]
        statistics = CatalogStatistics.from_payload(catalog.get("statistics", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageFormatError(f"malformed catalog payload: {exc!r}") from exc

    for name, attributes, base_length, column_metas, selection_meta, known_distinct in (
        relation_metas
    ):
        if len(column_metas) != len(attributes):
            raise StorageFormatError(
                f"relation {name!r}: {len(column_metas)} column "
                f"files for {len(attributes)} attributes"
            )
        try:
            column_files = [root / column["file"] for column in column_metas]
            column_encodings = [
                _column_encoding(column) for column in column_metas
            ]
            selection_file = (
                (root / selection_meta["file"], int(selection_meta["length"]))
                if selection_meta
                else None
            )
            selection_encoding = (
                _column_encoding(selection_meta) if selection_meta else ("i64", 0)
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageFormatError(
                f"relation {name!r}: malformed column metadata: {exc!r}"
            ) from exc
        if use_columnar:
            columns = [
                _checked_ids(
                    _memmap_column(path, base_length, tag),
                    len(dictionary),
                    name,
                    reference=reference,
                )
                for path, (tag, reference) in zip(column_files, column_encodings)
            ]
            references = [reference for _, reference in column_encodings]
            selection = None
            if selection_file is not None:
                sel_tag, sel_reference = selection_encoding
                selection = _checked_ids(
                    _memmap_column(selection_file[0], selection_file[1], sel_tag),
                    base_length,
                    name,
                    what="selection index",
                    reference=sel_reference,
                )
                if sel_reference:  # defensive: writers always pin this to 0
                    selection = selection.astype(np.int64) + sel_reference
            relation = ColumnarRelation(
                name,
                attributes,
                dictionary,
                columns,
                selection,
                base_length,
                references=references,
            )
            relation._known_distinct = known_distinct
            database.add_relation(relation)
        else:
            values = dictionary.values
            id_columns = [
                _checked_ids(
                    _read_column_fallback(path, base_length, column_meta),
                    len(dictionary),
                    name,
                )
                for path, column_meta in zip(column_files, column_metas)
            ]
            if selection_file is not None:
                selection = _checked_ids(
                    _read_column_fallback(
                        selection_file[0], selection_file[1], selection_meta
                    ),
                    base_length,
                    name,
                    what="selection index",
                )
                id_columns = [[col[i] for i in selection] for col in id_columns]
                cardinality = len(selection)
            else:
                cardinality = base_length
            value_columns = [[values[i] for i in col] for col in id_columns]
            database.add_relation(
                Relation.from_value_columns(
                    name, attributes, value_columns, cardinality
                )
            )
    database.statistics = statistics
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
    digest = canonical_digest(dict(catalog))
    relations = []
    total_rows = 0
    total_bytes = 0
    total_raw_bytes = 0
    for meta in catalog.get("relations", ()):
        base_length = int(meta.get("base_length", 0))
        columns = []
        nbytes = 0
        raw_bytes = 0
        for column_meta in meta.get("columns", ()):
            tag, reference = _column_encoding(column_meta)
            column_bytes = int(column_meta.get("bytes", 0))
            nbytes += column_bytes
            raw_bytes += 8 * base_length
            columns.append(
                {
                    "attribute": column_meta.get("attribute"),
                    "codec": "raw" if tag == "i64" else "for",
                    "dtype": tag,
                    "reference": reference,
                    "bytes": column_bytes,
                    "raw_bytes": 8 * base_length,
                }
            )
        if meta.get("selection"):
            selection_bytes = int(meta["selection"].get("bytes", 0))
            nbytes += selection_bytes
            raw_bytes += 8 * int(meta["selection"].get("length", 0))
        cardinality = int(meta.get("cardinality", 0))
        total_rows += cardinality
        total_bytes += nbytes
        total_raw_bytes += raw_bytes
        relations.append(
            {
                "name": meta.get("name"),
                "attributes": list(meta.get("attributes", ())),
                "rows": cardinality,
                "bytes": nbytes,
                "raw_bytes": raw_bytes,
                "columns": columns,
            }
        )
    return {
        "name": catalog.get("name"),
        "format": catalog.get("format"),
        "version": catalog.get("version"),
        "digest": digest,
        "relations": relations,
        "total_rows": total_rows,
        "total_column_bytes": total_bytes,
        "total_raw_column_bytes": total_raw_bytes,
        "compression_ratio": (
            total_raw_bytes / total_bytes if total_bytes else 1.0
        ),
        "dictionary_entries": int(catalog.get("dictionary", {}).get("entries", 0)),
    }


def verify_store(path, deep: bool = False) -> Dict[str, Any]:
    """Integrity report for a stored database -- the operator-facing twin
    of the serving workers' startup hello.

    Re-validates and digests the catalog, checks the dictionary file
    parses and holds the declared entry count, and checks every column
    and selection file's byte length against its declared dtype tag and
    row count (:func:`_check_column_file` -- the same check every open
    performs, here run file-by-file so *all* problems are reported, not
    just the first).  ``deep=True`` additionally reads every file and
    compares its SHA-256 against the digest the catalog recorded at save
    time, catching bit rot that leaves sizes intact (files saved before
    digests existed are counted in ``"unhashed_files"`` instead of
    failing).  Returns ``{"path", "name", "digest", "checked_files",
    "deep", "hashed_files", "unhashed_files", "problems": [{"file",
    "error"}, ...], "ok"}``; the ``repro db verify`` CLI exits non-zero
    when ``ok`` is false.
    """
    root = Path(path)
    hashed = 0
    unhashed = 0
    problems: List[Dict[str, str]] = []
    checked = 0
    try:
        catalog = load_catalog(root)
    except StorageFormatError as exc:
        return {
            "path": str(root),
            "name": None,
            "digest": None,
            "checked_files": 0,
            "deep": bool(deep),
            "hashed_files": 0,
            "unhashed_files": 0,
            "problems": [{"file": _CATALOG_FILE, "error": str(exc)}],
            "ok": False,
        }
    digest = canonical_digest(dict(catalog))

    def _deep_check(meta: Mapping, file_name: str) -> None:
        nonlocal hashed, unhashed
        if not deep:
            return
        expected = meta.get("sha256")
        if not expected:
            unhashed += 1  # saved before content digests existed
            return
        try:
            actual = hashlib.sha256((root / file_name).read_bytes()).hexdigest()
        except OSError as exc:
            problems.append({"file": file_name, "error": str(exc)})
            return
        hashed += 1
        if actual != str(expected):
            problems.append(
                {
                    "file": file_name,
                    "error": (
                        f"content digest mismatch: file hashes to "
                        f"{actual[:12]}..., catalog recorded "
                        f"{str(expected)[:12]}... (bit rot or tampering)"
                    ),
                }
            )

    dict_meta = catalog.get("dictionary", {})
    dict_file = str(dict_meta.get("file", _DICTIONARY_FILE))
    checked += 1
    try:
        payload = _checked_format(_load_json(root / dict_file), root / dict_file)
        entries = sum(
            len(values) for _, values in payload.get("segments", ())
        )
        declared = int(dict_meta.get("entries", 0))
        if entries != declared:
            problems.append(
                {
                    "file": dict_file,
                    "error": (
                        f"dictionary holds {entries} entries, catalog "
                        f"declares {declared}"
                    ),
                }
            )
        else:
            _deep_check(dict_meta, dict_file)
    except (StorageFormatError, TypeError, ValueError) as exc:
        problems.append({"file": dict_file, "error": str(exc)})
    for meta in catalog.get("relations", ()):
        base_length = int(meta.get("base_length", 0))
        column_metas = [(column, base_length) for column in meta.get("columns", ())]
        if meta.get("selection"):
            column_metas.append(
                (meta["selection"], int(meta["selection"].get("length", 0)))
            )
        for column_meta, length in column_metas:
            file_name = str(column_meta.get("file", ""))
            checked += 1
            try:
                tag, _ = _column_encoding(column_meta)
                _check_column_file(root / file_name, length, tag)
                _deep_check(column_meta, file_name)
            except StorageFormatError as exc:
                problems.append({"file": file_name, "error": str(exc)})
    return {
        "path": str(root),
        "name": catalog.get("name"),
        "digest": digest,
        "checked_files": checked,
        "deep": bool(deep),
        "hashed_files": hashed,
        "unhashed_files": unhashed,
        "problems": problems,
        "ok": not problems,
    }


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


def workload_cache_dir(cache_dir=None) -> Optional[Path]:
    """Resolve the active cache directory: an explicit ``cache_dir`` wins,
    else the ``REPRO_WORKLOAD_CACHE_DIR`` environment variable; ``None``
    (cache disabled) when neither is set or ``REPRO_WORKLOAD_CACHE=0``."""
    if os.environ.get(CACHE_DISABLE_ENV, "").strip() == "0":
        return None
    if cache_dir is not None:
        return Path(cache_dir)
    configured = os.environ.get(CACHE_DIR_ENV, "").strip()
    return Path(configured) if configured else None


def cached_database(
    kind: str,
    params: Mapping[str, Any],
    builder: Callable[[], Database],
    columnar: bool = True,
    cache_dir=None,
    refresh: bool = False,
) -> Database:
    """Generate-or-reuse a workload database.

    ``kind`` names the generator and ``params`` its JSON-safe parameters
    (include the seed and a :func:`query_fingerprint`); they form the
    content address.  The storage format version is deliberately *not*
    part of the key: an entry written by an older format version would
    otherwise be orphaned forever under its old digest instead of being
    regenerated in place.  Instead the catalog's version is checked on
    lookup -- an entry whose version differs from the current
    :data:`FORMAT_VERSION` (even one this build could still *read*) is
    treated as a miss, removed, and rebuilt at the current version, so the
    cache converges to freshly-encoded stores.  On a hit the stored
    database is opened (mmap'd under the columnar engine); on a miss --
    including a corrupt or stale-version entry -- ``builder()`` runs and
    its result is saved atomically (temp sibling + rename, so concurrent
    processes never observe a half-written entry).  With no cache
    directory configured this is exactly ``builder()``.

    The ``columnar`` flag selects the *representation* of the returned
    database only; it is deliberately not part of the key, because both
    engines hold identical data.
    """
    root = workload_cache_dir(cache_dir)
    if root is None:
        return builder()
    digest = canonical_digest({"kind": kind, "params": dict(params)})
    entry = root / f"{kind}-{digest[:20]}"
    if not refresh and (entry / _CATALOG_FILE).exists():
        try:
            catalog = load_catalog(entry)
            if catalog.get("version") != FORMAT_VERSION:
                raise StorageFormatError(
                    f"cache entry {entry} is format version "
                    f"{catalog.get('version')!r}, regenerating at "
                    f"{FORMAT_VERSION}"
                )
            database = open_database(entry, columnar=columnar)
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
        if refresh:
            shutil.rmtree(entry, ignore_errors=True)
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
# Decomposition (de)serialisation for the plan cache.
# ----------------------------------------------------------------------


def decomposition_to_payload(decomposition) -> Dict[str, Any]:
    """A JSON-safe rendering of a hypertree decomposition: the rooted tree
    plus the λ/χ labels (components are planner-internal and dropped)."""
    return {
        "root": int(decomposition.root),
        "children": {
            str(node_id): [int(kid) for kid in decomposition.children(node_id)]
            for node_id in decomposition.node_ids()
        },
        "nodes": {
            str(node.node_id): {
                "lambda": sorted(node.lambda_edges),
                "chi": sorted(node.chi),
            }
            for node in decomposition.nodes()
        },
    }


def decomposition_from_payload(hypergraph, payload: Mapping):
    """Rebuild a :class:`HypertreeDecomposition` over ``hypergraph`` from
    :func:`decomposition_to_payload` output."""
    from repro.decomposition.hypertree import (
        DecompositionNode,
        HypertreeDecomposition,
    )
    from repro.exceptions import DecompositionError

    try:
        nodes = {
            int(node_id): DecompositionNode(
                node_id=int(node_id),
                lambda_edges=frozenset(meta["lambda"]),
                chi=frozenset(meta["chi"]),
                component=None,
            )
            for node_id, meta in payload["nodes"].items()
        }
        children = {
            int(node_id): tuple(int(kid) for kid in kids)
            for node_id, kids in payload["children"].items()
        }
        root = int(payload["root"])
        # The constructor validates tree shape (unknown/unreachable nodes,
        # double reachability); a payload that fails it is corrupt too.
        return HypertreeDecomposition(
            hypergraph=hypergraph, root=root, children=children, nodes=nodes
        )
    except (KeyError, TypeError, ValueError, DecompositionError) as exc:
        raise StorageFormatError(
            f"malformed decomposition payload: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# Persistent plan cache.
# ----------------------------------------------------------------------


class PlanCache:
    """A persistent store of winning plans, one JSON file per entry.

    Keys are JSON payloads (built by the planner layer from a query
    fingerprint, a statistics digest, the width bound and the planner
    knobs); the stored entry echoes its key, so a digest collision can
    never hand back the wrong plan.  Version-mismatched or corrupt entries
    read as misses and are overwritten on the next store.  ``hits`` /
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
        except ValueError:
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
