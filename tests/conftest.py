"""Shared fixtures for the test suite."""

from __future__ import annotations

import array
import hashlib
import json
from pathlib import Path

import pytest

from repro.db.database import Database
from repro.db.relation import Relation
from repro.db.storage import unpack_ids
from repro.hypergraph.generators import (
    cycle_hypergraph,
    paper_q0_hypergraph,
    path_hypergraph,
)
from repro.query.examples import q0, q1, q2, q3


@pytest.fixture
def q0_hypergraph():
    """H(Q0): the paper's introductory 8-atom, width-2 hypergraph."""
    return paper_q0_hypergraph()


@pytest.fixture
def triangle_hypergraph():
    return cycle_hypergraph(3)


@pytest.fixture
def square_hypergraph():
    return cycle_hypergraph(4)


@pytest.fixture
def chain_hypergraph():
    return path_hypergraph(4)


@pytest.fixture
def q0_query():
    return q0()


@pytest.fixture
def q1_query():
    return q1()


@pytest.fixture
def q2_query():
    return q2()


@pytest.fixture
def q3_query():
    return q3()


@pytest.fixture
def tiny_database():
    """A 3-relation database over a path query r(X,Y), s(Y,Z), t(Z,W)."""
    return Database(
        relations={
            "r": Relation("r", ["x", "y"], [(1, 10), (2, 20), (3, 30), (1, 20)]),
            "s": Relation("s", ["y", "z"], [(10, 100), (20, 200), (20, 300)]),
            "t": Relation("t", ["z", "w"], [(100, 7), (200, 8), (400, 9)]),
        },
        name="tiny",
    )


@pytest.fixture
def triangle_database():
    """A database for the triangle query r(X,Y), s(Y,Z), t(Z,X)."""
    return Database(
        relations={
            "r": Relation("r", ["a", "b"], [(1, 2), (2, 3), (4, 5), (1, 3)]),
            "s": Relation("s", ["a", "b"], [(2, 3), (3, 1), (5, 6)]),
            "t": Relation("t", ["a", "b"], [(3, 1), (1, 2), (6, 4)]),
        },
        name="triangle",
    )


def _rewrite_column_as_i64(store, relation: int = 0, column=0) -> Path:
    """Rewrite one column of a saved store in the int64 ``raw`` codec:
    catalog ``codec "raw"``, ``dtype "i64"``, ``reference 0``, with its
    ``bytes`` and ``sha256`` restated.  ``column`` is an attribute position
    or ``"selection"``.  Returns the new column file."""
    store = Path(store)
    catalog_path = store / "catalog.json"
    catalog = json.loads(catalog_path.read_text())
    stored = catalog["relations"][relation]
    if column == "selection":
        meta, length, stem = stored["selection"], stored["selection"]["length"], "sel"
    else:
        meta, length, stem = stored["columns"][column], stored["base_length"], f"c{column}"
    old = store / meta["file"]
    ids = unpack_ids(old.read_bytes(), meta["encoding"], length)
    payload = array.array("q", ids).tobytes()
    old.unlink()
    meta["file"] = f"cols/r{relation}_{stem}.i64"
    (store / meta["file"]).write_bytes(payload)
    catalog["total_column_bytes"] += len(payload) - meta["bytes"]
    meta["bytes"] = len(payload)
    meta["sha256"] = hashlib.sha256(payload).hexdigest()
    meta["encoding"] = {"codec": "raw", "dtype": "i64", "reference": 0}
    catalog_path.write_text(json.dumps(catalog, indent=1))
    return store / meta["file"]


@pytest.fixture
def rewrite_column_as_i64():
    """The helper that puts an ``i64`` column on disk.  A save writes
    ``i64`` only for an id span over 32 bits, but the reader must keep
    accepting the ``i64`` columns already stored, so tests of that reader
    (and corruption tests that poke at 8-byte ids) build them with this."""
    return _rewrite_column_as_i64


@pytest.fixture
def row_twin():
    """The row-engine copy of a database: the same relations, statistics
    and name under ``columnar=False``, which decodes columnar relations."""

    def twin(database: Database) -> Database:
        return Database(
            relations={n: database.relation(n) for n in database.relation_names()},
            statistics=database.statistics,
            name=database.name,
            columnar=False,
        )

    return twin
