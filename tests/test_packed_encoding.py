"""The frame-of-reference encoding layer and its order-preserving kernels.

Four invariants are pinned here:

* **Codec round trips.**  ``pack_ids``/``unpack_ids`` are exact inverses at
  every bit-width boundary (1/8/9/32/33 bits), for negative references,
  empty and single-value columns -- and the numpy and numpy-free encoders
  produce byte-identical payloads.
* **Packed == in-memory oracle.**  A packed store answers every plan
  byte-identically (rows, order, ``OperatorStats``) to the in-memory
  database it was saved from -- serially, on the row engine, and under
  ``threads=4`` plus a tiny memory budget.  ``peak_transient_elements`` is
  pinned equal; only ``peak_transient_bytes`` may shrink.
* **The ``i64`` reader.**  No save writes an ``i64`` column for a span
  within 32 bits, but one already on disk (built here by the
  ``rewrite_column_as_i64`` fixture) opens identically on both engines,
  verifies deep, and is range-checked like any other column.
* **Version gate.**  A hand-built version-1 store (no ``"encoding"``
  metadata, raw ``.i64`` files) is refused with a re-save hint -- only the
  current format version is read -- and a ``cached_database`` entry at a
  stale format version is regenerated in place, not reused.
* **Adaptive emit chunks.**  ``memory_budget_bytes`` (and, when none is
  set, the module constant ``columnar._DEFAULT_BUDGET_BYTES``) bounds the
  join's transient footprint without changing a single output byte, and
  narrow and int64 columns chunk identically.
"""

import json
import tempfile
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.db.algebra import OperatorStats
from repro.db.columnar import (
    ColumnarRelation,
    columnar_natural_join,
    columnar_project,
    columnar_semijoin,
)
from repro.db.database import Database
from repro.db.dictionary import Dictionary
from repro.db.executor import execute_plan
from repro.db.generator import uniform_database
from repro.db.relation import Relation
from repro.db.storage import (
    FORMAT_VERSION,
    cached_database,
    open_database,
    pack_ids,
    reset_workload_cache_stats,
    save_database,
    storage_info,
    unpack_ids,
    verify_store,
    workload_cache_stats,
)
from repro.exceptions import StorageFormatError
from repro.obs.trace import TraceRecorder
from repro.planner.baseline import baseline_plan
from repro.planner.cost_k_decomp import cost_k_decomp
from repro.query.atoms import Atom
from repro.workloads.synthetic import chain_query, cycle_query, star_query

ROUND_TRIP_SETTINGS = dict(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

# Values a dictionary must round-trip exactly (mirrors test_storage.py).
MIXED_VALUES = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from(["", "a", "β", "naïve", "日本語", "-7", "0"]),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
)

RELATION = st.lists(
    st.tuples(MIXED_VALUES, MIXED_VALUES, MIXED_VALUES), min_size=0, max_size=20
)


def fresh_dir(tmp_path) -> Path:
    """A unique directory per Hypothesis example (tmp_path is per-test)."""
    return Path(tempfile.mkdtemp(dir=tmp_path))


def assert_same_database(original: Database, reopened: Database) -> None:
    """Schema, rows (exact order), cardinalities and statistics all match."""
    assert sorted(original.relation_names()) == sorted(reopened.relation_names())
    for name in original.relation_names():
        ours, theirs = original.relation(name), reopened.relation(name)
        assert ours.attributes == theirs.attributes
        assert ours.cardinality == theirs.cardinality
        assert ours.rows == theirs.rows  # tuple-for-tuple, in order
    assert original.statistics.to_payload() == reopened.statistics.to_payload()


def assert_same_execution(plan, original: Database, reopened: Database, **knobs):
    """Executing one plan on both databases is byte-identical: answer rows
    in order, Boolean answers, and every ``OperatorStats`` counter."""
    ours = execute_plan(plan.to_ir(), original, **knobs)
    theirs = execute_plan(plan.to_ir(), reopened, **knobs)
    assert ours.cardinality == theirs.cardinality
    assert ours.boolean == theirs.boolean
    if ours.relation is not None:
        assert ours.relation.attributes == theirs.relation.attributes
        assert ours.relation.rows == theirs.relation.rows
    assert ours.stats.snapshot() == theirs.stats.snapshot()
    assert ours.stats.operations == theirs.stats.operations
    assert (
        ours.stats.peak_transient_elements == theirs.stats.peak_transient_elements
    )
    return ours, theirs


# ----------------------------------------------------------------------
# Codec: bit-width boundaries and frame-of-reference framing.
# ----------------------------------------------------------------------


class TestCodecBoundaries:
    @pytest.mark.parametrize(
        "span, tag, itemsize",
        [
            (0, "u1", 1),  # single distinct value
            (1, "u1", 1),  # 1-bit span
            ((1 << 8) - 1, "u1", 1),  # widest 8-bit span
            (1 << 8, "u2", 2),  # 9 bits
            ((1 << 16) - 1, "u2", 2),
            (1 << 16, "u4", 4),  # 17 bits
            ((1 << 32) - 1, "u4", 4),  # widest 32-bit span
            (1 << 32, "i64", 8),  # 33 bits: falls back to raw int64
        ],
    )
    def test_span_picks_smallest_dtype(self, span, tag, itemsize):
        for base in (0, 7, 10**6):
            ids = [base, base + span]
            payload, meta = pack_ids(ids)
            assert meta["dtype"] == tag
            assert len(payload) == itemsize * len(ids)
            if tag == "i64":
                assert meta == {"codec": "raw", "dtype": "i64", "reference": 0}
            else:
                assert meta["codec"] == "for"
                assert meta["reference"] == base  # reference is the min
            assert unpack_ids(payload, meta, len(ids)) == ids

    def test_reference_shift_beats_absolute_magnitude(self):
        # Large ids with a tiny span still pack to one byte per value.
        ids = [10**12 + delta for delta in (3, 0, 200, 77)]
        payload, meta = pack_ids(ids)
        assert meta == {"codec": "for", "dtype": "u1", "reference": 10**12}
        assert list(payload) == [3, 0, 200, 77]
        assert unpack_ids(payload, meta, 4) == ids

    def test_negative_reference_round_trips(self):
        ids = [-5, -3, -5, -1]
        payload, meta = pack_ids(ids)
        assert meta == {"codec": "for", "dtype": "u1", "reference": -5}
        assert unpack_ids(payload, meta, 4) == ids

    def test_wide_negative_span_falls_back_to_raw(self):
        ids = [-(1 << 40), 1 << 40]
        payload, meta = pack_ids(ids)
        assert meta == {"codec": "raw", "dtype": "i64", "reference": 0}
        assert unpack_ids(payload, meta, 2) == ids

    def test_empty_column(self):
        payload, meta = pack_ids([])
        assert payload == b""
        assert meta["reference"] == 0
        assert unpack_ids(payload, meta, 0) == []

    def test_single_value_column_packs_to_one_byte(self):
        payload, meta = pack_ids([123456])
        assert meta == {"codec": "for", "dtype": "u1", "reference": 123456}
        assert payload == b"\x00"
        assert unpack_ids(payload, meta, 1) == [123456]

    def test_wide_span_is_plain_int64_bytes(self):
        ids = [0, 300, 5, 2**40]
        payload, meta = pack_ids(ids)
        assert meta == {"codec": "raw", "dtype": "i64", "reference": 0}
        assert payload == np.array(ids, dtype="<i8").tobytes()

    def test_selection_mode_never_shifts(self):
        # Selection values are real row indices: width narrows, reference
        # stays 0 so fancy indexing can consume the stored values directly.
        payload, meta = pack_ids([500, 502, 501], frame_of_reference=False)
        assert meta == {"codec": "for", "dtype": "u2", "reference": 0}
        assert unpack_ids(payload, meta, 3) == [500, 502, 501]

    def test_repacking_an_already_packed_column_reframes(self):
        stored = np.array([0, 1, 10], dtype=np.uint8)  # frame reference=500
        payload, meta = pack_ids(stored, reference=500)
        assert meta == {"codec": "for", "dtype": "u1", "reference": 500}
        assert unpack_ids(payload, meta, 3) == [500, 501, 510]

    def test_unknown_dtype_tag_raises(self):
        with pytest.raises(StorageFormatError, match="dtype tag"):
            unpack_ids(b"", {"dtype": "u8"}, 0)

    def test_payload_length_mismatch_raises(self):
        payload, meta = pack_ids([1, 2, 3])
        with pytest.raises(StorageFormatError, match="expected"):
            unpack_ids(payload, meta, 4)


class TestCodecProperties:
    @settings(max_examples=120, deadline=None)
    @given(
        ids=st.lists(
            st.integers(min_value=-(2**62), max_value=2**62), max_size=40
        ),
    )
    def test_round_trip_and_encoder_parity(self, ids):
        # The numpy and numpy-free encoders agree byte for byte, and
        # unpack inverts pack exactly.
        list_payload, list_meta = pack_ids(list(ids))
        np_payload, np_meta = pack_ids(np.array(ids, dtype=np.int64))
        assert list_meta == np_meta
        assert list_payload == np_payload
        assert unpack_ids(np_payload, np_meta, len(ids)) == ids
        itemsize = {"u1": 1, "u2": 2, "u4": 4, "i64": 8}[np_meta["dtype"]]
        assert len(np_payload) == itemsize * len(ids)

    @settings(max_examples=60, deadline=None)
    @given(
        ids=st.lists(
            st.integers(min_value=0, max_value=2**40), min_size=1, max_size=40
        )
    )
    def test_packed_never_larger_than_int64(self, ids):
        packed, packed_meta = pack_ids(ids)
        assert len(packed) <= 8 * len(ids)
        if packed_meta["codec"] == "for":
            assert min(ids) == packed_meta["reference"]


# ----------------------------------------------------------------------
# Packed stores: round trips, compression, execution equivalence.
# ----------------------------------------------------------------------


class TestPackedStoreRoundTrip:
    @settings(max_examples=20, **ROUND_TRIP_SETTINGS)
    @given(rows_r=RELATION, rows_s=RELATION)
    def test_random_mixed_relations_packed(self, tmp_path, rows_r, rows_s):
        original = Database(
            relations={
                "r": Relation("r", ["a", "b", "c"], rows_r),
                "s": Relation("s", ["c", "d", "e"], rows_s),
            }
        )
        original.analyze()
        target = fresh_dir(tmp_path)
        save_database(original, target)
        assert_same_database(original, open_database(target))
        assert_same_database(original, open_database(target, columnar=False))

    def test_packed_store_opens_like_the_in_memory_database(self, tmp_path):
        query = cycle_query(4, name="enc_cycle")
        original = uniform_database(
            query, tuples_per_relation=60, domain_size=6, seed=3
        )
        packed_dir = fresh_dir(tmp_path)
        save_database(original, packed_dir)
        packed = open_database(packed_dir)
        assert_same_database(original, packed)
        # The packed reopen really holds narrow columns with references.
        dtypes = {
            column.dtype.itemsize
            for name in packed.relation_names()
            for column in packed.relation(name)._columns
        }
        assert dtypes and max(dtypes) < 8
        packed_info = storage_info(packed_dir)
        assert (
            packed_info["total_column_bytes"]
            < packed_info["total_raw_column_bytes"]
            == 8 * original.total_tuples() * 2
        )

    def test_fig5_scale_store_compresses_at_least_4x(self, tmp_path):
        # The acceptance bar: at fig5-ish scale the packed store is >= 4x
        # smaller than raw int64 columns.
        query = chain_query(3, name="enc_fig5")
        original = uniform_database(
            query, tuples_per_relation=1000, domain_size=100, seed=0
        )
        target = fresh_dir(tmp_path)
        save_database(original, target)
        info = storage_info(target)
        assert info["compression_ratio"] >= 4.0
        assert info["total_raw_column_bytes"] == sum(
            relation["raw_bytes"] for relation in info["relations"]
        )

    def test_selection_vector_relation_packs(self, tmp_path):
        base = Database(
            relations={
                "r": Relation(
                    "r", ["a", "b"], [(1, "x"), (2, "y"), (3, "x"), (2, "x")]
                ),
                "s": Relation("s", ["b"], [("x",)]),
            }
        )
        filtered = columnar_semijoin(base.relation("r"), base.relation("s"))
        assert filtered._selection is not None
        base.add_relation(filtered.rename({}, name="rf"))
        base.analyze()
        target = fresh_dir(tmp_path)
        save_database(base, target)
        for columnar in (True, False):
            reopened = open_database(target, columnar=columnar)
            assert reopened.relation("rf").rows == filtered.rows
            assert_same_database(base, reopened)
        mapped = open_database(target).relation("rf")
        assert mapped._selection is not None
        assert mapped._selection.tolist() == filtered._selection.tolist()

    def test_resaving_a_packed_store_is_stable(self, tmp_path):
        # save -> open -> save again: the second store re-frames from the
        # packed columns and must be byte-identical to the first.
        query = star_query(3, name="enc_resave")
        original = uniform_database(
            query, tuples_per_relation=40, domain_size=5, seed=1
        )
        first, second = fresh_dir(tmp_path), fresh_dir(tmp_path)
        save_database(original, first)
        save_database(open_database(first), second)
        first_cols = {
            f.name: f.read_bytes() for f in sorted((first / "cols").iterdir())
        }
        second_cols = {
            f.name: f.read_bytes() for f in sorted((second / "cols").iterdir())
        }
        assert first_cols == second_cols


QUERIES = (
    chain_query(3, name="pk_chain3"),
    cycle_query(4, name="pk_cycle4"),
    star_query(3, name="pk_star3"),
)


class TestPackedExecutionEquivalence:
    """The oracle pin: packed stores answer every plan byte-identically to
    the in-memory database they were saved from (int64 columns, no save or
    reopen code shared with the store) -- serially and on the parallel,
    memory-bounded plane."""

    @settings(max_examples=8, **ROUND_TRIP_SETTINGS)
    @given(index=st.integers(0, len(QUERIES) - 1), seed=st.integers(0, 3))
    def test_packed_plans_match_the_in_memory_database(self, tmp_path, index, seed):
        query = QUERIES[index]
        original = uniform_database(
            query, tuples_per_relation=50, domain_size=6, seed=seed
        )
        packed_dir = fresh_dir(tmp_path)
        save_database(original, packed_dir)
        packed = open_database(packed_dir)
        base = baseline_plan(query, original.statistics)
        structural = cost_k_decomp(query, original.statistics, k=2)
        for plan in (base, structural):
            # Serial oracle, then the parallel + memory-bounded plane.
            for knobs in ({}, {"threads": 4, "memory_budget_bytes": 16384}):
                ours, theirs = assert_same_execution(plan, original, packed, **knobs)
                assert ours.stats_payload() == theirs.stats_payload()

    def test_packed_transient_bytes_never_exceed_in_memory(self, tmp_path):
        query = cycle_query(4, name="pk_bytes")
        original = uniform_database(
            query, tuples_per_relation=80, domain_size=4, seed=2
        )
        packed_dir = fresh_dir(tmp_path)
        save_database(original, packed_dir)
        plan = baseline_plan(query, original.statistics)
        packed_run, memory_run = (
            execute_plan(plan.to_ir(), open_database(packed_dir)),
            execute_plan(plan.to_ir(), original),
        )
        assert (
            packed_run.stats.peak_transient_elements
            == memory_run.stats.peak_transient_elements
        )
        assert packed_run.stats.peak_transient_bytes > 0
        assert (
            packed_run.stats.peak_transient_bytes
            <= memory_run.stats.peak_transient_bytes
        )

    def test_packed_row_engine_matches_columnar(self, tmp_path):
        query = chain_query(3, name="pk_roweng")
        original = uniform_database(
            query, tuples_per_relation=40, domain_size=6, seed=0
        )
        target = fresh_dir(tmp_path)
        save_database(original, target)
        row_db = open_database(target, columnar=False)
        assert not isinstance(
            next(iter(row_db._relations.values())), ColumnarRelation
        )
        plan = baseline_plan(query, original.statistics)
        ours = execute_plan(plan.to_ir(), open_database(target))
        theirs = execute_plan(plan.to_ir(), row_db)
        assert ours.cardinality == theirs.cardinality
        assert ours.boolean == theirs.boolean
        if ours.relation is not None:
            assert ours.relation.rows == theirs.relation.rows
        assert ours.stats.snapshot() == theirs.stats.snapshot()


class TestPackedAtomBinding:
    """Constant and repeated-variable selections on packed (reference-
    shifted) columns match the row-engine oracle."""

    def _stores(self, tmp_path):
        # Column "a" interns first (ids from 0), column "b" introduces one
        # later value, so its id span starts above 0 and the packed store
        # gives it a non-zero reference.
        original = Database(
            relations={
                "r": Relation(
                    "r",
                    ["a", "b"],
                    [(5, 7), (7, 7), (9, 9), (7, 11), (9, 7), (5, 11)],
                ),
            }
        )
        original.analyze()
        target = fresh_dir(tmp_path)
        save_database(original, target)
        packed = open_database(target)
        stored = packed.relation("r")
        assert any(stored._references), "expected a reference-shifted column"
        return packed, open_database(target, columnar=False)

    @pytest.mark.parametrize(
        "terms",
        [
            ("X", "7"),  # constant inside the shifted column's frame
            ("X", "5"),  # id exists but falls below the column's reference
            ("5", "Y"),  # constant on the unshifted column
            ("X", "X"),  # repeated variable across differently-framed columns
            ("7", "7"),  # constant + constant
            ("X", "12345"),  # constant the dictionary has never seen
        ],
    )
    def test_bound_atom_matches_row_engine(self, tmp_path, terms):
        packed, row_db = self._stores(tmp_path)
        atom = Atom(name="r", predicate="r", terms=tuple(terms))
        ours = packed.bind_atom(atom)
        theirs = row_db.bind_atom(atom)
        assert ours.attributes == theirs.attributes
        assert ours.rows == theirs.rows


# ----------------------------------------------------------------------
# Version gate: v1 stores and stale cache entries.
# ----------------------------------------------------------------------


def _downgrade_to_v1(target: Path) -> None:
    """Rewrite a store's version markers back to 1 and strip the
    ``"encoding"`` metadata.  Applied to a store whose every column is
    ``i64`` this produces an exact version-1 store (raw ``.i64`` files, no
    encoding keys)."""
    for file_name in ("catalog.json", "dictionary.json"):
        payload = json.loads((target / file_name).read_text())
        assert payload["version"] == FORMAT_VERSION
        payload["version"] = 1
        if file_name == "catalog.json":
            for relation in payload["relations"]:
                for column in relation["columns"]:
                    column.pop("encoding", None)
                if relation.get("selection"):
                    relation["selection"].pop("encoding", None)
        (target / file_name).write_text(json.dumps(payload))


def _stored_version(target: Path) -> int:
    return json.loads((target / "catalog.json").read_text())["version"]


class TestV1BackwardCompatibility:
    """The compatibility policy for version 1 is refusal: its read support
    was retired with the single catalog decoder (the only v1 stores in
    existence were the ones this file builds by hand)."""

    @pytest.fixture
    def v1_store(self, tmp_path, rewrite_column_as_i64):
        base = Database(
            relations={
                "r": Relation(
                    "r", ["a", "b"], [(1, "x"), (2, "y"), (3, "x"), (2, "x")]
                ),
                "s": Relation("s", ["b"], [("x",)]),
            }
        )
        base.add_relation(
            columnar_semijoin(base.relation("r"), base.relation("s")).rename(
                {}, name="rf"
            )
        )
        base.analyze()
        target = fresh_dir(tmp_path)
        save_database(base, target)
        for index, name in enumerate(base.relation_names()):
            for position in range(len(base.relation(name).attributes)):
                rewrite_column_as_i64(target, index, position)
        rewrite_column_as_i64(target, base.relation_names().index("rf"), "selection")
        assert {f.suffix for f in (target / "cols").iterdir()} == {".i64"}
        _downgrade_to_v1(target)
        return target

    def test_v1_store_is_refused_with_a_resave_hint(self, v1_store):
        # Version-1 read support is retired: every entry point that decodes
        # the catalog refuses the store and says what to do about it.
        target = v1_store
        for columnar in (True, False):
            with pytest.raises(StorageFormatError, match="version 1.*re-save"):
                open_database(target, columnar=columnar)
        with pytest.raises(StorageFormatError, match="version 1.*re-save"):
            storage_info(target)
        report = verify_store(target)
        assert not report["ok"]
        assert [problem["file"] for problem in report["problems"]] == ["catalog.json"]

    def test_future_version_still_rejected(self, v1_store):
        target = v1_store
        payload = json.loads((target / "catalog.json").read_text())
        payload["version"] = 999
        (target / "catalog.json").write_text(json.dumps(payload))
        with pytest.raises(StorageFormatError, match="version"):
            open_database(target)


class TestCacheStaleVersionRegeneration:
    def test_stale_format_version_entry_is_regenerated(self, tmp_path):
        query = chain_query(3, name="cache_stale")
        builds = []

        def builder():
            database = uniform_database(
                query, tuples_per_relation=30, domain_size=5, seed=4
            )
            builds.append(1)
            return database

        params = {"seed": 4, "q": query.name}
        reset_workload_cache_stats()
        first = cached_database("stale", params, builder, cache_dir=tmp_path)
        assert len(builds) == 1
        (entry,) = [p for p in Path(tmp_path).iterdir() if p.is_dir()]
        assert _stored_version(entry) == FORMAT_VERSION

        # Age the entry: a store at an older format version must
        # regenerate, not survive (and not crash the lookup).
        _downgrade_to_v1(entry)
        assert _stored_version(entry) == 1

        second = cached_database("stale", params, builder, cache_dir=tmp_path)
        assert len(builds) == 2  # regenerated, not reused
        assert _stored_version(entry) == FORMAT_VERSION
        assert_same_database(first, second)

        third = cached_database("stale", params, builder, cache_dir=tmp_path)
        assert len(builds) == 2  # fresh entry now hits
        assert_same_database(first, third)
        stats = workload_cache_stats()
        assert stats["hits"] >= 1 and stats["misses"] >= 2


# ----------------------------------------------------------------------
# Adaptive emit chunks and the default budget.
# ----------------------------------------------------------------------


def _skewed_pair(pack: bool):
    """A deliberately skewed join: a few hot keys emit most of the output.
    With ``pack=True`` the same logical columns are stored narrow with a
    non-zero reference (as a packed store would hold them)."""
    rng = np.random.default_rng(7)
    n = 400
    keys = rng.choice(np.arange(8), size=n, p=[0.4, 0.3, 0.1, 0.05, 0.05, 0.04, 0.03, 0.03])
    payload_l = rng.integers(0, 50, size=n)
    payload_r = rng.integers(0, 50, size=n)
    dictionary = Dictionary(range(64))
    if pack:
        left = ColumnarRelation(
            "l", ["k", "x"], dictionary,
            [keys.astype(np.uint8), payload_l.astype(np.uint8)],
            references=[0, 0],
        )
        right = ColumnarRelation(
            "r", ["k", "y"], dictionary,
            [keys[::-1].astype(np.uint8), payload_r.astype(np.uint8)],
            references=[0, 0],
        )
    else:
        left = ColumnarRelation(
            "l", ["k", "x"], dictionary,
            [keys.astype(np.int64), payload_l.astype(np.int64)],
        )
        right = ColumnarRelation(
            "r", ["k", "y"], dictionary,
            [keys[::-1].astype(np.int64), payload_r.astype(np.int64)],
        )
    return left, right


class TestAdaptiveMorsels:
    def test_budget_bounds_transients_without_changing_output(self):
        left, right = _skewed_pair(pack=False)
        oracle_stats = OperatorStats()
        oracle = columnar_natural_join(left, right, stats=oracle_stats)
        assert oracle.cardinality > 10_000  # the join really explodes

        budget_bytes = 64 * 1024
        budget_stats = OperatorStats(memory_budget_bytes=budget_bytes)
        bounded = columnar_natural_join(left, right, stats=budget_stats)
        assert bounded.rows == oracle.rows  # values AND order
        assert budget_stats.snapshot() == oracle_stats.snapshot()
        # The adaptive morsels honour the cost bound 5*emit + 3*probe <=
        # budget words whenever a chunk covers more than one probe row.
        budget_words = budget_bytes // 8
        assert budget_stats.peak_transient_elements <= budget_words
        assert (
            budget_stats.peak_transient_elements
            < oracle_stats.peak_transient_elements
        )

    def test_packed_and_raw_chunk_identically(self):
        raw_left, raw_right = _skewed_pair(pack=False)
        packed_left, packed_right = _skewed_pair(pack=True)
        for budget in (None, 32 * 1024, 512):
            raw_stats = OperatorStats(memory_budget_bytes=budget)
            packed_stats = OperatorStats(memory_budget_bytes=budget)
            raw_out = columnar_natural_join(raw_left, raw_right, stats=raw_stats)
            packed_out = columnar_natural_join(
                packed_left, packed_right, stats=packed_stats
            )
            assert packed_out.rows == raw_out.rows
            assert packed_stats.snapshot() == raw_stats.snapshot()
            assert (
                packed_stats.peak_transient_elements
                == raw_stats.peak_transient_elements
            )
            assert (
                packed_stats.peak_transient_bytes
                <= raw_stats.peak_transient_bytes
            )

    def test_mixed_reference_join_matches_int64_oracle(self):
        # Two sides framed differently (references 100 vs 40) join exactly
        # like the same logical ids stored plain.
        dictionary = Dictionary(range(160))
        lk = np.array([100, 101, 103, 105, 101], dtype=np.int64)
        rk = np.array([101, 103, 103, 150, 100], dtype=np.int64)
        plain_left = ColumnarRelation(
            "l", ["k", "x"], dictionary, [lk, np.arange(5, dtype=np.int64)]
        )
        plain_right = ColumnarRelation(
            "r", ["k", "y"], dictionary, [rk, np.arange(5, dtype=np.int64)]
        )
        framed_left = ColumnarRelation(
            "l", ["k", "x"], dictionary,
            [(lk - 100).astype(np.uint8), np.arange(5, dtype=np.uint8)],
            references=[100, 0],
        )
        framed_right = ColumnarRelation(
            "r", ["k", "y"], dictionary,
            [(rk - 40).astype(np.uint8), np.arange(5, dtype=np.uint8)],
            references=[40, 0],
        )
        oracle = columnar_natural_join(plain_left, plain_right)
        framed = columnar_natural_join(framed_left, framed_right)
        assert framed.rows == oracle.rows
        # Semijoin and project preserve the frames too.
        assert columnar_semijoin(framed_left, framed_right).rows == (
            columnar_semijoin(plain_left, plain_right).rows
        )
        assert columnar_project(framed, ["k"], distinct=True).rows == (
            columnar_project(oracle, ["k"], distinct=True).rows
        )

    def test_auto_chunk_thresholds(self, monkeypatch):
        from repro.db import columnar

        left, right = _skewed_pair(pack=False)
        # Far below the 64 MiB default: one emit chunk, peak 5*emit + 3*probe.
        oracle_stats = OperatorStats()
        oracle = columnar_natural_join(left, right, stats=oracle_stats)
        assert oracle_stats.peak_transient_elements == (
            5 * oracle.cardinality + 3 * right.cardinality
        )

        # A smaller default chunks the same unbudgeted join.
        monkeypatch.setattr(columnar, "_DEFAULT_BUDGET_BYTES", 32 * 1024)
        auto_stats = OperatorStats()
        auto = columnar_natural_join(left, right, stats=auto_stats)
        assert auto.rows == oracle.rows
        assert auto_stats.snapshot() == oracle_stats.snapshot()
        assert (
            auto_stats.peak_transient_elements
            < oracle_stats.peak_transient_elements
        )

    def test_unbudgeted_join_over_the_default_runs_in_emit_chunks(
        self, monkeypatch
    ):
        from repro.db import columnar

        left, right = _skewed_pair(pack=False)
        oracle = columnar_natural_join(left, right)
        budget_bytes = 32 * 1024
        assert 5 * oracle.cardinality + 3 * right.cardinality > budget_bytes // 8
        monkeypatch.setattr(columnar, "_DEFAULT_BUDGET_BYTES", budget_bytes)
        for stats in (None, OperatorStats()):
            recorder = TraceRecorder()
            with recorder.span("join"):
                chunked = columnar_natural_join(left, right, stats=stats)
            (span,) = recorder.spans()
            assert chunked.rows == oracle.rows
            assert span.attrs["emit_morsels"] > 1
            assert span.attrs["emitted"] == oracle.cardinality

    def test_zero_emit_join_peak_is_the_probe_term(self):
        # Non-empty sides, no match: no emit chunk holds a row, but the
        # unbudgeted accounting still charges the 3 probe-sized arrays.
        dictionary = Dictionary(range(16))
        left = ColumnarRelation(
            "l", ["k", "x"], dictionary,
            [np.arange(3, dtype=np.int64), np.zeros(3, dtype=np.int64)],
        )
        right = ColumnarRelation(
            "r", ["k", "y"], dictionary,
            [np.arange(8, 13, dtype=np.int64), np.zeros(5, dtype=np.int64)],
        )
        stats = OperatorStats()
        assert columnar_natural_join(left, right, stats=stats).cardinality == 0
        assert stats.peak_transient_elements == 3 * right.cardinality


# ----------------------------------------------------------------------
# The i64 reader: columns stored in the int64 codec still open.
# ----------------------------------------------------------------------


class TestI64Reader:
    @pytest.fixture
    def stores(self, tmp_path, rewrite_column_as_i64):
        query = cycle_query(4, name="i64_cycle")
        original = uniform_database(
            query, tuples_per_relation=60, domain_size=6, seed=3
        )
        target = fresh_dir(tmp_path)
        save_database(original, target)
        column_file = rewrite_column_as_i64(target, relation=1, column=1)
        return query, original, target, column_file

    def test_opens_identically_on_both_engines(self, stores):
        query, original, target, _ = stores
        mapped = open_database(target)
        assert_same_database(original, mapped)
        assert mapped.relation(original.relation_names()[1])._columns[1].dtype == np.int64
        plans = (
            baseline_plan(query, original.statistics),
            cost_k_decomp(query, original.statistics, k=2),
        )
        for plan in plans:
            assert_same_execution(plan, original, mapped)
        row_db = open_database(target, columnar=False)
        assert_same_database(original, row_db)
        for plan in plans:
            ours = execute_plan(plan.to_ir(), original)
            theirs = execute_plan(plan.to_ir(), row_db)
            assert (ours.cardinality, ours.boolean) == (theirs.cardinality, theirs.boolean)
            assert ours.stats.snapshot() == theirs.stats.snapshot()

    def test_verifies_deep(self, stores):
        _, _, target, _ = stores
        report = verify_store(target, deep=True)
        assert report["ok"], report["problems"]
        assert report["hashed_files"] == report["checked_files"]

    def test_info_reports_the_raw_codec(self, stores, capsys):
        _, _, target, _ = stores
        assert cli_main(["db", "info", str(target)]) == 0
        out = capsys.readouterr().out
        assert out.count("raw/i64 ref=0") == 1
        assert "for/u1" in out

    def test_a_negative_id_is_refused(self, stores):
        # Only a signed column can hold -1: this is the negative-id check
        # of the range scan every open performs.
        _, _, target, column_file = stores
        payload = bytearray(column_file.read_bytes())
        payload[:8] = (-1).to_bytes(8, "little", signed=True)
        column_file.write_bytes(bytes(payload))
        for columnar in (True, False):
            with pytest.raises(StorageFormatError, match="out of range"):
                open_database(target, columnar=columnar)


# ----------------------------------------------------------------------
# CLI: db save / db info encoding report.
# ----------------------------------------------------------------------

SAVE_ARGV = [
    "--query", "ans <- r(X,Y), s(Y,Z)",
    "--tuples", "80", "--domain", "9", "--seed", "1",
]


class TestDbInfoCli:
    def test_info_reports_packed_encoding(self, tmp_path, capsys):
        target = str(Path(tmp_path) / "cli")
        assert cli_main(["db", "save", target, *SAVE_ARGV]) == 0
        capsys.readouterr()
        assert cli_main(["db", "info", target]) == 0
        out = capsys.readouterr().out
        assert "raw int64 bytes:" in out
        assert "compression:" in out
        assert "for/u1" in out
        assert "raw/" not in out
        info = storage_info(target)
        assert f"compression: {info['compression_ratio']:.2f}x" in out
        assert info["compression_ratio"] >= 4.0

    def test_save_takes_no_encoding_flag(self, tmp_path):
        target = str(Path(tmp_path) / "cli")
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["db", "save", target, *SAVE_ARGV, "--encoding", "raw"])
        assert exit_info.value.code == 2
        assert not Path(target).exists()
