"""Round-trip tests for the persistent columnar storage plane.

The storage invariant: a database round-tripped through
``save_database``/``open_database`` yields **byte-identical** query
answers, row order and ``OperatorStats`` to the in-memory original --
under the mmap'd columnar engine, under the numpy-free row decode
(``columnar=False``), and under the parallel, memory-bounded execution
plane (``threads=4`` plus a small budget).  Hypothesis drives randomised
schemas/values through the round trip; dedicated tests pin the dictionary
hardening (unicode, negative/large ints, mixed types), the read-only-ness
of mapped columns, the plan cache's hit/miss/invalidation behaviour, the
workload cache, the :class:`StorageFormatError` surface, crash-safety of
interrupted saves (a torn store must refuse to open, not half-load), and
the ``repro db verify`` offline checker.
"""

import json
import tempfile
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db.columnar import ColumnarRelation, columnar_semijoin
from repro.db.database import Database
from repro.db.dictionary import Dictionary
from repro.db.executor import execute_plan
from repro.db.generator import uniform_database
from repro.db.relation import Relation
from repro.db.storage import (
    FORMAT_NAME,
    PlanCache,
    cached_database,
    load_catalog,
    open_database,
    reset_workload_cache_stats,
    save_database,
    statistics_digest,
    storage_info,
    store_digest,
    verify_store,
    workload_cache_stats,
)
from repro.exceptions import StorageFormatError
from repro.planner.baseline import baseline_plan
from repro.planner.compare import compare_planners
from repro.planner.cost_k_decomp import cost_k_decomp
from repro.query.conjunctive import build_query
from repro.workloads.synthetic import (
    chain_query,
    cycle_query,
    star_query,
    workload_database,
)

# Values the dictionary must round-trip exactly: unicode (incl. the empty
# string and lookalikes of numbers), negative and > 64-bit ints, floats,
# bools, None.
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

ROUND_TRIP_SETTINGS = dict(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
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


class TestDictionarySegments:
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(MIXED_VALUES, max_size=30))
    def test_segments_round_trip_exactly(self, values):
        dictionary = Dictionary(values)
        # Serialise through real JSON, as the storage files do.
        segments = json.loads(json.dumps(dictionary.to_segments()))
        rebuilt = Dictionary.from_segments(segments)
        originals = list(dictionary.values)
        decoded = list(rebuilt.values)
        assert len(originals) == len(decoded)
        for ours, theirs in zip(originals, decoded):
            assert type(ours) is type(theirs)
            assert ours == theirs

    def test_hardening_corner_values(self):
        corner = [2**100, -(2**100), -1, 0, True, False, "", "ø", "日本語",
                  "123", 0.5, -0.0, None, "None"]
        dictionary = Dictionary(corner)
        rebuilt = Dictionary.from_segments(
            json.loads(json.dumps(dictionary.to_segments()))
        )
        assert [(type(v), v) for v in rebuilt.values] == [
            (type(v), v) for v in dictionary.values
        ]

    def test_distinct_nans_keep_distinct_ids(self, tmp_path):
        # NaN != NaN, so two NaN objects are two ids; the stored dictionary
        # must reopen with both, not collapse them into one.
        original = Database(
            relations={"r": Relation("r", ["a"], [(float("nan"),), (float("nan"),)])}
        )
        save_database(original, tmp_path / "nans")
        assert len(open_database(tmp_path / "nans").dictionary) == 2
        for columnar in (True, False):
            reopened = open_database(tmp_path / "nans", columnar=columnar)
            assert reopened.relation("r").rows_json() == "[[NaN],[NaN]]"

    def test_unstorable_value_raises_storage_format_error(self):
        dictionary = Dictionary([("a", 1)])  # tuples are not representable
        with pytest.raises(StorageFormatError, match="tuple"):
            dictionary.to_segments()

    def test_unknown_segment_type_raises(self):
        with pytest.raises(StorageFormatError, match="unknown dictionary"):
            Dictionary.from_segments([["complex", ["1j"]]])


class TestDatabaseRoundTrip:
    @settings(max_examples=25, **ROUND_TRIP_SETTINGS)
    @given(rows_r=RELATION, rows_s=RELATION)
    def test_random_mixed_relations(self, tmp_path, rows_r, rows_s):
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

    def test_empty_single_row_and_nullary_relations(self, tmp_path):
        original = Database(
            relations={
                "empty": Relation("empty", ["x", "y"], []),
                "one": Relation("one", ["x"], [("solo",)]),
                "nullary": Relation("nullary", [], [(), (), ()]),
            }
        )
        original.analyze()
        target = fresh_dir(tmp_path)
        save_database(original, target)
        for columnar in (True, False):
            reopened = open_database(target, columnar=columnar)
            assert_same_database(original, reopened)
            assert reopened.relation("empty").cardinality == 0
            assert reopened.relation("nullary").cardinality == 3

    def test_multi_column_key_join_round_trip(self, tmp_path):
        # Two shared attributes force the packed multi-column key path.
        query = build_query(
            [("r", ["A", "B", "C"]), ("s", ["A", "B", "D"])],
            output_variables=["A", "B", "C", "D"],
        )
        original = uniform_database(
            query, tuples_per_relation=60, domain_size=4, seed=5
        )
        target = fresh_dir(tmp_path)
        save_database(original, target)
        reopened = open_database(target)
        plan = baseline_plan(query, original.statistics)
        assert_same_execution(plan, original, reopened)

    def test_selection_vector_relation_round_trip(self, tmp_path):
        base = Database(
            relations={
                "r": Relation("r", ["a", "b"], [(1, "x"), (2, "y"), (3, "x"), (2, "x")]),
                "s": Relation("s", ["b"], [("x",)]),
            }
        )
        filtered = columnar_semijoin(base.relation("r"), base.relation("s"))
        assert filtered._selection is not None  # really exercises the path
        base.add_relation(filtered.rename({}, name="rf"))
        base.analyze()
        target = fresh_dir(tmp_path)
        save_database(base, target)
        for columnar in (True, False):
            reopened = open_database(target, columnar=columnar)
            assert reopened.relation("rf").rows == filtered.rows
            assert_same_database(base, reopened)
        # The columnar reopen preserves the selection structure itself.
        mapped = open_database(target).relation("rf")
        assert mapped._selection is not None
        assert mapped._selection.tolist() == filtered._selection.tolist()

    def test_row_engine_database_saves_too(self, tmp_path, row_twin):
        query = chain_query(3, name="rowsave")
        generated = uniform_database(
            query, tuples_per_relation=30, domain_size=5, seed=2
        )
        original = row_twin(generated)
        target, generated_target = fresh_dir(tmp_path), fresh_dir(tmp_path)
        save_database(original, target)
        for columnar in (True, False):
            assert_same_database(original, open_database(target, columnar=columnar))
        # Row relations intern in the generator's order: the same store.
        save_database(generated, generated_target)
        assert store_digest(target) == store_digest(generated_target)


QUERIES = (
    chain_query(3, name="rt_chain3"),
    cycle_query(4, name="rt_cycle4"),
    star_query(3, name="rt_star3"),
)


class TestExecutionRoundTrip:
    """The oracle pin: stored databases answer every plan byte-identically,
    on both engines and on the parallel, memory-bounded plane."""

    @settings(max_examples=8, **ROUND_TRIP_SETTINGS)
    @given(index=st.integers(0, len(QUERIES) - 1), seed=st.integers(0, 3))
    def test_plans_byte_identical_after_round_trip(self, tmp_path, index, seed):
        query = QUERIES[index]
        original = uniform_database(
            query, tuples_per_relation=50, domain_size=6, seed=seed
        )
        target = fresh_dir(tmp_path)
        save_database(original, target)
        reopened = open_database(target)
        base = baseline_plan(query, original.statistics)
        structural = cost_k_decomp(query, original.statistics, k=2)
        for plan in (base, structural):
            # Serial oracle, then the parallel + memory-bounded plane.
            assert_same_execution(plan, original, reopened)
            assert_same_execution(
                plan, original, reopened, threads=4, memory_budget_bytes=16384
            )

    @settings(max_examples=6, **ROUND_TRIP_SETTINGS)
    @given(index=st.integers(0, len(QUERIES) - 1), seed=st.integers(0, 3))
    def test_row_fallback_byte_identical(self, tmp_path, row_twin, index, seed):
        query = QUERIES[index]
        row_original = row_twin(
            uniform_database(query, tuples_per_relation=40, domain_size=6, seed=seed)
        )
        target = fresh_dir(tmp_path)
        save_database(row_original, target)
        row_reopened = open_database(target, columnar=False)
        assert not isinstance(
            next(iter(row_reopened._relations.values())), ColumnarRelation
        )
        base = baseline_plan(query, row_original.statistics)
        structural = cost_k_decomp(query, row_original.statistics, k=2)
        for plan in (base, structural):
            assert_same_execution(plan, row_original, row_reopened)

    def test_budget_stop_identical_after_round_trip(self, tmp_path):
        from repro.db.algebra import EvaluationBudgetExceeded

        query = cycle_query(4, name="rt_budget")
        original = uniform_database(
            query, tuples_per_relation=80, domain_size=3, seed=1
        )
        target = fresh_dir(tmp_path)
        save_database(original, target)
        reopened = open_database(target)
        plan = baseline_plan(query, original.statistics)
        with pytest.raises(EvaluationBudgetExceeded) as ours:
            execute_plan(plan.to_ir(), original, budget=500)
        with pytest.raises(EvaluationBudgetExceeded) as theirs:
            execute_plan(plan.to_ir(), reopened, budget=500)
        assert ours.value.work_so_far == theirs.value.work_so_far


class TestMemmapColumnsReadOnly:
    def test_writes_raise_and_engines_never_mutate(self, tmp_path):
        query = cycle_query(4, name="ro_cycle")
        original = uniform_database(
            query, tuples_per_relation=40, domain_size=5, seed=0
        )
        target = fresh_dir(tmp_path)
        save_database(original, target)
        reopened = open_database(target)
        for name in reopened.relation_names():
            for column in reopened.relation(name)._columns:
                assert not column.flags.writeable
                with pytest.raises((ValueError, RuntimeError)):
                    column[0] = 123
        # Running real plans on the mapped columns works (kernels never
        # write into inputs) and leaves the stored bytes untouched.
        before = {
            f.name: f.read_bytes() for f in sorted((target / "cols").iterdir())
        }
        compare_planners(query, reopened, k_values=(2,), budget=2_000_000)
        after = {
            f.name: f.read_bytes() for f in sorted((target / "cols").iterdir())
        }
        assert before == after


class TestPlanCache:
    def _database_and_query(self):
        query = cycle_query(5, name="plan_cache_q")
        database = uniform_database(
            query, tuples_per_relation=50, domain_size=7, seed=4
        )
        return query, database

    def test_hit_miss_and_zero_planning_seconds(self, tmp_path):
        query, database = self._database_and_query()
        cache = PlanCache(tmp_path / "plans")
        first = compare_planners(query, database, k_values=(2, 3), plan_cache=cache)
        assert cache.hits == 0 and cache.misses >= 3 and cache.stores >= 3
        second = compare_planners(query, database, k_values=(2, 3), plan_cache=cache)
        assert cache.hits >= 3
        assert second.baseline.planning_seconds == 0.0
        for k, measurement in second.structural.items():
            assert measurement.planning_seconds == 0.0
            # The replayed plan is the same plan: identical estimates,
            # answers and work.
            assert measurement.estimated_cost == first.structural[k].estimated_cost
            assert (
                measurement.answer_cardinality
                == first.structural[k].answer_cardinality
            )
            assert measurement.evaluation_work == first.structural[k].evaluation_work

    def test_statistics_change_invalidates(self, tmp_path):
        query, database = self._database_and_query()
        cache = PlanCache(tmp_path / "plans")
        compare_planners(query, database, k_values=(2,), plan_cache=cache)
        digest_before = statistics_digest(database.statistics)
        # Refresh the catalog after the data changes: the digest moves, so
        # every lookup for the new catalog misses.
        grown = database.relation("r0").with_rows(
            tuple(database.relation("r0").rows) + ((99, 98),)
        )
        database.add_relation(grown)
        database.analyze()
        assert statistics_digest(database.statistics) != digest_before
        hits_before, misses_before = cache.hits, cache.misses
        compare_planners(query, database, k_values=(2,), plan_cache=cache)
        assert cache.hits == hits_before
        assert cache.misses > misses_before

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        query, database = self._database_and_query()
        cache = PlanCache(tmp_path / "plans")
        compare_planners(query, database, k_values=(2,), plan_cache=cache)
        for entry in (tmp_path / "plans").glob("plan-*.json"):
            entry.write_text("{not json")
        hits_before = cache.hits
        report = compare_planners(query, database, k_values=(2,), plan_cache=cache)
        assert cache.hits == hits_before  # all corrupt -> all misses
        assert report.structural[2].answer_cardinality >= 0

    def test_corrupt_payload_with_intact_key_replans(self, tmp_path):
        # An entry whose key matches but whose stored decomposition is
        # structurally broken must read as a miss and be replanned, not
        # crash the sweep.
        query, database = self._database_and_query()
        cache = PlanCache(tmp_path / "plans")
        reference = compare_planners(query, database, k_values=(2,), plan_cache=cache)
        for entry in (tmp_path / "plans").glob("plan-*.json"):
            stored = json.loads(entry.read_text())
            decomposition = stored["plan"].get("decomposition")
            if decomposition is not None:
                decomposition["children"]["999"] = [decomposition["root"]]
                entry.write_text(json.dumps(stored))
        report = compare_planners(query, database, k_values=(2,), plan_cache=cache)
        assert (
            report.structural[2].answer_cardinality
            == reference.structural[2].answer_cardinality
        )
        assert report.structural[2].planning_seconds > 0.0  # really replanned


class TestWorkloadCache:
    def test_transparent_reuse_and_counters(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOAD_CACHE_DIR", str(tmp_path / "wl"))
        reset_workload_cache_stats()
        query = chain_query(4, name="wl_chain")
        cold = workload_database(query, tuples_per_relation=40, domain_size=5, seed=9)
        assert workload_cache_stats() == {"hits": 0, "misses": 1}
        warm = workload_database(query, tuples_per_relation=40, domain_size=5, seed=9)
        assert workload_cache_stats() == {"hits": 1, "misses": 1}
        assert_same_database(cold, warm)
        # A different key regenerates.
        workload_database(query, tuples_per_relation=40, domain_size=5, seed=10)
        assert workload_cache_stats()["misses"] == 2

    def test_disabled_without_configuration(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_WORKLOAD_CACHE_DIR", raising=False)
        reset_workload_cache_stats()
        query = chain_query(3, name="wl_off")
        workload_database(query, tuples_per_relation=10, domain_size=3, seed=0)
        assert workload_cache_stats() == {"hits": 0, "misses": 0}

    def test_corrupt_entry_regenerates(self, tmp_path):
        reset_workload_cache_stats()
        build = lambda: Database(
            relations={"r": Relation("r", ["a", "b"], [(1, 2), (3, 4)])}
        )
        first = cached_database("unit", {"x": 2}, build, cache_dir=tmp_path)
        entry = next(tmp_path.glob("unit-*"))
        (entry / "catalog.json").write_text("{broken")
        second = cached_database("unit", {"x": 2}, build, cache_dir=tmp_path)
        assert_same_database(first, second)
        assert workload_cache_stats()["misses"] == 2
        third = cached_database("unit", {"x": 2}, build, cache_dir=tmp_path)
        assert workload_cache_stats()["hits"] == 1
        assert_same_database(first, third)

    def test_stale_half_entry_is_healed(self, tmp_path):
        # An entry directory without a catalog (a crash mid-cleanup) must
        # not leave the key permanently cold: the next miss replaces it.
        reset_workload_cache_stats()
        build = lambda: Database(
            relations={"r": Relation("r", ["a"], [(1,), (2,)])}
        )
        first = cached_database("unit", {"x": 3}, build, cache_dir=tmp_path)
        entry = next(tmp_path.glob("unit-*"))
        (entry / "catalog.json").unlink()
        second = cached_database("unit", {"x": 3}, build, cache_dir=tmp_path)
        assert_same_database(first, second)
        # The republished entry serves hits again.
        third = cached_database("unit", {"x": 3}, build, cache_dir=tmp_path)
        assert workload_cache_stats() == {"hits": 1, "misses": 2}
        assert_same_database(first, third)


class TestStorageFormatErrors:
    @pytest.fixture
    def stored(self, tmp_path, rewrite_column_as_i64):
        # Both columns rewritten as i64 so the corruption tests can poke
        # at 8-byte signed ids; packed-store corruption is covered in
        # tests/test_packed_encoding.py and tests/test_decoders.py.
        def store() -> Path:
            database = Database(
                relations={"r": Relation("r", ["a", "b"], [(1, 2), (3, 4)])}
            )
            database.analyze()
            target = fresh_dir(tmp_path)
            save_database(database, target)
            for position in range(2):
                rewrite_column_as_i64(target, 0, position)
            return target

        return store

    def test_version_mismatch(self, stored):
        target = stored()
        catalog = json.loads((target / "catalog.json").read_text())
        catalog["version"] = 999
        (target / "catalog.json").write_text(json.dumps(catalog))
        with pytest.raises(StorageFormatError, match="version"):
            open_database(target)
        with pytest.raises(StorageFormatError, match="version"):
            storage_info(target)

    def test_unknown_format_marker(self, stored):
        target = stored()
        catalog = json.loads((target / "catalog.json").read_text())
        catalog["format"] = "parquet"
        (target / "catalog.json").write_text(json.dumps(catalog))
        with pytest.raises(StorageFormatError, match="format marker"):
            load_catalog(target)

    def test_truncated_column_file(self, stored):
        target = stored()
        victim = next((target / "cols").glob("*.i64"))
        victim.write_bytes(victim.read_bytes()[:-3])
        with pytest.raises(StorageFormatError, match="bytes"):
            open_database(target)
        with pytest.raises(StorageFormatError, match="bytes"):
            open_database(target, columnar=False)

    def test_missing_files(self, tmp_path, stored):
        target = stored()
        next((target / "cols").glob("*.i64")).unlink()
        with pytest.raises(StorageFormatError):
            open_database(target)
        target = stored()
        (target / "dictionary.json").unlink()
        with pytest.raises(StorageFormatError):
            open_database(target)
        with pytest.raises(StorageFormatError):
            open_database(tmp_path / "never_saved")

    def test_not_json(self, stored):
        target = stored()
        (target / "catalog.json").write_text("][")
        with pytest.raises(StorageFormatError, match="JSON"):
            open_database(target)

    def test_missing_catalog_keys_raise_storage_format_error(self, stored):
        # Valid JSON + valid format marker but missing required fields must
        # read as a corrupt store (so caches regenerate), not as KeyError.
        for victim in ("base_length", "name", "columns"):
            target = stored()
            catalog = json.loads((target / "catalog.json").read_text())
            del catalog["relations"][0][victim]
            (target / "catalog.json").write_text(json.dumps(catalog))
            with pytest.raises(StorageFormatError, match="malformed catalog"):
                open_database(target)
        target = stored()
        catalog = json.loads((target / "catalog.json").read_text())
        del catalog["statistics"]["tables"]["r"]["cardinality"]
        (target / "catalog.json").write_text(json.dumps(catalog))
        with pytest.raises(StorageFormatError, match="malformed catalog"):
            open_database(target)

    def test_out_of_range_ids_raise_instead_of_wrapping(self, stored):
        # Bit corruption that keeps the byte length intact must not decode
        # silently through negative/out-of-range indexing.
        import struct

        for bad_id in (-2, 10_000):
            target = stored()
            victim = sorted((target / "cols").glob("*.i64"))[0]
            payload = bytearray(victim.read_bytes())
            payload[:8] = struct.pack("<q", bad_id)
            victim.write_bytes(bytes(payload))
            with pytest.raises(StorageFormatError, match="out of range"):
                open_database(target)
            with pytest.raises(StorageFormatError, match="out of range"):
                open_database(target, columnar=False)

    def test_corrupt_entry_with_missing_keys_regenerates_in_cache(self, tmp_path):
        build = lambda: Database(
            relations={"r": Relation("r", ["a"], [(1,), (2,)])}
        )
        first = cached_database("unit", {"x": 9}, build, cache_dir=tmp_path)
        entry = next(tmp_path.glob("unit-*"))
        catalog = json.loads((entry / "catalog.json").read_text())
        del catalog["relations"][0]["base_length"]
        (entry / "catalog.json").write_text(json.dumps(catalog))
        second = cached_database("unit", {"x": 9}, build, cache_dir=tmp_path)
        assert_same_database(first, second)
        assert_same_database(
            first, cached_database("unit", {"x": 9}, build, cache_dir=tmp_path)
        )

    def test_format_name_is_stable(self, stored):
        # The marker is part of the on-disk contract; changing it silently
        # would orphan every existing store.
        target = stored()
        assert json.loads((target / "catalog.json").read_text())["format"] == (
            FORMAT_NAME
        ) == "repro-columnar-db"


class TestCrashDuringSave:
    """Saves are atomic: the store is encoded into a staging sibling and
    renamed into place only when complete.  A crash mid-save therefore
    leaves a fresh target *absent* (opening raises
    :class:`StorageFormatError`, never a half-loaded database) and an
    overwritten target as the *previous good store*, byte-for-byte
    intact -- a failed re-save must never destroy the data you had."""

    def _database(self, rows=12, seed=0):
        query = chain_query(3, name="crash_q")
        return workload_database(
            query, tuples_per_relation=rows, domain_size=5, seed=seed
        )

    def _crash_write_bytes(self, monkeypatch, after_calls):
        """Make ``Path.write_bytes`` die after ``after_calls`` successes."""
        real = Path.write_bytes
        calls = {"n": 0}

        def dying(self, data):
            calls["n"] += 1
            if calls["n"] > after_calls:
                raise OSError(28, "No space left on device (simulated)")
            return real(self, data)

        monkeypatch.setattr(Path, "write_bytes", dying)

    def test_crash_on_fresh_save_leaves_unopenable_store(
        self, tmp_path, monkeypatch
    ):
        target = fresh_dir(tmp_path)
        self._crash_write_bytes(monkeypatch, after_calls=2)
        with pytest.raises(OSError):
            save_database(self._database(), target)
        monkeypatch.undo()
        with pytest.raises(StorageFormatError):
            Database.open(target)
        report = verify_store(target)
        assert report["ok"] is False and report["problems"]

    @pytest.mark.parametrize("after_calls", [0, 3])
    def test_crash_during_overwrite_preserves_old_store(
        self, tmp_path, monkeypatch, after_calls
    ):
        target = fresh_dir(tmp_path)
        old = self._database(rows=12, seed=0)
        save_database(old, target)
        old_digest = store_digest(target)
        # Overwrite with *different* data and crash partway through the
        # staging encode (on the first column write, and again mid-way):
        # the target directory must not have been touched at all.
        self._crash_write_bytes(monkeypatch, after_calls=after_calls)
        with pytest.raises(OSError):
            save_database(self._database(rows=20, seed=1), target)
        monkeypatch.undo()
        assert store_digest(target) == old_digest
        assert_same_database(old, Database.open(target))
        report = verify_store(target, deep=True)
        assert report["ok"] is True and report["hashed_files"] > 0
        # ...and no staging litter survives the failed save.
        assert [p.name for p in tmp_path.iterdir()] == [target.name]

    def test_completed_save_still_opens(self, tmp_path, monkeypatch):
        # Control: the crash hook with a high threshold never fires and the
        # round trip stays intact.
        target = fresh_dir(tmp_path)
        self._crash_write_bytes(monkeypatch, after_calls=10_000)
        database = self._database()
        save_database(database, target)
        monkeypatch.undo()
        assert_same_database(database, Database.open(target))
        assert verify_store(target)["ok"] is True


class TestPlanCacheCrashSafety:
    def _warm_cache(self, tmp_path):
        query = cycle_query(5, name="plan_cache_crash_q")
        database = uniform_database(
            query, tuples_per_relation=50, domain_size=7, seed=4
        )
        cache = PlanCache(tmp_path / "plans")
        compare_planners(query, database, k_values=(2,), plan_cache=cache)
        return query, database, cache

    def test_torn_entry_is_deleted_on_lookup(self, tmp_path):
        """Satellite: a torn entry (crash mid-write before the atomic
        rename existed) reads as a miss AND is deleted, so it cannot shadow
        the healthy entry the replan stores."""
        query, database, cache = self._warm_cache(tmp_path)
        entries = list((tmp_path / "plans").glob("plan-*.json"))
        assert entries
        for entry in entries:
            entry.write_text('{"key": {"truncated')
        compare_planners(query, database, k_values=(2,), plan_cache=cache)
        for entry in entries:
            if entry.exists():  # replaced by the replan's store
                json.loads(entry.read_text())  # ...and whole again
        hits_before = cache.hits
        compare_planners(query, database, k_values=(2,), plan_cache=cache)
        assert cache.hits > hits_before  # healthy entries hit again

    def test_store_leaves_no_staging_droppings(self, tmp_path):
        self._warm_cache(tmp_path)
        leftovers = [
            p for p in (tmp_path / "plans").iterdir()
            if not (p.name.startswith("plan-") and p.suffix == ".json")
        ]
        assert leftovers == []


class TestDbVerifyCli:
    def _stored(self, tmp_path) -> str:
        query = chain_query(3, name="verify_cli_q")
        database = workload_database(
            query, tuples_per_relation=15, domain_size=5, seed=2
        )
        target = fresh_dir(tmp_path) / "store"
        save_database(database, target)
        return str(target)

    def test_clean_store_exits_zero(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        target = self._stored(tmp_path)
        assert cli_main(["db", "verify", target]) == 0
        out = capsys.readouterr().out
        assert "OK: every file matches the catalog" in out

    def test_truncated_column_exits_nonzero_with_report(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        target = self._stored(tmp_path)
        victim = next((Path(target) / "cols").glob("r0_*"))
        victim.write_bytes(victim.read_bytes()[:-1])
        assert cli_main(["db", "verify", target]) == 1
        out = capsys.readouterr().out
        assert f"FAIL cols/{victim.name}" in out
        assert "problem(s) found" in out

    def test_json_report(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        target = self._stored(tmp_path)
        assert cli_main(["db", "verify", "--json", target]) == 0
        clean = json.loads(capsys.readouterr().out)
        assert clean["ok"] is True and clean["problems"] == []
        assert clean["checked_files"] >= 3

        missing = next((Path(target) / "cols").glob("r1_*"))
        missing.unlink()
        assert cli_main(["db", "verify", "--json", target]) == 1
        torn = json.loads(capsys.readouterr().out)
        assert torn["ok"] is False
        assert any(f"cols/{missing.name}" == p["file"] for p in torn["problems"])


class TestDeepVerify:
    """``verify_store(deep=True)`` / ``repro db verify --deep``: per-file
    SHA-256 recorded at save time catches bit rot that leaves every byte
    length intact -- exactly what the fast size-only check cannot see."""

    def _stored(self, tmp_path) -> Path:
        query = chain_query(3, name="deep_verify_q")
        database = workload_database(
            query, tuples_per_relation=15, domain_size=5, seed=2
        )
        target = fresh_dir(tmp_path) / "store"
        save_database(database, target)
        return target

    def _rot(self, target: Path) -> Path:
        """Flip one byte of a column file without changing its size."""
        victim = next((target / "cols").glob("r0_*"))
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))
        return victim

    def test_clean_store_passes_deep(self, tmp_path):
        report = verify_store(self._stored(tmp_path), deep=True)
        assert report["ok"] is True
        assert report["deep"] is True
        assert report["hashed_files"] == report["checked_files"]
        assert report["unhashed_files"] == 0

    def test_bit_rot_invisible_to_fast_verify_caught_by_deep(self, tmp_path):
        target = self._stored(tmp_path)
        victim = self._rot(target)
        assert verify_store(target)["ok"] is True  # sizes all still match
        deep = verify_store(target, deep=True)
        assert deep["ok"] is False
        assert any(
            f"cols/{victim.name}" == p["file"]
            and "content digest mismatch" in p["error"]
            for p in deep["problems"]
        )

    def test_store_without_recorded_digests_is_counted_not_failed(
        self, tmp_path
    ):
        # Stores saved before content digests existed deep-verify as
        # "unhashed", not as failures -- old data stays verifiable.
        target = self._stored(tmp_path)
        catalog = json.loads((target / "catalog.json").read_text())
        catalog["dictionary"].pop("sha256", None)
        for meta in catalog["relations"]:
            for column in meta["columns"]:
                column.pop("sha256", None)
            if meta.get("selection"):
                meta["selection"].pop("sha256", None)
        (target / "catalog.json").write_text(json.dumps(catalog, indent=1))
        report = verify_store(target, deep=True)
        assert report["ok"] is True
        assert report["hashed_files"] == 0
        assert report["unhashed_files"] == report["checked_files"]

    def test_cli_deep_flag(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        target = self._stored(tmp_path)
        assert cli_main(["db", "verify", "--deep", str(target)]) == 0
        out = capsys.readouterr().out
        assert "OK: every file matches the catalog" in out
        self._rot(target)
        assert cli_main(["db", "verify", str(target)]) == 0  # fast: blind
        capsys.readouterr()
        assert cli_main(["db", "verify", "--deep", str(target)]) == 1
        assert "content digest mismatch" in capsys.readouterr().out
