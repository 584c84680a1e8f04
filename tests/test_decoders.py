"""One decoder per document: every way a store or a plan can arrive as
bytes ends in a correct decode or the plane's typed error.

* **Trust boundary.**  A decomposition that is not a *complete* hypertree
  decomposition of the query's own hypergraph is refused with a
  ``DatabaseError`` naming what it violates -- through ``execute_payload``,
  through a pooled worker (an ``"error"`` response, pool unaffected) and
  from a ``PlanCache`` entry edited on disk (replanned and overwritten).
  These payloads returned wrong answers before the plan codec validated.
* **Fail closed.**  Malformed ``catalog.json`` / decomposition payloads that
  used to escape as ``AttributeError`` / ``ValueError`` / ``TypeError``.
* **Mutation fuzzing.**  Hypothesis drops keys, swaps types, plants negative
  and 10**12 integers, repeats list items and plants path components in
  valid documents -- ``catalog.json``, ``dictionary.json``, a ``PlanCache``
  entry, the wire ``"plan"`` block, the wire query block, a ``FaultPlan`` --
  and draws arbitrary JSON for the wire's knob fields.  Every public
  entry either raises a ``ReproError`` or returns, and what it returns is
  never silently wrong: opened data is the oracle's data, executed answers
  equal the join-order oracle's on the same query, a payload with accepted
  knobs is answered as the oracle answers those knobs, and a fault plan
  re-encodes to itself.  (Labels -- database and
  relation names, statistics -- are free-form: a mutation may legitimately
  change them, so they are not compared.)
* **Frames.**  The daemon's sans-IO ``FrameDecoder`` over raw bytes and
  over frame streams with mutated headers and bodies, cut at arbitrary
  chunk boundaries: the frames a one-shot reference decode of the same
  bytes yields, or ``DaemonProtocolError`` -- nothing else, nothing sized
  by a declared length, and in time linear in the bytes fed.
"""

import copy
import json
import shutil
import struct
import sys
import tempfile
import time
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.db.columnar import columnar_semijoin
from repro.db.daemon import (
    DAEMON_FORMAT,
    DAEMON_VERSION,
    DaemonProtocolError,
    FrameDecoder,
    decode_frame,
    encode_frame,
)
from repro.db.database import Database
from repro.db.executor import execute_plan
from repro.db.faults import FAULTS_ENV, FaultPlan
from repro.db.plan_ir import (
    decomposition_from_payload,
    decomposition_to_payload,
    plan_ir_from_payload,
)
from repro.db.relation import Relation
from repro.db.serving import (
    ServingPool,
    execute_payload,
    plan_to_payload,
    query_from_payload,
    query_to_payload,
    strip_provenance,
)
from repro.db.storage import (
    PlanCache,
    cached_database,
    load_catalog,
    open_database,
    storage_info,
    store_digest,
    verify_store,
)
from repro.decomposition.hypertree import HypertreeDecomposition
from repro.exceptions import (
    DatabaseError,
    DecompositionError,
    ReproError,
    StorageFormatError,
)
from repro.planner.baseline import baseline_plan
from repro.planner.compare import compare_planners
from repro.planner.cost_k_decomp import best_plan_over_k, cost_k_decomp
from repro.planner.plans import HypertreePlan, JoinOrderPlan
from repro.query.conjunctive import build_query
from repro.workloads.synthetic import workload_database

FUZZ = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ----------------------------------------------------------------------
# Shared inputs.
# ----------------------------------------------------------------------


def _triangle():
    return build_query(
        [("r", ["X", "Y"]), ("s", ["Y", "Z"]), ("t", ["Z", "X"])],
        output_variables=["X", "Y", "Z"],
        name="triangle",
    )


def _chain():
    return build_query(
        [("r", ["X", "Y"]), ("s", ["Y", "Z"]), ("t", ["Z", "W"])],
        output_variables=["X", "W"],
        name="chain",
    )


def _cycle():
    body = [(f"r{i}", [f"X{i}", f"X{(i + 1) % 5}"]) for i in range(5)]
    return build_query(body, output_variables=["X0", "X2"], name="cycle_out")


def _cycle_database() -> Database:
    return workload_database(_cycle(), tuples_per_relation=40, domain_size=6, seed=3)


def _rst_database(rows) -> Database:
    database = Database(
        relations={name: Relation(name, ["a", "b"], rows) for name in "rst"}
    )
    database.analyze()
    return database


def _wire(query, plan) -> dict:
    return {
        "format": "repro-serving",
        "version": 1,
        "query": query_to_payload(query),
        "plan": plan,
        "answer": "rows",
    }


def _hypertree(root, children, nodes) -> dict:
    return {
        "kind": "hypertree",
        "decomposition": {
            "root": root,
            "children": {str(k): v for k, v in children.items()},
            "nodes": {
                str(k): {"lambda": lam, "chi": chi} for k, (lam, chi) in nodes.items()
            },
        },
    }


#: Valid on all four conditions of Def. 2.1, but ``t`` is in no λ: executed,
#: it answered 4 rows where the join-order oracle answers 2.
INCOMPLETE_TRIANGLE = _hypertree(0, {0: []}, {0: (["r", "s"], ["X", "Y", "Z"])})
#: ROADMAP's chain payload (edge ``s`` uncovered, ``Z`` disconnected): 4 rows
#: for 2.
UNCOVERED_CHAIN = _hypertree(
    0,
    {0: [1], 1: [2], 2: []},
    {0: (["r"], ["X", "Y"]), 1: (["s"], ["Y"]), 2: (["t"], ["W", "Z"])},
)
#: A χ naming a variable the query does not have.
FOREIGN_VARIABLE = _hypertree(0, {0: []}, {0: (["r", "s", "t"], ["X", "Y", "Q"])})

NOT_A_PLAN = [
    pytest.param(
        _triangle, INCOMPLETE_TRIANGLE, r"not complete.*\['t'\]", id="incomplete"
    ),
    pytest.param(_chain, UNCOVERED_CHAIN, r"condition 1.*\['s'\]", id="uncovered"),
    pytest.param(_triangle, FOREIGN_VARIABLE, "condition", id="foreign-variable"),
]

TRIANGLE_ROWS = [(1, 1), (2, 2), (1, 2)]

#: Knob values the wire let through before it checked ``budget`` and
#: ``threads`` (and the float range of ``deadline_seconds``): untyped
#: ``ValueError`` / ``TypeError`` / ``OverflowError``, a serial run at a
#: meaningless thread count, or a ``budget_exceeded`` echoing the value.
BAD_KNOBS = [
    ("threads", "x"),
    ("threads", [1]),
    ("threads", True),
    ("threads", 0),
    ("threads", -3),
    ("budget", "x"),
    ("budget", -5),
    ("budget", 1.5),
    ("budget", True),
    ("deadline_seconds", 10**400),
]


# ----------------------------------------------------------------------
# The trust boundary: a decomposition that is not a query plan is refused.
# ----------------------------------------------------------------------


class TestPlanTrustBoundary:
    @pytest.mark.parametrize("make_query, plan, message", NOT_A_PLAN)
    def test_execute_payload_refuses(self, make_query, plan, message):
        database = _rst_database(TRIANGLE_ROWS)
        with pytest.raises(DatabaseError, match=message):
            execute_payload(_wire(make_query(), plan), database)

    @pytest.mark.parametrize(
        "knob, value", BAD_KNOBS, ids=[f"{k}-{v!r:.8}" for k, v in BAD_KNOBS]
    )
    def test_execute_payload_refuses_a_bad_knob(self, knob, value):
        payload = _wire(_triangle(), {"kind": "join_order", "order": ["r", "s", "t"]})
        with pytest.raises(DatabaseError, match=knob):
            execute_payload(
                dict(payload, **{knob: value}), _rst_database(TRIANGLE_ROWS)
            )

    def test_pooled_worker_answers_an_error_and_keeps_serving(self, tmp_path):
        _rst_database(TRIANGLE_ROWS).save(tmp_path / "store")
        serial = Database.open(tmp_path / "store")
        good = _wire(_triangle(), {"kind": "join_order", "order": ["r", "s", "t"]})
        bad = [_wire(make(), plan) for make, plan, _ in (p.values for p in NOT_A_PLAN)]
        with ServingPool(tmp_path / "store", workers=1) as pool:
            *refused, served = pool.run(bad + [good])
            assert [r["status"] for r in refused] == ["error"] * len(bad)
            assert "not complete" in refused[0]["error"]
            assert "condition 1" in refused[1]["error"]
            assert strip_provenance(served) == execute_payload(good, serial)
            assert pool.restarts == 0 and pool.degraded is None

    def test_tampered_plan_cache_entry_is_replanned_and_overwritten(self, tmp_path):
        query, database = _triangle(), _rst_database(TRIANGLE_ROWS)
        cache = PlanCache(tmp_path / "plans")
        reference = compare_planners(query, database, k_values=(2,), plan_cache=cache)
        tampered = []
        for entry in cache.path.glob("plan-*.json"):
            stored = json.loads(entry.read_text())
            if stored["plan"]["kind"] == "hypertree":
                stored["plan"]["decomposition"] = INCOMPLETE_TRIANGLE["decomposition"]
                entry.write_text(json.dumps(stored))
                tampered.append(entry)
        assert len(tampered) == 1
        report = compare_planners(query, database, k_values=(2,), plan_cache=cache)
        assert report.structural[2].planning_seconds > 0.0  # really replanned
        assert (
            report.structural[2].answer_cardinality
            == report.baseline.answer_cardinality
            == reference.baseline.answer_cardinality
        )
        healed = json.loads(tampered[0].read_text())["plan"]["decomposition"]
        assert healed != INCOMPLETE_TRIANGLE["decomposition"]
        warm = compare_planners(query, database, k_values=(2,), plan_cache=cache)
        assert warm.structural[2].planning_seconds == 0.0

    @pytest.mark.parametrize("broken", [{"nodes": []}, {"children": []}])
    def test_wrong_container_types_are_typed_errors(self, broken):
        decomposition = dict(UNCOVERED_CHAIN["decomposition"], **broken)
        with pytest.raises(DatabaseError, match="malformed decomposition"):
            plan_ir_from_payload(
                _chain(), {"kind": "hypertree", "decomposition": decomposition}
            )

    def test_join_order_must_list_every_atom_exactly_once(self):
        for order in (["r", "s", "t", "t"], ["r", "s"], ["r", "s", "zzz"]):
            with pytest.raises(DatabaseError):
                plan_ir_from_payload(_chain(), {"kind": "join_order", "order": order})

    def test_a_bare_kind_plus_body_payload_still_executes(self):
        # The wire contract the frozen benchmark relies on: execution reads
        # only kind + decomposition | order; estimates are optional extras.
        query, database = _triangle(), _rst_database(TRIANGLE_ROWS)
        plan = cost_k_decomp(query, database.statistics, 2)
        full = plan_to_payload(plan)
        bare = dict(full, plan={
            "kind": "hypertree",
            "decomposition": decomposition_to_payload(plan.decomposition),
        })
        assert execute_payload(bare, database) == execute_payload(full, database)


class TestSayWhichNode:
    def test_condition_3_names_the_node_and_the_vertices(self):
        hypergraph = _triangle().hypergraph()
        decomposition = HypertreeDecomposition.build(
            hypergraph, {0: []}, {0: ["r", "s", "t"]}, {0: ["X", "Y", "Z", "Q"]}
        )
        with pytest.raises(DecompositionError, match=r"condition 3.*node 0.*\['Q'\]"):
            decomposition.validate()
        assert decomposition.chi_violations() == ((0, frozenset({"Q"})),)

    def test_condition_4_names_the_node_both_sets(self):
        hypergraph = _chain().hypergraph()
        decomposition = HypertreeDecomposition.build(
            hypergraph,
            {0: [1], 1: []},
            {0: ["r", "s"], 1: ["s", "t"]},
            {0: ["X", "Y"], 1: ["Y", "Z", "W"]},
        )
        with pytest.raises(DecompositionError) as excinfo:
            decomposition.validate()
        message = str(excinfo.value)
        assert "condition 4" in message and "node 0" in message
        assert "['X', 'Y', 'Z']" in message  # var(λ(p)) ∩ χ(T_p)
        assert "['X', 'Y']" in message  # χ(p)

    def test_completeness_names_the_atom(self):
        hypergraph = _triangle().hypergraph()
        with pytest.raises(DatabaseError, match=r"no node strongly covers \['t'\]"):
            decomposition_from_payload(
                hypergraph, INCOMPLETE_TRIANGLE["decomposition"]
            )


# ----------------------------------------------------------------------
# The plan codec: one to_payload / from_payload pair per plan class.
# ----------------------------------------------------------------------


class TestPlanCodec:
    def _query_and_database(self):
        return _cycle(), _cycle_database()

    def test_both_plan_kinds_round_trip(self):
        query, database = self._query_and_database()
        for plan in (
            cost_k_decomp(query, database.statistics, 2),
            baseline_plan(query, database.statistics),
        ):
            payload = json.loads(json.dumps(plan.to_payload()))
            rebuilt = type(plan).from_payload(query, payload)
            assert rebuilt.planning_seconds == 0.0
            assert rebuilt.to_payload() == plan.to_payload()
            assert rebuilt.estimated_cost == plan.estimated_cost
            ours = execute_plan(plan.to_ir(), database)
            theirs = execute_plan(rebuilt.to_ir(), database)
            assert ours.relation.rows == theirs.relation.rows
            assert ours.stats_payload() == theirs.stats_payload()
            # ... and the very same block is what the executor reads.
            replayed = execute_plan(plan_ir_from_payload(query, payload), database)
            assert replayed.relation.rows == ours.relation.rows

    def test_a_plan_class_refuses_the_other_kind(self):
        query, database = self._query_and_database()
        structural = cost_k_decomp(query, database.statistics, 2).to_payload()
        flat = baseline_plan(query, database.statistics).to_payload()
        with pytest.raises(DatabaseError):
            HypertreePlan.from_payload(query, flat)
        with pytest.raises(DatabaseError):
            JoinOrderPlan.from_payload(query, structural)

    def test_warm_k_sweep_builds_no_taf(self, tmp_path, monkeypatch):
        query, database = self._query_and_database()
        cache = PlanCache(tmp_path / "plans")
        cold = best_plan_over_k(query, database.statistics, (1, 2, 3), plan_cache=cache)
        assert sorted(cold) == [2, 3] and cache.stores == 2

        def no_taf(*args, **kwargs):
            raise AssertionError("a warm sweep must not build planner state")

        # (the package re-exports the function under the module's name)
        planner_module = sys.modules["repro.planner.cost_k_decomp"]
        monkeypatch.setattr(planner_module, "QueryCostTAF", no_taf)
        # k=1 is infeasible, hence never cached: planning it again is what
        # would build the TAF -- leave it out of the warm sweep.
        warm = best_plan_over_k(query, database.statistics, (2, 3), plan_cache=cache)
        assert cache.hits == 2
        for k, plan in warm.items():
            assert plan.planning_seconds == 0.0
            assert plan.to_payload() == cold[k].to_payload()


# ----------------------------------------------------------------------
# The store: malformed catalogs fail closed, file names stay inside.
# ----------------------------------------------------------------------


def _store_database() -> Database:
    """Three relations with pairwise distinct contents, mixed value types
    (two dictionary segments) and one selection vector."""
    base = Database(
        relations={
            "r": Relation("r", ["a", "b"], [(1, "x"), (2, "y"), (3, "x"), (2, "x")]),
            "s": Relation("s", ["b"], [("x",)]),
        }
    )
    base.add_relation(
        columnar_semijoin(base.relation("r"), base.relation("s")).rename({}, name="rf")
    )
    base.analyze()
    return base


def _rewrite(path: Path, edit) -> None:
    document = json.loads(path.read_text())
    edit(document)
    path.write_text(json.dumps(document))


#: The catalogs that made ``storage_info`` / ``verify_store`` raise
#: ``ValueError`` / ``TypeError`` / ``AttributeError`` (and ``open_database``
#: leak ``AttributeError`` on the third and fourth).
UNTYPED_AT_PARENT = {
    "base_length": lambda c: c["relations"][0].update(base_length="x"),
    "relations": lambda c: c.update(relations=5),
    "encoding": lambda c: c["relations"][0]["columns"][0].update(encoding="zz"),
    "dictionary": lambda c: c.update(dictionary=[]),
    "reference": lambda c: c["relations"][0]["columns"][0]["encoding"].update(
        reference="q"
    ),
}


class TestCatalogFailsClosed:
    @pytest.mark.parametrize("defect", sorted(UNTYPED_AT_PARENT))
    def test_every_entry_point_raises_the_typed_error(self, tmp_path, defect, capsys):
        target = tmp_path / "store"
        _store_database().save(target)
        _rewrite(target / "catalog.json", UNTYPED_AT_PARENT[defect])
        for entry_point in (
            open_database,
            lambda path: open_database(path, columnar=False),
            storage_info,
            store_digest,
        ):
            with pytest.raises(StorageFormatError, match="malformed catalog"):
                entry_point(target)
        report = verify_store(target)
        assert report["ok"] is False
        assert [p["file"] for p in report["problems"]] == ["catalog.json"]
        # `repro db verify` is the tool for diagnosing a corrupt store: it
        # must report one, not traceback on it.
        assert cli_main(["db", "verify", str(target)]) == 1
        out = capsys.readouterr().out
        assert "FAIL catalog.json" in out and "Traceback" not in out

    def test_workload_cache_regenerates_instead_of_crashing(self, tmp_path):
        first = cached_database("unit", {"x": 1}, _store_database, cache_dir=tmp_path)
        (entry,) = tmp_path.glob("unit-*")
        _rewrite(entry / "catalog.json", UNTYPED_AT_PARENT["encoding"])
        second = cached_database("unit", {"x": 1}, _store_database, cache_dir=tmp_path)
        assert _data(second) == _data(first)
        assert verify_store(entry)["ok"]

    @pytest.mark.parametrize(
        "name", ["../../../../etc/hostname", "/etc/hostname", "cols/../../x", ""]
    )
    def test_file_names_are_confined_to_the_store(self, tmp_path, name):
        target = tmp_path / "store"
        _store_database().save(target)
        _rewrite(
            target / "catalog.json",
            lambda c: c["relations"][0]["columns"][0].update(file=name),
        )
        with pytest.raises(StorageFormatError, match="leaves the store"):
            open_database(target)
        assert [p["file"] for p in verify_store(target)["problems"]] == ["catalog.json"]

    @pytest.mark.parametrize("columnar", [True, False])
    def test_a_declared_length_allocates_nothing_before_the_size_check(
        self, tmp_path, columnar
    ):
        # A self-consistent lie: every field that restates the row count
        # agrees on 10**12, so only the file itself contradicts it.
        target = tmp_path / "store"
        _store_database().save(target)
        itemsize = {"u1": 1, "u2": 2, "u4": 4, "i64": 8}

        def lie(catalog):
            relation = catalog["relations"][0]
            assert relation["selection"] is None
            relation["base_length"] = relation["cardinality"] = 10**12
            for column in relation["columns"]:
                column["bytes"] = itemsize[column["encoding"]["dtype"]] * 10**12

        _rewrite(target / "catalog.json", lie)
        with pytest.raises(StorageFormatError, match="bytes, expected"):
            open_database(target, columnar=columnar)


# ----------------------------------------------------------------------
# Mutation fuzzing.
# ----------------------------------------------------------------------

_JUNK = [
    None, True, -1, 10**12, 1.5, "x", "", "../../../../etc/hostname",
    "/etc/hostname", [], {}, [[]], {"x": {}},
]


def _slots(document, prefix=()):
    """Every (path to a) slot of a JSON document."""
    items = (
        document.items() if isinstance(document, dict)
        else enumerate(document) if isinstance(document, list)
        else ()
    )
    for key, value in items:
        yield prefix + (key,)
        yield from _slots(value, prefix + (key,))


@st.composite
def mutated(draw, document):
    """``document`` with one slot dropped, replaced by junk of another type
    or range, or repeated (a list one item too long, a scalar turned list)."""
    path = draw(st.sampled_from(sorted(_slots(document), key=repr)))
    kind = draw(st.sampled_from(["drop", "junk", "repeat"]))
    result = copy.deepcopy(document)
    parent = result
    for step in path[:-1]:
        parent = parent[step]
    key = path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "junk":
        parent[key] = draw(st.sampled_from(_JUNK))
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = [parent[key], copy.deepcopy(parent[key])]
    return result


def _data(database: Database):
    """The stored data, label-free: each relation's sorted rows."""
    return sorted(
        sorted(map(repr, database.relation(name).rows))
        for name in database.relation_names()
    )


@pytest.fixture(scope="module")
def cache_with_entry(tmp_path_factory):
    """A workload cache holding one entry -- which is also a plain store."""
    root = tmp_path_factory.mktemp("decoders") / "cache"
    cached_database("fuzz", {"seed": 0}, _store_database, cache_dir=root)
    (entry,) = root.glob("fuzz-*")
    return root, entry.name


class TestStoreDocumentMutations:
    def _check(self, cache_with_entry, file_name, data):
        root, entry_name = cache_with_entry
        oracle = _data(_store_database())
        document = json.loads((root / entry_name / file_name).read_text())
        scratch = Path(tempfile.mkdtemp())
        try:
            cache = scratch / "cache"
            shutil.copytree(root, cache)
            store = cache / entry_name
            (store / file_name).write_text(json.dumps(data.draw(mutated(document))))

            report = verify_store(store, deep=True)  # reports, never raises
            assert report["ok"] is (not report["problems"])
            # Dictionary *values* are data: swapping one for another of its
            # type is a valid document, which only the content digest can
            # tell apart -- so there the promise is "or deep verify says so".
            trusted = file_name == "catalog.json" or report["ok"]
            opened = None
            for columnar in (True, False):
                try:
                    opened = open_database(store, columnar=columnar)
                except ReproError:
                    continue
                # Whatever opens holds the oracle's data, never other data.
                assert not trusted or all(rows in oracle for rows in _data(opened))
            if report["ok"]:
                assert opened is not None
            for entry_point in (storage_info, store_digest):
                try:
                    result = entry_point(store)
                except ReproError:
                    assert opened is None or file_name != "catalog.json"
                    continue
                if opened is not None and entry_point is storage_info:
                    assert result["total_rows"] == opened.total_tuples()
            # The cache opens the entry or regenerates it; either way the
            # caller gets the generator's data.
            served = cached_database(
                "fuzz", {"seed": 0}, _store_database, cache_dir=cache
            )
            assert not trusted or all(rows in oracle for rows in _data(served))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    @settings(max_examples=300, **FUZZ)
    @given(data=st.data())
    def test_mutated_catalog(self, cache_with_entry, data):
        self._check(cache_with_entry, "catalog.json", data)

    @settings(max_examples=60, **FUZZ)
    @given(data=st.data())
    def test_mutated_dictionary(self, cache_with_entry, data):
        self._check(cache_with_entry, "dictionary.json", data)


@pytest.fixture(scope="module")
def column_store(tmp_path_factory):
    """A saved store of :func:`_store_database` and the names of its column
    and selection files."""
    store = tmp_path_factory.mktemp("columns") / "store"
    _store_database().save(store)
    files = sorted(
        column.file
        for stored in load_catalog(store).relations
        for column in stored.files
    )
    return store, files


#: One query over every stored relation, ``rf``'s selection vector included.
_COLUMN_QUERY = build_query(
    [("r", ["A", "B"]), ("s", ["B"]), ("rf", ["A", "B"])],
    output_variables=["A", "B"],
    name="columns",
)


@st.composite
def mutated_bytes(draw, original: bytes):
    """``original`` with one bit flipped, cut short, or extended."""
    kind = draw(st.sampled_from(["flip", "truncate", "extend"]))
    if kind == "flip":
        index = draw(st.integers(0, len(original) - 1))
        flipped = bytearray(original)
        flipped[index] ^= 1 << draw(st.integers(0, 7))
        return bytes(flipped)
    if kind == "truncate":
        return original[: draw(st.integers(0, len(original) - 1))]
    return original + draw(st.binary(min_size=1, max_size=16))


class TestColumnFileMutations:
    """Column and selection files as raw bytes: flipped, truncated or
    extended.  The store opens or is refused with ``StorageFormatError``;
    a plan run on what opened raises nothing but a ``ReproError``; and a
    deep verify names the file whose bytes changed."""

    @settings(max_examples=120, **FUZZ)
    @given(data=st.data())
    def test_mutated_column_file(self, column_store, data):
        pristine, files = column_store
        victim = data.draw(st.sampled_from(files))
        original = (pristine / victim).read_bytes()
        mutated_file = data.draw(mutated_bytes(original))
        scratch = Path(tempfile.mkdtemp())
        try:
            store = scratch / "store"
            shutil.copytree(pristine, store)
            (store / victim).write_bytes(mutated_file)
            payload = _wire(
                _COLUMN_QUERY, {"kind": "join_order", "order": ["r", "s", "rf"]}
            )
            for columnar in (True, False):
                try:
                    database = open_database(store, columnar=columnar)
                except StorageFormatError:
                    continue
                try:
                    execute_payload(payload, database)
                except ReproError:
                    pass
            report = verify_store(store, deep=True)
            assert mutated_file != original
            assert not report["ok"]
            assert victim in {problem["file"] for problem in report["problems"]}
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


@pytest.fixture(scope="module")
def planned():
    """A query, its database, a structural wire payload and a warm plan
    cache (as entry documents by file name)."""
    query, database = _cycle(), _cycle_database()
    scratch = Path(tempfile.mkdtemp())
    try:
        compare_planners(
            query, database, k_values=(2,), plan_cache=PlanCache(scratch / "plans")
        )
        entries = {
            entry.name: json.loads(entry.read_text())
            for entry in (scratch / "plans").glob("plan-*.json")
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    assert len(entries) == 2  # the join order and the k=2 decomposition
    payload = plan_to_payload(cost_k_decomp(query, database.statistics, 2))
    return query, database, json.loads(json.dumps(payload)), entries


def _join_order_oracle(payload, database):
    """What ``payload``'s query answers by a left-deep join in atom order --
    a plan that shares nothing with the payload's own."""
    query = query_from_payload(payload["query"])
    plan = {"kind": "join_order", "order": [atom.name for atom in query.atoms]}
    return execute_payload(dict(payload, plan=plan), database)


def _answer(response):
    return response["status"], sorted(map(repr, response.get("rows", ())))


#: The wire payload's knob fields: execution (``budget``, ``threads``,
#: ``memory_budget_bytes``), pool scheduling (``deadline_seconds``,
#: ``max_attempts``) and the ``answer`` / ``trace`` modes.
_KNOBS = (
    "budget", "threads", "memory_budget_bytes", "deadline_seconds",
    "max_attempts", "answer", "trace",
)
_KNOB_VALUES = st.sampled_from(
    _JUNK + [0, 2, 64, 2_048, 10**400, float("nan"), float("inf"), "digest",
             {"id": "t"}]
) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def _knob_oracle(payload, database):
    """What a payload whose knobs were accepted must be answered: the same
    plan at the same work budget, memory budget and answer mode, run at
    ``threads=1``, untraced, with no scheduling knobs."""
    clean = {key: value for key, value in payload.items() if key not in _KNOBS}
    for knob in ("budget", "memory_budget_bytes", "answer"):
        if knob in payload:
            clean[knob] = payload[knob]
    return execute_payload(dict(clean, threads=1), database)


class TestPlanDocumentMutations:
    @settings(max_examples=100, **FUZZ)
    @given(data=st.data())
    def test_mutated_plan_cache_entry_never_raises(self, planned, data):
        query, database, _, entries = planned
        oracle = execute_plan(
            baseline_plan(query, database.statistics).to_ir(), database
        )
        victim = data.draw(st.sampled_from(sorted(entries)))
        scratch = Path(tempfile.mkdtemp())
        try:
            for name, document in entries.items():
                if name == victim:
                    document = data.draw(mutated(document))
                (scratch / name).write_text(json.dumps(document))
            cache = PlanCache(scratch)
            report = compare_planners(
                query, database, k_values=(2,), plan_cache=cache, check_answers=False
            )
            assert report.baseline.answer_cardinality == oracle.cardinality
            assert report.structural[2].answer_cardinality == oracle.cardinality
            # Replayed or replanned-and-overwritten: the cache is warm now.
            again = compare_planners(query, database, k_values=(2,), plan_cache=cache)
            assert again.baseline.planning_seconds == 0.0
            assert again.structural[2].planning_seconds == 0.0
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    @settings(max_examples=225, **FUZZ)
    @given(data=st.data(), block=st.sampled_from(["plan", "query", "knobs"]))
    def test_mutated_wire_block(self, planned, data, block):
        query, database, payload, _ = planned
        if block == "knobs":
            knobs = st.dictionaries(st.sampled_from(_KNOBS), _KNOB_VALUES)
            payload = dict(payload, **data.draw(knobs))
        else:
            payload = dict(payload, **{block: data.draw(mutated(payload[block]))})
        try:
            plan_ir_from_payload(query, payload["plan"])
        except ReproError:
            pass
        try:
            response = execute_payload(payload, database)
        except ReproError:
            return
        if block != "knobs":
            oracle = _join_order_oracle(payload, database)
            assert _answer(response) == _answer(oracle)
            return
        response, oracle = strip_provenance(response), _knob_oracle(payload, database)
        if (
            response["status"] == "budget_exceeded"
            and (payload.get("threads") or 1) > 1
        ):
            # Whether a run exceeds its budget is scheduling-independent;
            # the work counted when it raised is not.
            del response["work_so_far"], oracle["work_so_far"]
        assert response == oracle


# ----------------------------------------------------------------------
# Fault plans (``ServingPool(fault_plan=)`` / ``REPRO_SERVE_FAULTS``).
# ----------------------------------------------------------------------

#: A valid plan: one worker rule and one connection rule.
_FAULT_PLAN = [
    {"kind": "worker_exit", "request_index": 1, "worker_id": 0, "exit_code": 7},
    {
        "kind": "stalled_reader", "request_id": 2, "connection_id": 1,
        "seconds": 0.25, "attempt": None, "times": 2,
    },
]


class TestFaultPlanDecoder:
    @pytest.mark.parametrize(
        "rule",
        [
            {"kind": "delay", "seconds": -1},
            {"kind": "delay", "seconds": float("nan")},
            {"kind": "delay", "seconds": float("inf")},
            {"kind": "delay", "seconds": 10**400},
            {"kind": "worker_exit", "exit_code": 10**30},
            {"kind": "worker_exit", "exit_code": 256},
        ],
    )
    def test_refused_at_load(self, rule, monkeypatch):
        """Each used to load: the delay then raised inside the worker (a
        per-request ``"error"``), exit code 256 exited 0 and 10**30 raised
        ``OverflowError`` instead of ending the worker."""
        with pytest.raises(DatabaseError):
            FaultPlan.from_payload([rule])
        monkeypatch.setenv(FAULTS_ENV, json.dumps([rule]))
        with pytest.raises(DatabaseError):
            FaultPlan.from_env()

    @settings(max_examples=200, **FUZZ)
    @given(data=st.data())
    def test_mutated_fault_plan(self, data):
        try:
            plan = FaultPlan.from_payload(data.draw(mutated(_FAULT_PLAN)))
        except DatabaseError:
            return
        payload = plan.to_payload()
        assert FaultPlan.from_payload(payload).to_payload() == payload


# ----------------------------------------------------------------------
# The daemon's frame decoder.
# ----------------------------------------------------------------------

_FRAME_LIMIT = 256


def _frame(**fields) -> dict:
    return {"format": DAEMON_FORMAT, "version": DAEMON_VERSION, **fields}


def _one_shot(stream: bytes):
    """Reference decode of a whole byte string, sharing only
    ``decode_frame`` with the decoder under test: the complete frames
    before the first defect, the offset each ends at, and whether there
    was a defect."""
    frames, ends, offset = [], [], 0
    while len(stream) - offset >= 4:
        (length,) = struct.unpack_from(">I", stream, offset)
        if length == 0 or length > _FRAME_LIMIT:
            return frames, ends, True
        if len(stream) - offset - 4 < length:
            break
        try:
            frames.append(decode_frame(stream[offset + 4 : offset + 4 + length]))
        except DaemonProtocolError:
            return frames, ends, True
        offset += 4 + length
        ends.append(offset)
    return frames, ends, False


@st.composite
def frame_streams(draw):
    """Up to four frames, each with an honest or mutated header over a
    valid or mutated body, possibly cut short."""
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        body = draw(
            st.builds(
                lambda frame_id: encode_frame(_frame(id=frame_id, kind="health"))[4:],
                st.integers() | st.text(max_size=20),
            )
            | st.binary(min_size=1, max_size=40)
            | st.sampled_from(
                [b"[1]", b'{"format": "other", "version": 1}', b'{"version": 1}']
            )
        )
        declared = draw(
            st.just(len(body))
            | st.integers(0, len(body) + 2)
            | st.integers(_FRAME_LIMIT + 1, 2**32 - 1)
        )
        parts.append(struct.pack(">I", declared) + body)
    stream = b"".join(parts)
    cut = draw(st.none() | st.integers(0, len(stream)))
    return stream if cut is None else stream[:cut]


class TestFrameDecoder:
    @settings(max_examples=300, **FUZZ)
    @given(stream=st.binary(max_size=120) | frame_streams(), data=st.data())
    def test_any_chunking_decodes_like_one_shot(self, stream, data):
        expected, ends, defect = _one_shot(stream)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=8)))
        decoder = FrameDecoder(_FRAME_LIMIT)
        frames, refused = [], False
        for start, end in zip([0] + cuts, cuts + [len(stream)]):
            decoder.feed(stream[start:end])
            try:
                while (frame := decoder.next_frame()) is not None:
                    frames.append(frame)
            except DaemonProtocolError:  # anything else fails the test
                refused = True
                break
            # The buffer is the bytes fed minus the frames handed out.
            assert decoder.buffered == end - (ends[len(frames) - 1] if frames else 0)
        assert (frames, refused) == (expected, defect)

    @pytest.mark.parametrize("declared", [0, _FRAME_LIMIT + 1, 2**32 - 1])
    def test_a_bad_header_is_refused_on_its_fourth_byte(self, declared):
        decoder = FrameDecoder(_FRAME_LIMIT)
        decoder.feed(encode_frame(_frame(id=1, kind="health")))
        assert decoder.next_frame()["id"] == 1
        header = struct.pack(">I", declared)
        decoder.feed(header[:3])
        assert decoder.next_frame() is None
        decoder.feed(header[3:])
        with pytest.raises(DaemonProtocolError, match="not a daemon frame"):
            decoder.next_frame()
        assert decoder.buffered == 4  # nothing was sized by the declared length

    def test_a_large_frame_decodes_in_linear_time(self):
        """48 MiB in 64 KiB chunks: appending each chunk to an immutable
        ``bytes`` buffer made this quadratic (8 s)."""
        wire = encode_frame(_frame(id=7, kind="execute", pad="a" * (48 << 20)))
        decoder = FrameDecoder()
        started = time.monotonic()
        for offset in range(0, len(wire), 1 << 16):
            decoder.feed(wire[offset : offset + (1 << 16)])
            frame = decoder.next_frame()
        assert time.monotonic() - started < 3.0
        assert frame["id"] == 7 and len(frame["pad"]) == 48 << 20
        assert decoder.buffered == 0
