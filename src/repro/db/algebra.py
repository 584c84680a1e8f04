"""Relational algebra over variable-named relations, with work accounting.

The operators here are the ones the paper's query plans are made of:

* natural join ``⋈`` (hash join on the shared variables),
* semijoin ``⋉`` (the workhorse of Yannakakis' algorithm),
* projection ``Π`` and selection ``σ``.

Every operator can be handed an :class:`OperatorStats` accumulator which
counts the tuples read and produced.  The experiments use those counters as a
hardware-independent proxy for evaluation time ("evaluation work"), which is
what lets the Fig. 8 comparisons be reproduced deterministically.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

try:  # The columnar kernels need numpy; degrade to the row engine without it.
    from repro.db.columnar import (
        ColumnarRelation,
        columnar_natural_join,
        columnar_project,
        columnar_select,
        columnar_semijoin,
    )
except ImportError:  # pragma: no cover - exercised only without numpy
    ColumnarRelation = None  # type: ignore[assignment]
from repro.db.relation import Relation, Row
from repro.exceptions import DatabaseError


def _columnar_pair(left: Relation, right: Relation) -> bool:
    """True when both operands are columnar over the *same* dictionary, so
    the int-kernel fast path is applicable (ids are directly comparable)."""
    return (
        ColumnarRelation is not None
        and isinstance(left, ColumnarRelation)
        and isinstance(right, ColumnarRelation)
        and left.dictionary is right.dictionary
    )


class EvaluationBudgetExceeded(DatabaseError):
    """Raised when an execution exceeds its work budget (a query timeout).

    The paper's baseline comparisons occasionally hit plans whose
    intermediate results are orders of magnitude larger than the structural
    plan's; a budget keeps experiments and tests bounded and lets the
    comparison report "at least this much work" instead of hanging.
    """

    def __init__(self, work_so_far: int, budget: int) -> None:
        self.work_so_far = work_so_far
        self.budget = budget
        super().__init__(
            f"evaluation exceeded its work budget ({work_so_far:,} tuples "
            f"processed, budget {budget:,})"
        )


@dataclass
class OperatorStats:
    """Counters of the work done by relational operators -- the one record
    of an execution that every kernel receives.

    ``tuples_read`` counts every input tuple scanned, ``tuples_emitted``
    every output tuple produced, and ``intermediate_tuples`` the sizes of all
    intermediate results (output of every join/semijoin/projection), which is
    the classical cost proxy for join processing.  ``operations`` counts
    operator invocations by kind.

    It carries the execution's two limits.  A non-``None`` ``budget`` (work,
    in tuples read + emitted) turns the accumulator into a watchdog:
    exceeding it raises :class:`EvaluationBudgetExceeded`.  A positive
    ``memory_budget_bytes`` sizes the columnar join's emit chunks, its one
    output-sized phase (see :mod:`repro.db.columnar`; the row engine
    ignores it; without one the chunks default to 64 MiB), without
    changing any result or counter but the peak-memory diagnostics; it is a
    setting, not a count, so :meth:`snapshot`, :meth:`merge` and equality
    ignore it.  ``stats=None`` at a kernel means no work budget and the
    default emit chunks.

    The accumulator is **thread-safe**: the parallel executor shares one
    instance across all subtree tasks and every counter update commutes
    (sums, per-key sums, a max), so the final numbers are deterministic and
    identical to the serial run no matter how tasks interleave.  The budget
    watchdog keeps its guarantee too: because counters only grow and each
    operator pre-checks the work it is about to add, an execution raises
    :class:`EvaluationBudgetExceeded` (in *some* task) exactly when the
    completed run's total would exceed the budget -- only ``work_so_far`` at
    raise time depends on scheduling.

    ``peak_transient_elements`` is the memory-bounding diagnostic: the
    largest batch of transient index elements any single columnar kernel
    invocation materialised (see the accounting constants in
    :mod:`repro.db.columnar`).  It counts *elements*, never bytes, so it is
    identical between packed and int64 columns; its byte-level
    sibling ``peak_transient_bytes`` additionally weighs each batch by the
    actual dtypes involved (key arrays included) and is the only counter
    allowed to differ across encodings.  Both are deliberately *not* part
    of :meth:`snapshot` -- work counters stay representation-blind, peak
    memory is exactly what the chunked kernels are allowed to change.
    """

    tuples_read: int = 0
    tuples_emitted: int = 0
    intermediate_tuples: int = 0
    operations: Dict[str, int] = field(default_factory=dict)
    budget: Optional[int] = None
    peak_transient_elements: int = 0
    peak_transient_bytes: int = field(default=0, compare=False)
    memory_budget_bytes: Optional[int] = field(default=None, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, operator: str, read: int, emitted: int) -> None:
        with self._lock:
            self.tuples_read += read
            self.tuples_emitted += emitted
            self.intermediate_tuples += emitted
            self.operations[operator] = self.operations.get(operator, 0) + 1
            if self.budget is not None and self.total_work > self.budget:
                raise EvaluationBudgetExceeded(self.total_work, self.budget)

    def check(self, extra: int) -> None:
        """Raise if the work done so far plus ``extra`` pending tuples would
        exceed the budget (lets long-running operators abort mid-flight)."""
        if self.budget is None:
            return
        with self._lock:
            if self.total_work + extra > self.budget:
                raise EvaluationBudgetExceeded(self.total_work + extra, self.budget)

    def note_transient(self, elements: int, nbytes: Optional[int] = None) -> None:
        """Record the transient index footprint of one kernel batch
        (columnar kernels only; maxes, so merging and threading commute).

        ``elements`` is the dtype-blind count; ``nbytes`` the dtype-aware
        byte weight (defaulting to 8 bytes per element, the raw-int64
        equivalent)."""
        if nbytes is None:
            nbytes = 8 * elements
        if (
            elements > self.peak_transient_elements
            or nbytes > self.peak_transient_bytes
        ):
            with self._lock:
                if elements > self.peak_transient_elements:
                    self.peak_transient_elements = elements
                if nbytes > self.peak_transient_bytes:
                    self.peak_transient_bytes = nbytes

    @property
    def total_work(self) -> int:
        """The single-number work measure used in the experiments."""
        return self.tuples_read + self.tuples_emitted

    def merge(self, other: "OperatorStats") -> None:
        self.tuples_read += other.tuples_read
        self.tuples_emitted += other.tuples_emitted
        self.intermediate_tuples += other.intermediate_tuples
        for key, value in other.operations.items():
            self.operations[key] = self.operations.get(key, 0) + value
        if other.peak_transient_elements > self.peak_transient_elements:
            self.peak_transient_elements = other.peak_transient_elements
        if other.peak_transient_bytes > self.peak_transient_bytes:
            self.peak_transient_bytes = other.peak_transient_bytes

    def snapshot(self) -> Dict[str, int]:
        return {
            "tuples_read": self.tuples_read,
            "tuples_emitted": self.tuples_emitted,
            "intermediate_tuples": self.intermediate_tuples,
            "total_work": self.total_work,
        }


def _shared_attributes(left: Relation, right: Relation) -> Tuple[str, ...]:
    return tuple(a for a in left.attributes if a in right.attributes)


def natural_join(
    left: Relation,
    right: Relation,
    stats: Optional[OperatorStats] = None,
    name: Optional[str] = None,
    keep=None,
) -> Relation:
    """Hash-based natural join on all shared attributes.

    If the relations share no attribute the result is the Cartesian product,
    as usual.  Columnar operands over a shared dictionary take the
    int-kernel fast path of :mod:`repro.db.columnar`.

    ``keep`` is the kernel-level projection pushdown (see
    :func:`repro.db.columnar.columnar_natural_join`): the columnar kernel
    gathers only those output columns.  The row-based reference engine
    ignores it -- its materialisation is per-tuple anyway -- which is safe
    because ``keep`` never changes join semantics, cardinalities or stats,
    only which columns the columnar result carries.
    """
    if _columnar_pair(left, right):
        return columnar_natural_join(left, right, stats=stats, name=name, keep=keep)
    shared = _shared_attributes(left, right)
    right_extra = [a for a in right.attributes if a not in shared]
    out_attributes = left.attributes + tuple(right_extra)
    right_positions = [right.position(a) for a in right_extra]
    reads = left.cardinality + right.cardinality
    if stats is not None:
        stats.check(reads)

    # Build on the smaller side for the usual hash-join asymmetry.
    build, probe, build_is_left = (
        (left, right, True) if left.cardinality <= right.cardinality else (right, left, False)
    )
    build_index = build.index_on(shared)
    probe_positions = [probe.position(a) for a in shared]

    rows: List[Row] = []
    check_every = 65536
    for probe_row in probe.rows:
        key = tuple(probe_row[p] for p in probe_positions)
        for build_row in build_index.get(key, ()):
            left_row, right_row = (
                (build_row, probe_row) if build_is_left else (probe_row, build_row)
            )
            extra = tuple(right_row[p] for p in right_positions)
            rows.append(tuple(left_row) + extra)
        if stats is not None and len(rows) >= check_every:
            # Mid-operator check between probe batches; ``extra`` is what
            # record() would add if the join stopped right here, so a
            # runaway join aborts within one batch of the budget.
            stats.check(reads + len(rows))
            check_every += 65536

    result = Relation(name or f"({left.name}⋈{right.name})", out_attributes, rows)
    if stats is not None:
        stats.record("join", reads, result.cardinality)
    return result


def join_all(
    relations: Sequence[Relation],
    stats: Optional[OperatorStats] = None,
    order: Optional[Sequence[int]] = None,
    needed: Optional[Iterable[str]] = None,
) -> Relation:
    """Join a list of relations left-to-right (optionally in a given order).

    ``needed`` names the attributes the caller still requires *after* the
    whole join (e.g. a downstream χ projection).  Each intermediate join
    then keeps only ``needed`` plus every attribute of a not-yet-joined
    relation -- attributes a later join still matches on are never dropped,
    so the join results (and all stats) are unchanged; only the columnar
    kernels skip materialising columns the final projection would discard.
    """
    if not relations:
        raise DatabaseError("cannot join an empty list of relations")
    sequence = list(relations) if order is None else [relations[i] for i in order]
    result = sequence[0]
    if stats is not None and len(sequence) == 1:
        stats.record("scan", result.cardinality, result.cardinality)
    if needed is None:
        for relation in sequence[1:]:
            result = natural_join(result, relation, stats=stats)
        return result
    # suffix_attrs[i]: attributes of sequence[i+1:], i.e. what later joins
    # may still match on after step i.
    suffix_attrs: List[frozenset] = [frozenset()] * len(sequence)
    running: frozenset = frozenset()
    for index in range(len(sequence) - 1, -1, -1):
        suffix_attrs[index] = running
        running = running | frozenset(sequence[index].attributes)
    needed_set = frozenset(needed)
    for index, relation in enumerate(sequence[1:], start=1):
        result = natural_join(
            result, relation, stats=stats, keep=needed_set | suffix_attrs[index]
        )
    return result


def semijoin(
    left: Relation,
    right: Relation,
    stats: Optional[OperatorStats] = None,
) -> Relation:
    """``left ⋉ right``: the rows of ``left`` that join with some row of
    ``right`` (on the shared attributes)."""
    if _columnar_pair(left, right):
        return columnar_semijoin(left, right, stats=stats)
    if stats is not None:
        stats.check(left.cardinality + right.cardinality)
    shared = _shared_attributes(left, right)
    if not shared:
        # With no shared attribute the semijoin keeps everything iff the right
        # side is non-empty.
        rows = left.rows if right.cardinality else ()
        result = left.with_rows(rows, name=left.name)
        if stats is not None:
            stats.record("semijoin", left.cardinality + right.cardinality, result.cardinality)
        return result
    right_keys = set(right.index_on(shared).keys())
    left_positions = [left.position(a) for a in shared]
    rows = [
        row for row in left.rows if tuple(row[p] for p in left_positions) in right_keys
    ]
    result = left.with_rows(rows, name=left.name)
    if stats is not None:
        stats.record("semijoin", left.cardinality + right.cardinality, result.cardinality)
    return result


def project(
    relation: Relation,
    attributes: Sequence[str],
    stats: Optional[OperatorStats] = None,
    name: Optional[str] = None,
    distinct: bool = True,
) -> Relation:
    """``Π_attributes(relation)``.

    ``distinct=True`` (default) gives the set-algebra projection used by the
    paper's per-node expressions ``E(p)``; ``distinct=False`` is the
    SQL-style projection that keeps duplicates (used by the baseline plan's
    final output before the explicit answer comparison).
    """
    if ColumnarRelation is not None and isinstance(relation, ColumnarRelation):
        return columnar_project(
            relation, attributes, stats=stats, name=name, distinct=distinct
        )
    wanted = [a for a in attributes if a in relation.attributes]
    positions = [relation.position(a) for a in wanted]
    projected = (tuple(row[p] for p in positions) for row in relation.rows)
    if distinct:
        rows = list(dict.fromkeys(projected))
    else:
        rows = list(projected)
    result = Relation(name or relation.name, wanted, rows)
    if stats is not None:
        stats.record("project", relation.cardinality, result.cardinality)
    return result


def select(
    relation: Relation,
    predicate: Callable[[Dict[str, object]], bool],
    stats: Optional[OperatorStats] = None,
) -> Relation:
    """``σ_predicate(relation)`` where the predicate sees a dict
    ``attribute -> value``."""
    if ColumnarRelation is not None and isinstance(relation, ColumnarRelation):
        return columnar_select(relation, predicate, stats=stats)
    rows = []
    for row in relation.rows:
        binding = dict(zip(relation.attributes, row))
        if predicate(binding):
            rows.append(row)
    result = relation.with_rows(rows)
    if stats is not None:
        stats.record("select", relation.cardinality, result.cardinality)
    return result


def cartesian_product(
    left: Relation, right: Relation, stats: Optional[OperatorStats] = None
) -> Relation:
    """Explicit Cartesian product (only valid when no attribute is shared)."""
    if _shared_attributes(left, right):
        raise DatabaseError("cartesian_product requires disjoint attribute sets")
    return natural_join(left, right, stats=stats)
