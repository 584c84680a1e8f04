"""Clock, span recorder, sample statistics and process accounting shared by
the workloads.  Nothing here calls into the program under test."""

from __future__ import annotations

import os
import random
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

now = time.perf_counter

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class Spans:
    """The benchmark's own span recorder: one row per timed call into a
    public function of the program -- name, start, end, the span that
    caused it and the op it belongs to.  Rows stay in memory; ``run.py``
    writes them out when the benchmark ends."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, object]] = []

    @contextmanager
    def span(self, name: str, op=None, parent=None):
        """Time the body; yields the span's id so callees can name it as
        their parent."""
        row = {"id": len(self.rows), "name": name, "start": 0.0, "end": 0.0,
               "parent": parent, "op": op}
        self.rows.append(row)
        row["start"] = now()
        try:
            yield row["id"]
        finally:
            row["end"] = now()

    def ms(self, name: str) -> List[float]:
        return [
            (row["end"] - row["start"]) * 1e3
            for row in self.rows
            if row["name"] == name
        ]

    def p50(self, name: str) -> float:
        return percentile(self.ms(name), 50)

    def by_op(self, whole: str) -> List[Dict[str, float]]:
        """One ``{span name: ms}`` dict per op whose whole-call span is named
        ``whole``; a span recorded without an op is an op of its own."""
        ops: Dict[int, Dict[str, float]] = {}
        for row in self.rows:
            op = row["id"] if row["op"] is None else row["op"]
            ops.setdefault(op, {})[row["name"]] = (row["end"] - row["start"]) * 1e3
        return [stages for stages in ops.values() if whole in stages]


@dataclass
class Ctx:
    """What a workload's set-up may depend on: the seed, a scratch directory
    of its own, and whether the program's own tracing is switched on."""

    seed: int
    scratch: Path
    traced: bool = False
    spans: Spans = field(default_factory=Spans)

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{purpose}:{self.seed}")


@dataclass
class Run:
    """The timed part of one workload run."""

    latencies_s: List[float]  # one per op that completed and matched the oracle
    attempted: int
    failed: int  # errors, refusals and timeouts
    mismatches: int  # completed but differed from the oracle
    wall_s: float
    cpu_s: float = 0.0  # user+sys of the bench process and the program's own

    @property
    def ok(self) -> int:
        return self.attempted - self.failed - self.mismatches


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def closed_loop(
    mix: Sequence,
    seconds: float,
    rng: random.Random,
    op: Callable,
    check: Optional[Callable] = None,
) -> Tuple[List[Tuple[object, float, float, object]], float]:
    """One client that sends its next op when the previous one completed.

    Runs whole seeded-shuffled passes of ``mix`` until ``seconds`` have
    passed, so every run measures the same blend of cases whatever the
    machine's speed.  Returns ``(case, start, end, out)`` rows and the
    wall-clock of the loop; ``out`` is ``op(case)``, or ``check(case,
    op(case))`` when the output is too big to keep -- ``check`` runs after the
    op's end time is taken."""
    rows = []
    started = now()
    while now() - started < seconds:
        order = list(mix)
        rng.shuffle(order)
        for case in order:
            t0 = now()
            out = op(case)
            t1 = now()
            rows.append((case, t0, t1, out if check is None else check(case, out)))
    return rows, now() - started


def end_to_end(run: Run, setup_seconds: Iterable[float]) -> Dict[str, Dict[str, object]]:
    """The six end-to-end metrics of one untraced run."""
    latencies_ms = [s * 1e3 for s in run.latencies_s]
    return {
        "setup_s": metric(statistics.median(setup_seconds), "s"),
        "latency_p50_ms": metric(percentile(latencies_ms, 50), "ms"),
        "latency_p95_ms": metric(percentile(latencies_ms, 95), "ms"),
        "throughput_ops_s": metric(run.ok / run.wall_s, "ops/s"),
        "ok_share": metric(run.ok / run.attempted, "ratio"),
        "peak_rss_mb": metric(peak_rss_mib(), "MiB"),
    }


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def peak_rss_mib() -> float:
    """Largest resident set of the bench process or any child it reaped
    (the daemon subprocess and, through it, the pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def cpu_seconds(pids: Iterable[int] = ()) -> float:
    """User+sys CPU consumed so far by this process plus the live ``pids``
    (read from ``/proc/<pid>/stat``; a pid that has exited adds nothing)."""
    total = time.process_time()
    for pid in pids:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()  # after "(comm)"
        total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return total


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())
