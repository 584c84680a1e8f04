#!/usr/bin/env python3
"""The repository's benchmark: four workloads, six end-to-end metrics, one
per-layer table.

    python3 bench/run.py                      every workload, untraced then traced
    python3 bench/run.py --workload serve_rows --seed 7 --seconds 26 --trace 0
    python3 bench/run.py --check-repeat       two sets of ten runs on the same code

The last line of standard output of a single run (``--workload`` with
``--trace``) is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Any oracle mismatch makes the exit code 1.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

# The program's own environment switches (cache directories, fault scripts,
# forced tracing) must not leak from the calling shell into a run.
for _name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_name]

import numpy  # noqa: E402  (the columnar engine under test needs it)

from bench import exec_replay, inputs, plan_cold, serve  # noqa: E402
from bench.harness import Ctx, Run, end_to_end, metric, now, percentile  # noqa: E402

SETUP_REPEATS = 3  # setup_s is the median of this many full set-ups
CHECK_REPEATS = 10  # --check-repeat: untraced runs per set, one seed each
# A traced run spends --seconds on: the named workload untraced, the named
# workload traced, and each of the other three traced.
UNTRACED_SHARE, TRACED_SHARE, OTHER_SHARE = 0.2, 0.25, 0.1
#: Per-layer metrics in these units are exact: two runs of the same code and
#: seed must report equal values -- except the few that count what happened
#: to fall into the timed window.
EXACT_UNITS = ("count", "bytes")
TIMING_DEPENDENT_COUNTS = ("daemon.refreshes", "daemon.refresh_overlap_ops")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable
    prepare_oracle: Callable
    run: Callable
    trace: Callable
    teardown: Callable
    #: whether the traced slice needs a set-up of its own (a daemon started
    #: with --trace-out) or can reuse the untraced one
    traced_setup: bool


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(plan_cold.NAME, plan_cold.WHY, plan_cold.setup, plan_cold.prepare_oracle,
                 plan_cold.run, plan_cold.trace, plan_cold.teardown, False),
        Workload(exec_replay.NAME, exec_replay.WHY, exec_replay.setup,
                 exec_replay.prepare_oracle, exec_replay.run, exec_replay.trace,
                 exec_replay.teardown, False),
        Workload(serve.ROWS_NAME, serve.ROWS_WHY, serve.setup_rows, serve.prepare_oracle,
                 serve.run_rows, serve.trace_rows, serve.teardown, True),
        Workload(serve.OPEN_NAME, serve.OPEN_WHY, serve.setup_open, serve.prepare_oracle,
                 serve.run_open, serve.trace_open, serve.teardown, True),
    )
}


# ----------------------------------------------------------------------
# One run.
# ----------------------------------------------------------------------


@dataclass
class Result:
    workload: str
    seed: int
    traced: bool
    attempted: int
    failed: int
    mismatches: int
    metrics: Dict[str, Dict[str, object]]
    latency_samples: int

    def line(self) -> Dict[str, object]:
        """The result object the benchmark contract asks for."""
        return {
            "correct": self.mismatches == 0,
            "attempted": self.attempted,
            "failed": self.failed + self.mismatches,
            "metrics": self.metrics,
        }


def _ready(workload: Workload, ctx: Ctx) -> Tuple[object, float]:
    """One full set-up; returns the state and its wall time."""
    started = now()
    state = workload.setup(ctx)
    return state, now() - started


def _ctx(seed: int, scratch: Path, traced: bool = False) -> Ctx:
    return Ctx(seed, Path(tempfile.mkdtemp(dir=scratch)), traced)


def measure(workload: Workload, seed: int, seconds: float, scratch: Path) -> Result:
    """An untraced run: the end-to-end metrics."""
    setup_seconds = []
    for repeat in range(SETUP_REPEATS):
        ctx = _ctx(seed, scratch)
        state, elapsed = _ready(workload, ctx)
        setup_seconds.append(elapsed)
        if repeat < SETUP_REPEATS - 1:
            workload.teardown(state)
    try:
        workload.prepare_oracle(state, ctx)
        run = workload.run(state, seconds, ctx)
    finally:
        workload.teardown(state)  # reaps children: their peak memory counts
    return Result(
        workload.name, seed, False, run.attempted, run.failed, run.mismatches,
        end_to_end(run, setup_seconds), len(run.latencies_s),
    )


def profile(
    named: Workload, seed: int, seconds: float, scratch: Path, spans_out: List[dict],
    others: bool,
) -> Result:
    """A traced run.  The named workload runs untraced and traced (the ratio
    of the two medians is the price of tracing).  With ``others`` the other
    three run traced for a shorter slice, so that a single run reports the
    whole per-layer table whichever workload is named."""
    layers: Dict[str, Dict[str, object]] = {}
    runs: List[Run] = []
    rest = [w for w in WORKLOADS.values() if w is not named] if others else []
    for workload in [named] + rest:
        state = untraced = None
        try:
            if workload is named:
                ctx = _ctx(seed, scratch)
                state, _ = _ready(workload, ctx)
                workload.prepare_oracle(state, ctx)
                untraced = workload.run(state, seconds * UNTRACED_SHARE, ctx)
                runs.append(untraced)
            if state is None or workload.traced_setup:
                if state is not None:
                    workload.teardown(state)
                ctx = _ctx(seed, scratch, traced=True)
                state, _ = _ready(workload, ctx)
                workload.prepare_oracle(state, ctx)
            share = TRACED_SHARE if workload is named else OTHER_SHARE
            traced, found = workload.trace(state, seconds * share, ctx)
            runs.append(traced)
        finally:
            if state is not None:
                workload.teardown(state)
        layers.update(found)
        spans_out += [dict(row, workload=workload.name) for row in ctx.spans.rows]
        if workload is named:
            layers["obs.trace_overhead_share"] = metric(
                percentile(traced.latencies_s, 50) / percentile(untraced.latencies_s, 50) - 1,
                "ratio",
            )
            layers["bench.cpu_ms_per_op"] = metric(
                untraced.cpu_s / untraced.attempted * 1e3, "ms"
            )
    return Result(
        named.name, seed, True,
        sum(run.attempted for run in runs), sum(run.failed for run in runs),
        sum(run.mismatches for run in runs),
        dict(sorted(layers.items())), len(runs[1].latencies_s),
    )


# ----------------------------------------------------------------------
# Reporting.
# ----------------------------------------------------------------------


def run_block(seed: int, seconds: float) -> Dict[str, object]:
    """Where and how the numbers were taken: rows from different machines or
    different constants must never be compared."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
        "seconds": seconds,
        "constants": {
            "setup_repeats": SETUP_REPEATS,
            "check_repeats": CHECK_REPEATS,
            "traced_shares": [UNTRACED_SHARE, TRACED_SHARE, OTHER_SHARE],
            "data_seed": inputs.DATA_SEED,
            "plan_cold_pass": {c.name: c.weight for c in inputs.plan_cases()},
            "exec_replay_pass": {c.name: c.weight for c in inputs.EXEC_CASES},
            "rows_sizes_tuples": inputs.ROWS_SIZES,
            "small_request_tuples": inputs.SMALL_TUPLES,
            "clients": serve.CLIENTS,
            "workers": serve.WORKERS,
            "serve_open_rate_rps": serve.OPEN_RATE_RPS,
            "serve_open_block": list(serve.OPEN_BLOCK),
            "serve_open_slo_ms": serve.SLO_MS,
            "refresh_seconds": serve.REFRESH_SECONDS,
            "probe_repeats": serve.PROBE_REPEATS,
        },
    }


def print_result(result: Result) -> None:
    kind = "per-layer (traced)" if result.traced else "end-to-end (untraced)"
    print(
        f"\n== {result.workload}  seed {result.seed}  {kind}: "
        f"{result.attempted} ops, {result.failed} failed, "
        f"{result.mismatches} oracle mismatches, "
        f"{result.latency_samples} latency samples"
    )
    width = max(len(name) for name in result.metrics)
    for name, entry in result.metrics.items():
        print(f"  {name:<{width}}  {entry['value']:>16.6f}  {entry['unit']}")


def load_contract() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# --check-repeat.
# ----------------------------------------------------------------------


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def _fresh_run(name: str, seed: int, seconds: float, trace: int) -> Dict[str, object]:
    """One run in a process of its own, as the driver makes them (peak memory
    is a per-process high-water mark); prints its table, returns its result
    line."""
    finished = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    if finished.returncode != 0:
        raise RuntimeError(
            f"{name} seed {seed} trace {trace} exited {finished.returncode}:\n"
            f"{finished.stdout[-2000:]}\n{finished.stderr[-2000:]}"
        )
    *table, line = finished.stdout.splitlines()
    print("\n".join(table[1:]))  # all but the child's own run block
    return json.loads(line)


def check_repeat(
    names: List[str], seed: int, seconds: float, report: Dict[str, object]
) -> bool:
    """Two sets of ``CHECK_REPEATS`` untraced runs (seeds ``seed``, ``seed+1``,
    ...) plus one traced run, per workload, on the same code.  A metric holds when
    the second set's median is not worse than the first's by more than its
    bound and each set's spread stays inside the bound (``setup_s``: the
    medians only); the exact counts of the two traced runs must be equal.
    Fills ``report`` workload by workload, so an interrupted check keeps what
    it measured."""
    contract = load_contract()["end_to_end"]
    all_held = True
    for name in names:
        sets: List[List[Dict[str, object]]] = []
        counts: List[Dict[str, object]] = []
        for which in range(2):
            sets.append(
                [_fresh_run(name, seed + i, seconds, 0) for i in range(CHECK_REPEATS)]
            )
            traced = _fresh_run(name, seed, seconds, 1)
            counts.append(
                {k: v["value"] for k, v in traced["metrics"].items()
                 if v["unit"] in EXACT_UNITS and k not in TIMING_DEPENDENT_COUNTS}
            )
            print(f"{name}: set {which + 1} of 2 done", file=sys.stderr)
        rows = {}
        for rule in contract:
            first, second = (
                [line["metrics"][rule["name"]]["value"] for line in lines]
                for lines in sets
            )
            medians = [statistics.median(first), statistics.median(second)]
            worse = medians[1] - medians[0]
            if rule["better"] == "higher":
                worse = -worse
            spreads = [spread(first), spread(second)]
            held = worse / medians[0] <= rule["bound"] and (
                rule["name"] == "setup_s" or all(s <= rule["bound"] for s in spreads)
            )
            rows[rule["name"]] = {
                "unit": rule["unit"], "bound": rule["bound"], "medians": medians,
                "gap": worse / medians[0], "spreads": spreads, "held": held,
                "values": [first, second],
            }
            all_held = all_held and held
            print(
                f"  {name:<12} {rule['name']:<17} medians {medians[0]:>11.4f} "
                f"{medians[1]:>11.4f}  gap {worse / medians[0]:+.3f}  spreads "
                + " ".join(f"{s:.3f}" for s in spreads)
                + f"  bound {rule['bound']}  {'ok' if held else 'EXCEEDED'}"
            )
        failed = sum(line["failed"] for lines in sets for line in lines)
        drifted = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        all_held = all_held and not drifted and failed == 0
        print(f"  {name:<12} counts that did not repeat: {drifted or 'none'}; "
              f"failed ops: {failed}")
        report[name] = {"end_to_end": rows, "counts": counts, "drifted": drifted,
                        "failed_ops": failed}
    return all_held


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only, 1: per-layer metrics only "
                        "(default: both, one after the other)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write every result as JSON to FILE and the benchmark's "
                        "own spans to FILE.spans.json")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two sets on the same code and compare their medians")
    args = parser.parse_args(argv)

    # A terminated run still drains its daemon and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    seconds = args.seconds if args.seconds is not None else load_contract()["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    # All scratch in one directory inside the checkout (a run may write
    # nowhere else), removed at exit.
    scratch = Path(tempfile.mkdtemp(prefix=".scratch-", dir=ROOT / "bench"))
    document: Dict[str, object] = {"run": run_block(args.seed, seconds)}
    spans: List[dict] = []
    try:
        print("run " + json.dumps(document["run"]))
        if args.check_repeat:
            held = check_repeat(
                names, args.seed, seconds, document.setdefault("check_repeat", {})
            )
            print("check-repeat: " + ("every metric held" if held else "NOT held"))
            return 0 if held else 1
        lines: List[Dict[str, object]] = document.setdefault("results", [])
        # Untraced runs first, each in a fresh process while this one is
        # still small: a child's peak memory starts at its parent's.
        if args.trace is None:
            for name in names:
                lines.append(dict(_fresh_run(name, args.seed, seconds, 0),
                                  workload=name, traced=False))
        for name in names:
            if args.trace == 0:
                result = measure(WORKLOADS[name], args.seed, seconds, scratch)
            else:
                # A single run reports the whole table; a run of every
                # workload traces each one once.
                result = profile(WORKLOADS[name], args.seed, seconds, scratch, spans,
                                 others=args.workload is not None)
            print_result(result)
            lines.append(dict(result.line(), workload=name, traced=result.traced))
        if args.workload and args.trace is not None:
            print(json.dumps(result.line()))  # the single run's, last on stdout
        return 0 if all(entry["correct"] for entry in lines) else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if args.out:
            Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
            if spans:
                Path(args.out + ".spans.json").write_text(json.dumps(spans) + "\n")


if __name__ == "__main__":
    sys.exit(main())
