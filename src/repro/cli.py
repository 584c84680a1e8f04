"""Command-line interface.

Four subcommands mirror the library's main entry points::

    python -m repro.cli decompose QUERY_OR_FILE [--k K] [--taf lex|width|nodes]
    python -m repro.cli plan QUERY [--k K] [--tuples N] [--seed S]
    python -m repro.cli experiments [--fast]
    python -m repro.cli db {save,open,info,verify,serve,daemon,metrics} PATH [...]

* ``decompose`` parses a datalog query (or a hypergraph file in the
  benchmark format when the argument is a path ending in ``.hg``) and prints
  its hypertree width plus a minimal decomposition for the chosen weighting
  function.
* ``plan`` plans a datalog query with cost-k-decomp over a synthetic database
  and compares it against the left-deep baseline.
* ``experiments`` regenerates the paper's tables (Fig. 1, Example 3.1, the Ψ
  table, Figs. 6/7, and -- unless ``--fast`` -- Fig. 8) and prints them.
* ``db`` drives the persistent storage plane (:mod:`repro.db.storage`):
  ``db save PATH --query Q`` generates a synthetic workload database and
  stores it in the mmap-able columnar format, ``db open PATH`` reopens it
  (zero interning) and prints the schema, ``db info PATH`` prints the
  catalog summary -- relations, rows, bytes, dictionary size -- without
  touching a single column file (``--json`` emits the same report
  machine-readably, plus the store digest and the process's
  workload-cache counters), ``db verify PATH`` re-checks the store's
  integrity file by file (catalog digest, dictionary entry count, every
  column file's byte length against its declared dtype -- the
  operator-facing twin of the serving workers' startup hello; exits
  non-zero with a per-file report on mismatch; ``--deep`` additionally
  re-hashes every file against the SHA-256 content digests recorded in
  the catalog, catching bit rot that size checks miss), ``db serve PATH
  --query Q`` spins up the process-parallel serving pool
  (:mod:`repro.db.serving`): prewarm the plan cache, serve the query set
  across N worker processes sharing the store via mmap, and report
  sustained throughput plus the supervisor's restart counters
  (``--max-worker-restarts`` / ``--deadline`` tune fault tolerance;
  ``--daemon ADDR`` drives the same batch through a running daemon over
  its socket instead), and ``db daemon PATH --query Q`` runs the
  long-lived serving front end (:mod:`repro.db.daemon`): a supervised
  pool behind a Unix-domain or TCP socket speaking length-prefixed JSON
  frames, with health probes, background statistics refresh
  (``--refresh-seconds``), and SIGTERM/SIGINT drain-then-exit.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.decomposition.kdecomp import hypertree_width
from repro.decomposition.minimal import minimal_k_decomp
from repro.exceptions import ReproError
from repro.hypergraph.io import load_hypergraph
from repro.planner.compare import compare_planners
from repro.planner.cost_k_decomp import cost_k_decomp
from repro.query.conjunctive import parse_query
from repro.weights.library import lexicographic_taf, node_count_taf, width_taf
from repro.workloads.synthetic import workload_database


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Weighted hypertree decompositions and optimal query plans",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    decompose = subparsers.add_parser(
        "decompose", help="decompose a query or hypergraph file"
    )
    decompose.add_argument("query", help="datalog query text or path to a .hg file")
    decompose.add_argument("--k", type=int, default=None, help="width bound (default: hw)")
    decompose.add_argument(
        "--taf",
        choices=("width", "lex", "nodes"),
        default="lex",
        help="weighting function to minimise (default: lexicographic)",
    )

    plan = subparsers.add_parser("plan", help="plan a query with cost-k-decomp")
    plan.add_argument("query", help="datalog query text")
    plan.add_argument("--k", type=int, default=2, help="width bound (default 2)")
    plan.add_argument("--tuples", type=int, default=150, help="tuples per relation")
    plan.add_argument("--domain", type=int, default=30, help="attribute domain size")
    plan.add_argument("--seed", type=int, default=0)
    plan.add_argument(
        "--compare", action="store_true", help="also run the left-deep baseline"
    )

    experiments = subparsers.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    experiments.add_argument(
        "--fast", action="store_true", help="skip the Fig. 8 execution experiments"
    )

    db = subparsers.add_parser(
        "db", help="save/open/inspect stored databases (the storage plane)"
    )
    db_commands = db.add_subparsers(dest="db_command", required=True)

    db_save = db_commands.add_parser(
        "save", help="generate a synthetic workload database and store it"
    )
    db_save.add_argument("path", help="target directory for the stored database")
    db_save.add_argument("--query", required=True, help="datalog query text")
    db_save.add_argument("--tuples", type=int, default=150, help="tuples per relation")
    db_save.add_argument("--domain", type=int, default=30, help="attribute domain size")
    db_save.add_argument("--seed", type=int, default=0)
    db_save.add_argument(
        "--encoding",
        choices=("packed", "raw"),
        default=None,
        help="column codec: frame-of-reference packed (default) or raw int64",
    )

    db_open = db_commands.add_parser(
        "open", help="open a stored database (mmap) and print its schema"
    )
    db_open.add_argument("path", help="directory of a stored database")
    db_open.add_argument(
        "--rows", action="store_true", help="decode and print a few rows per relation"
    )

    db_info = db_commands.add_parser(
        "info", help="print the catalog summary without loading any column"
    )
    db_info.add_argument("path", help="directory of a stored database")
    db_info.add_argument(
        "--json",
        action="store_true",
        help="emit the full machine-readable report (per-column codec/dtype/"
        "bytes, compression ratio, store digest, workload-cache counters)",
    )

    db_verify = db_commands.add_parser(
        "verify",
        help="re-check a stored database's integrity file by file",
    )
    db_verify.add_argument("path", help="directory of a stored database")
    db_verify.add_argument(
        "--json", action="store_true", help="emit the verification report as JSON"
    )
    db_verify.add_argument(
        "--deep",
        action="store_true",
        help="also hash every file and compare against the SHA-256 digests "
        "recorded in the catalog at save time (catches bit rot; slower)",
    )

    db_daemon = db_commands.add_parser(
        "daemon",
        help="run the long-lived serving daemon (socket front-end for the "
        "worker pool; drains on SIGTERM/SIGINT)",
    )
    db_daemon.add_argument("path", help="directory of a stored database")
    db_daemon.add_argument(
        "--address",
        default=None,
        help="listen address: 'unix:PATH', a filesystem path, or "
        "'[tcp:]HOST:PORT' (default: unix:<store>/daemon.sock)",
    )
    db_daemon.add_argument(
        "--query",
        action="append",
        default=None,
        help="datalog query text (repeatable): enables the 'plans' request "
        "kind and the statistics-refresh loop",
    )
    db_daemon.add_argument(
        "--k", type=int, action="append", default=None,
        help="width bounds to prewarm (repeatable; default 2 3)",
    )
    db_daemon.add_argument(
        "--refresh-seconds", type=float, default=None,
        help="re-analyze + re-plan the query set this often (default: only "
        "on explicit 'refresh' requests)",
    )
    db_daemon.add_argument(
        "--workers", type=int, default=2, help="worker processes (default 2)"
    )
    db_daemon.add_argument(
        "--answer",
        choices=("rows", "digest"),
        default="digest",
        help="answer mode of prewarmed payloads (default digest)",
    )
    db_daemon.add_argument(
        "--memory-budget-bytes", type=int, default=None,
        help="per-query transient-memory slice (also the admission charge)",
    )
    db_daemon.add_argument(
        "--global-memory-budget-bytes", type=int, default=None,
        help="cap on the sum of admitted per-query slices",
    )
    db_daemon.add_argument(
        "--max-worker-restarts", type=int, default=2,
        help="respawns the supervisor may perform before degrading (default 2)",
    )
    db_daemon.add_argument(
        "--deadline", type=float, default=None,
        help="per-attempt request deadline in seconds (default: none)",
    )
    db_daemon.add_argument(
        "--max-attempts", type=int, default=3,
        help="attempt budget per request for crash/timeout retries (default 3)",
    )
    db_daemon.add_argument(
        "--io-timeout", type=float, default=10.0,
        help="seconds a started frame may stall before the connection is "
        "dropped (default 10)",
    )
    db_daemon.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds the SIGTERM drain waits for in-flight work (default 30)",
    )
    db_daemon.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="export every request's spans (admission, queue, attempts, "
        "per-operator kernels) as Chrome trace-event JSON to this file "
        "when the drain completes (open at https://ui.perfetto.dev)",
    )

    db_serve = db_commands.add_parser(
        "serve",
        help="serve a stored database through the multi-process worker pool",
    )
    db_serve.add_argument("path", help="directory of a stored database")
    db_serve.add_argument(
        "--query",
        action="append",
        required=True,
        help="datalog query text (repeatable; the served query set)",
    )
    db_serve.add_argument(
        "--workers", type=int, default=2, help="worker processes (default 2)"
    )
    db_serve.add_argument(
        "--repeat", type=int, default=1, help="times to serve the query set"
    )
    db_serve.add_argument(
        "--k", type=int, action="append", default=None,
        help="width bounds to prewarm (repeatable; default 2 3)",
    )
    db_serve.add_argument(
        "--memory-budget-bytes", type=int, default=None,
        help="per-query transient-memory slice (also the admission charge)",
    )
    db_serve.add_argument(
        "--global-memory-budget-bytes", type=int, default=None,
        help="cap on the sum of admitted per-query slices",
    )
    db_serve.add_argument(
        "--answer",
        choices=("rows", "digest"),
        default="digest",
        help="ship decoded rows or a content digest (default digest)",
    )
    db_serve.add_argument(
        "--max-worker-restarts", type=int, default=2,
        help="respawns the supervisor may perform before degrading (default 2)",
    )
    db_serve.add_argument(
        "--deadline", type=float, default=None,
        help="per-attempt request deadline in seconds (default: none)",
    )
    db_serve.add_argument(
        "--max-attempts", type=int, default=3,
        help="attempt budget per request for crash/timeout retries (default 3)",
    )
    db_serve.add_argument(
        "--json", action="store_true", help="emit the serving report as JSON"
    )
    db_serve.add_argument(
        "--daemon",
        default=None,
        metavar="ADDR",
        help="drive the batch through a running 'repro db daemon' at this "
        "address instead of spawning a pool in-process (plans and the "
        "serial oracle still run locally; responses are cross-checked "
        "byte-identically)",
    )
    db_serve.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="export planning and per-request spans as Chrome trace-event "
        "JSON to this file (ignored with --daemon: pass --trace-out to the "
        "daemon process instead)",
    )

    db_metrics = db_commands.add_parser(
        "metrics",
        help="fetch and render a running daemon's metrics snapshot "
        "(latency quantiles, queue depth, counters, histograms)",
    )
    db_metrics.add_argument(
        "address",
        help="daemon address: 'unix:PATH', a filesystem path, or "
        "'[tcp:]HOST:PORT'",
    )
    db_metrics.add_argument(
        "--json", action="store_true", help="emit the raw metrics frame as JSON"
    )
    return parser


def _taf_for(name: str, hypergraph):
    if name == "width":
        return width_taf()
    if name == "nodes":
        return node_count_taf()
    return lexicographic_taf(hypergraph)


def _command_decompose(args) -> int:
    if args.query.endswith(".hg") and os.path.exists(args.query):
        hypergraph = load_hypergraph(args.query)
        print(hypergraph.describe())
    else:
        query = parse_query(args.query)
        print(query.describe())
        hypergraph = query.hypergraph()
    width = hypertree_width(hypergraph)
    print(f"hypertree width: {width}")
    k = args.k if args.k is not None else width
    taf = _taf_for(args.taf, hypergraph)
    decomposition = minimal_k_decomp(hypergraph, k, taf)
    print(
        f"[{taf.name}, {k}NFD]-minimal decomposition "
        f"(weight {taf.weigh(decomposition):,.1f}):"
    )
    print(decomposition.describe())
    return 0


def _command_plan(args) -> int:
    query = parse_query(args.query)
    print(query.describe())
    database = workload_database(
        query,
        tuples_per_relation=args.tuples,
        domain_size=args.domain,
        seed=args.seed,
    )
    if args.compare:
        report = compare_planners(query, database, k_values=(args.k,))
        print(report.describe())
    else:
        plan = cost_k_decomp(query, database.statistics, args.k)
        print(plan.describe())
        result = plan.execute(database)
        print(
            f"answer cardinality: {result.cardinality}  "
            f"evaluation work: {result.stats.total_work:,} tuples"
        )
    return 0


def _command_experiments(args) -> int:
    from repro.experiments import (
        example31_experiment,
        fig1_experiment,
        fig6_7_experiment,
        fig8a_experiment,
        fig8b_experiment,
        psi_table_experiment,
    )

    drivers = [fig1_experiment, example31_experiment, psi_table_experiment, fig6_7_experiment]
    for driver in drivers:
        print(driver().to_table())
        print()
    if not args.fast:
        print(fig8a_experiment(tuples_per_relation=100, k_values=(2, 3, 4)).to_table())
        print()
        print(fig8b_experiment(tuples_per_relation=120).to_table())
    return 0


def _command_db(args) -> int:
    from repro.db.database import Database
    from repro.db.storage import storage_info

    if args.db_command == "save":
        query = parse_query(args.query)
        database = workload_database(
            query,
            tuples_per_relation=args.tuples,
            domain_size=args.domain,
            seed=args.seed,
        )
        database.save(args.path, encoding=args.encoding)
        info = storage_info(args.path)
        print(
            f"saved {info['total_rows']:,} rows in {len(info['relations'])} "
            f"relations ({info['total_column_bytes']:,} column bytes, "
            f"{info['dictionary_entries']:,} dictionary values) to {args.path}"
        )
        return 0
    if args.db_command == "open":
        database = Database.open(args.path)
        print(database.describe())
        if args.rows:
            for name in database.relation_names():
                print(f"  {name} head: {database.relation(name).head()}")
        return 0
    if args.db_command == "info":
        info = storage_info(args.path)
        if args.json:
            import json

            from repro.db.storage import workload_cache_stats

            info["workload_cache"] = workload_cache_stats()
            print(json.dumps(info, indent=2, sort_keys=True))
            return 0
        print(
            f"stored database {info['name']!r} "
            f"(format {info['format']} v{info['version']})"
        )
        print(
            f"  relations: {len(info['relations'])}  rows: {info['total_rows']:,}  "
            f"column bytes: {info['total_column_bytes']:,}  "
            f"dictionary: {info['dictionary_entries']:,} values"
        )
        print(
            f"  raw int64 bytes: {info['total_raw_column_bytes']:,}  "
            f"compression: {info['compression_ratio']:.2f}x"
        )
        for relation in info["relations"]:
            print(
                f"  {relation['name']}({', '.join(relation['attributes'])}): "
                f"{relation['rows']:,} rows, {relation['bytes']:,} bytes"
            )
            for column in relation["columns"]:
                print(
                    f"    {column['attribute']}: {column['codec']}/"
                    f"{column['dtype']} ref={column['reference']} "
                    f"{column['bytes']:,}B (raw {column['raw_bytes']:,}B)"
                )
        return 0
    if args.db_command == "verify":
        return _command_db_verify(args)
    if args.db_command == "serve":
        return _command_db_serve(args)
    if args.db_command == "daemon":
        return _command_db_daemon(args)
    if args.db_command == "metrics":
        return _command_db_metrics(args)
    return 1


def _command_db_daemon(args) -> int:
    from repro.db.daemon import ServingDaemon, format_address

    queries = [parse_query(text) for text in (args.query or [])]
    address = args.address or os.path.join(args.path, "daemon.sock")
    daemon = ServingDaemon(
        args.path,
        address,
        workers=args.workers,
        queries=queries,
        k_values=tuple(args.k) if args.k else (2, 3),
        answer=args.answer,
        refresh_seconds=args.refresh_seconds,
        io_timeout_seconds=args.io_timeout,
        drain_timeout_seconds=args.drain_timeout,
        trace_out=args.trace_out,
        global_memory_budget_bytes=args.global_memory_budget_bytes,
        default_memory_budget_bytes=args.memory_budget_bytes,
        max_worker_restarts=args.max_worker_restarts,
        default_deadline_seconds=args.deadline,
        default_max_attempts=args.max_attempts,
    )
    daemon.start()
    # The readiness line scripts wait for before connecting.
    print(
        f"daemon listening on {format_address(daemon.address)} "
        f"(pid {os.getpid()}, {args.workers} workers, store {args.path})",
        flush=True,
    )
    if args.trace_out:
        print(f"  tracing: spans will be exported to {args.trace_out} on drain",
              flush=True)
    code = daemon.serve_forever()
    if args.trace_out:
        print(f"  trace written to {args.trace_out}", flush=True)
    print(f"daemon drained and exited (code {code})", flush=True)
    return code


def _command_db_metrics(args) -> int:
    import json

    from repro.db.daemon import DaemonClient

    with DaemonClient(args.address) as client:
        frame = client.metrics()
    if args.json:
        print(json.dumps(frame, indent=2, sort_keys=True))
        return 0
    latency = frame["latency"]
    print(
        f"daemon at {args.address} (pid {frame['pid']}): "
        f"generation {frame['generation']}, "
        f"uptime {frame['uptime_seconds']}s"
    )
    print(
        f"  requests: {latency['count']} collected, "
        f"p50 {latency['p50'] * 1000:.2f}ms  "
        f"p95 {latency['p95'] * 1000:.2f}ms  "
        f"p99 {latency['p99'] * 1000:.2f}ms  "
        f"max {latency['max'] * 1000:.2f}ms"
    )
    print(
        f"  pool: queue depth {frame['queue_depth']}, "
        f"{frame['inflight']} in flight, {frame['pending']} pending, "
        f"{frame['restarts']} restart(s)"
        + (", DEGRADED" if frame.get("degraded") else "")
    )
    counters = frame["counters"]
    print(
        "  transport: "
        + ", ".join(f"{name} {counters[name]}" for name in sorted(counters))
    )
    pool_counters = frame["metrics"].get("counters", {})
    if pool_counters:
        print(
            "  pool counters: "
            + ", ".join(
                f"{name} {pool_counters[name]}" for name in sorted(pool_counters)
            )
        )
    return 0


def _command_db_verify(args) -> int:
    import json

    from repro.db.storage import verify_store

    report = verify_store(args.path, deep=args.deep)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["ok"] else 1
    if report["digest"] is not None:
        print(
            f"store {report['name']!r} at {report['path']}: "
            f"catalog digest {report['digest'][:12]}..., "
            f"{report['checked_files']} files checked"
        )
    if report["ok"]:
        print("OK: every file matches the catalog")
        return 0
    for problem in report["problems"]:
        print(f"  FAIL {problem['file']}: {problem['error']}")
    print(f"{len(report['problems'])} problem(s) found")
    return 1


def _command_db_serve(args) -> int:
    import json
    import time

    from repro.db.database import Database
    from repro.db.serving import (
        ServingPool,
        execute_payload,
        prewarm,
        strip_provenance,
    )
    from repro.db.storage import PlanCache

    from contextlib import nullcontext

    from repro.obs.trace import TraceRecorder, activated

    queries = [parse_query(text) for text in args.query]
    database = Database.open(args.path)
    plan_cache = PlanCache(os.path.join(args.path, "plans"))
    k_values = tuple(args.k) if args.k else (2, 3)
    recorder = None
    if args.trace_out and not args.daemon:
        recorder = TraceRecorder()
    # activated() scopes the ambient recorder so the planner's spans land
    # in the exported trace alongside the pool's serving spans.
    with activated(recorder) if recorder is not None else nullcontext():
        payloads = prewarm(
            database,
            queries,
            k_values=k_values,
            plan_cache=plan_cache,
            memory_budget_bytes=args.memory_budget_bytes,
            answer=args.answer,
        )
    oracle = [execute_payload(payload, database) for payload in payloads]
    batch = payloads * max(1, args.repeat)
    if args.daemon:
        if args.trace_out:
            print(
                "--trace-out is ignored with --daemon; pass --trace-out to "
                "the daemon process instead",
                flush=True,
            )
        return _serve_through_daemon(args, batch, payloads, oracle, queries)
    started = time.perf_counter()
    with ServingPool(
        args.path,
        workers=args.workers,
        trace=recorder,
        global_memory_budget_bytes=args.global_memory_budget_bytes,
        default_memory_budget_bytes=args.memory_budget_bytes,
        max_worker_restarts=args.max_worker_restarts,
        default_deadline_seconds=args.deadline,
        default_max_attempts=args.max_attempts,
    ) as pool:
        reports = dict(sorted(pool.worker_reports.items()))
        responses = pool.run(batch)
        restarts = pool.restarts
        degraded = pool.degraded
    elapsed = time.perf_counter() - started
    trace_events = None
    if recorder is not None:
        from repro.obs.export import write_chrome_trace

        trace_events = write_chrome_trace(args.trace_out, recorder)
    matches = sum(
        1 for i, response in enumerate(responses)
        if strip_provenance(response) == oracle[i % len(payloads)]
    )
    summary = {
        "store": args.path,
        "workers": args.workers,
        "queries": [query.name for query in queries],
        "requests": len(batch),
        "matches_serial_oracle": matches,
        "seconds": round(elapsed, 4),
        "qps": round(len(batch) / elapsed, 2) if elapsed > 0 else None,
        "planning_seconds": [payload["planning_seconds"] for payload in payloads],
        "worker_reports": reports,
        "restarts": restarts,
        "degraded": degraded,
        "attempts": [
            response.get("serving", {}).get("attempts") for response in responses
        ],
    }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(
            f"served {summary['requests']} requests over {args.workers} workers "
            f"in {summary['seconds']}s ({summary['qps']} q/s); "
            f"{matches}/{len(batch)} responses byte-identical to the serial oracle"
        )
        if restarts or degraded:
            print(
                f"  supervisor: {restarts} worker restart(s)"
                + (f", degraded: {degraded}" if degraded else "")
            )
        for worker_id, report in reports.items():
            startup = report.get("startup_seconds")
            print(
                f"  worker {worker_id}: pid {report['pid']}, "
                f"{report['mmap_columns']}/{report['total_columns']} columns "
                f"mmap-shared, store digest {report['store_digest'][:12]}..."
                + (f", ready in {startup:.3f}s" if startup is not None else "")
            )
        if trace_events is not None:
            print(
                f"  trace: {trace_events} span(s) written to {args.trace_out} "
                "(open at https://ui.perfetto.dev)"
            )
    return 0 if matches == len(batch) else 1


def _serve_through_daemon(args, batch, payloads, oracle, queries) -> int:
    """Drive the serve batch through a running ``repro db daemon`` instead
    of spawning an in-process pool; planning and the serial oracle still
    run locally so byte-identity is checked end to end over the socket."""
    import json
    import time

    from repro.db.daemon import DaemonClient
    from repro.db.serving import strip_provenance

    with DaemonClient(args.daemon) as client:
        before = client.health()
        started = time.perf_counter()
        responses = [client.execute(payload) for payload in batch]
        elapsed = time.perf_counter() - started
        after = client.health()
    matches = sum(
        1 for i, response in enumerate(responses)
        if strip_provenance(response) == oracle[i % len(payloads)]
    )
    summary = {
        "store": args.path,
        "daemon": args.daemon,
        "queries": [query.name for query in queries],
        "requests": len(batch),
        "matches_serial_oracle": matches,
        "seconds": round(elapsed, 4),
        "qps": round(len(batch) / elapsed, 2) if elapsed > 0 else None,
        "daemon_health": after,
        "attempts": [
            response.get("serving", {}).get("attempts") for response in responses
        ],
    }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(
            f"served {summary['requests']} requests through daemon at "
            f"{args.daemon} in {summary['seconds']}s ({summary['qps']} q/s); "
            f"{matches}/{len(batch)} responses byte-identical to the serial oracle"
        )
        print(
            f"  daemon: status {after['status']}, pid {after['pid']}, "
            f"{len(after['worker_pids'])} worker(s), "
            f"{after['restarts']} restart(s), "
            f"{after['counters']['requests_served'] - before['counters']['requests_served']} "
            f"request(s) served during this run"
        )
        print(
            f"  daemon load: queue depth {after.get('queue_depth', 0)}, "
            f"{after.get('inflight', 0)} in flight, "
            f"{after.get('pending', 0)} pending, "
            f"uptime {after.get('uptime_seconds', 0.0)}s"
        )
    return 0 if matches == len(batch) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; a typed :class:`~repro.exceptions.ReproError` (no
    width-``k`` decomposition, an unparsable query, a missing store, ...) is
    the command's answer, not a crash: one ``repro: error:`` line on stderr
    and exit code 2, like argparse's own usage errors."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "decompose":
            return _command_decompose(args)
        if args.command == "plan":
            return _command_plan(args)
        if args.command == "experiments":
            return _command_experiments(args)
        if args.command == "db":
            return _command_db(args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    return 1


if __name__ == "__main__":
    sys.exit(main())
