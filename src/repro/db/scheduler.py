"""A dependency-DAG task scheduler for the execution plane.

The executor (:mod:`repro.db.executor`) decomposes every plan into *tasks*
-- per-decomposition-node expression evaluations, per-node semijoin
reductions and join folds -- whose data dependencies form a DAG (see
:func:`repro.db.plan_ir.yannakakis_task_dag`).  This module runs such a
DAG:

* with ``threads == 1`` every task executes inline, in the submission
  order, which by construction is the serial algorithm's order -- the
  scheduler adds nothing but a function call;
* with ``threads > 1`` tasks run on a ``ThreadPoolExecutor``: a task is
  submitted as soon as all of its dependencies completed, so independent
  sibling subtrees execute concurrently.  The big columnar kernels
  (``argsort``/``searchsorted``/``np.isin`` over int64 columns) release
  the GIL, which is what makes threads effective for this workload.

Determinism: tasks communicate only through per-node slots each task owns
exclusively (the dependency edges serialise every read-after-write), and
the shared :class:`~repro.db.algebra.OperatorStats` accumulator is
thread-safe with purely commutative counters -- so answers, row orderings
and work counters are identical to the ``threads == 1`` run regardless of
the interleaving.  Exceptions (including the evaluation-budget watchdog)
propagate to the caller under the **first-error contract**: once any task
fails, no further task is started (queued-but-unstarted futures are
cancelled), already-running tasks are drained, and the error surfaced is
that of the failing task with the *earliest submission order* -- i.e. the
same task whose error the serial run would have raised first among the
tasks that actually failed.  Which error a caller sees is therefore
independent of thread timing.  The multi-process serving pool
(:mod:`repro.db.serving`) honours the same contract for a worker process
dying mid-query: in-flight work is abandoned, queued requests are not
dispatched, and the first detected failure is raised.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Callable, Hashable, Sequence, Tuple

#: ``(key, dependency keys, callable)``; the callable's result is ignored.
Task = Tuple[Hashable, Tuple[Hashable, ...], Callable[[], object]]


class TaskScheduler:
    """Run dependency-ordered tasks, serially or on a thread pool."""

    def __init__(self, threads: int = 1) -> None:
        self.threads = threads

    def run(self, tasks: Sequence[Task], wrap=None) -> None:
        """Execute every ``(key, deps, fn)`` task respecting dependencies.

        ``tasks`` must be topologically ordered (dependencies listed before
        dependents), which is how every extractor emits them -- at
        ``threads == 1`` they simply execute in list order.

        ``wrap`` is the observability hook: ``wrap(key, fn)`` returns the
        callable actually executed (the executor uses it to open a trace
        span per Yannakakis task).  It must be a pure decoration -- ordering,
        dependency resolution and the first-error contract are unchanged.
        """
        if self.threads == 1:
            for key, _, fn in tasks:
                (fn if wrap is None else wrap(key, fn))()
            return
        self._run_threaded(tasks, wrap)

    def _run_threaded(self, tasks: Sequence[Task], wrap=None) -> None:
        keys = {key for key, _, _ in tasks}
        if len(keys) != len(tasks):
            raise ValueError("duplicate task keys in DAG")
        pending = {key: {d for d in deps if d in keys} for key, deps, _ in tasks}
        functions = {
            key: (fn if wrap is None else wrap(key, fn)) for key, _, fn in tasks
        }
        # Tasks arrive in the serial algorithm's order; the list
        # index below makes the first-error choice deterministic.
        order = {key: index for index, (key, _, _) in enumerate(tasks)}
        dependents: dict = {}
        for key, deps, _ in tasks:
            for dep in pending[key]:
                dependents.setdefault(dep, []).append(key)

        ready = [key for key, _, _ in tasks if not pending[key]]
        completed = 0
        errors: dict = {}  # canonical task index -> exception
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            futures = {pool.submit(functions[key]): key for key in ready}
            while futures:
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                newly_ready = []
                for future in done:
                    key = futures.pop(future)
                    completed += 1
                    if future.cancelled():
                        continue
                    error = future.exception()
                    if error is not None:
                        errors[order[key]] = error
                        continue
                    for dependent in dependents.get(key, ()):
                        remaining = pending[dependent]
                        remaining.discard(key)
                        if not remaining:
                            newly_ready.append(dependent)
                if errors:
                    # Cancel everything the executor has not started yet;
                    # running tasks are drained by the surrounding loop.
                    for future in futures:
                        future.cancel()
                else:
                    for key in newly_ready:
                        futures[pool.submit(functions[key])] = key
        if errors:
            # Among the tasks that actually failed, surface the one the
            # serial run would have reached first -- deterministic no matter
            # which future happened to complete first.
            raise errors[min(errors)]
        if completed != len(tasks):
            unrun = [key for key, deps, _ in tasks if pending[key]]
            raise ValueError(f"task DAG is not schedulable; blocked tasks: {unrun}")
