"""Shared helpers for the paper-figure benches.

Every bench regenerates one of the paper's tables or figures (or checks
one plane's shape contract), asserts the *shape* the paper reports, and
prints the regenerated rows so that running::

    pytest benchmarks/bench_*.py --benchmark-only -s

shows the tables next to pytest-benchmark's timing output.  These are
shape checks, not a measuring instrument: every performance claim goes
through ``bench/`` (``python3 bench/run.py``, see ``bench/README.md``).
"""


def emit(result) -> None:
    """Print an ExperimentResult table (visible with ``-s`` or on failure)."""
    print()
    print(result.to_table())
