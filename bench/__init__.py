"""Layered benchmark of the planner, executor, serving pool and daemon.

Run ``python3 bench/run.py`` from the repository root; see ``bench/README.md``.
"""
