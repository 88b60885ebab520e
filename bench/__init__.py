"""The repository's benchmark: one harness, four workloads, a per-layer budget.

Run ``python3 bench/run.py`` from the repository root; see
``bench/README.md``.
"""
