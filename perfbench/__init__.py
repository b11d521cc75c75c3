"""The repository's benchmark: fixed-input workloads, metrics and tracing.

Run one workload for one seed with ``python3 perfbench/run.py`` (see
``perfbench/README.md``); the package's own tests run with
``python -m pytest perfbench``.
"""
