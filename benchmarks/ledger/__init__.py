"""Perf ledger: the repo's one seeded end-to-end benchmark.

``run.py`` is the entry point (see README.md); ``BENCHMARK.json`` at the
repository root names the workloads, metrics, units and bounds.
"""
