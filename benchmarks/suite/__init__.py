"""The pinned benchmark suite: six workloads, six end-to-end metrics, a
per-layer host-time split.  See README.md; ``run.py`` is the entry point
``BENCHMARK.json`` names, ``python -m benchmarks.suite`` the readable one."""
