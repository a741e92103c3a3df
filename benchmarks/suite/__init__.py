"""The repo's benchmark: seven workloads, end-to-end and per-layer metrics.

Run ``python -m benchmarks.suite --help`` from the repository root, or
read ``benchmarks/suite/README.md``. ``BENCHMARK.json`` at the root names
the command, the workloads, the metrics and their regression bounds.
"""
