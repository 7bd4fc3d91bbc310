"""Benchmark harness for invspan: workloads, output checks and layer tracing.

Run one workload with ``python3 perfbench/run.py --workload certify``; see
``run.py`` for the command line and ``BENCHMARK.json`` for the metrics.
"""
