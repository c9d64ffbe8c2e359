"""Outside-in benchmark of the repro library.

Run one workload with::

    python3 perfbench/run.py --workload campaign --seed 2015 --seconds 20 --trace 0

``BENCHMARK.json`` at the repository root lists the workloads and metrics;
:mod:`perfbench.layers` records which end-to-end metric each per-layer metric
is expected to move.  Nothing here is imported by the library itself.
"""
