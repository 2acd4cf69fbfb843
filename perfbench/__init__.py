"""The repo benchmark: six seeded workloads, two clocks, a traced run.

``python3 -m perfbench run`` prints every metric by name with its unit;
``BENCHMARK.json`` at the repo root declares them.  See README.md here.
"""
