"""Benchmark harness for cycloset: seeded workloads, output checks and spans.

Nothing here imports cycloset at module level. The runner, `bench/run.py`,
runs the library in a worker process and the CLI as child processes, both
from the checkout under test.
"""
