"""Set-up probe, run in a fresh interpreter with PYTHONPATH pointing at src.

Prints the seconds spent importing indexlab, loading the bundled table and
warming up, which is what a workload process pays before its first op.
"""
import time

start = time.perf_counter()

import workloads  # noqa: E402  (the import is what is timed)

workloads.warm_up()
print(repr(time.perf_counter() - start))
