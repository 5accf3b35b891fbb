"""End-to-end and per-layer benchmark for hypermatch.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the root of the repository; ``run.py``
explains the output.
"""
