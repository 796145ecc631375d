"""End-to-end and per-layer benchmark of the serpbias CLI.

Run one workload with

    python3 perfbench/run.py --workload evaluate-long-stance --seed 1 --seconds 20 --trace 0

from the repository root. See perfbench/README.md for the workloads, the
metrics and the recorded baseline.
"""
