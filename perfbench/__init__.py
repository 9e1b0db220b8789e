"""Benchmark of the crossfit program: generation, training and evaluation.

Run one workload with `python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>` from the repository root; see README.md.
"""
