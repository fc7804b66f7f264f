"""The repository benchmark: three workloads, end-to-end and per-layer.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds
<s> --trace <0|1>``; compare two sets of records with ``python3
perfbench/compare.py``.  See ``perfbench/README.md``.
"""
