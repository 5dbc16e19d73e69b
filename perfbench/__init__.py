"""Seeded end-to-end and per-layer benchmark of the coupledwell package.

Run one workload with ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root; see
README.md in this directory for the workloads and the metrics.
"""
