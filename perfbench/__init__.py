"""Cross-commit benchmark of the CoachLM revision system.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed
<n> --seconds <s> --trace <0|1>`` from the repository root; see
``perfbench/NOTES.md`` for the workloads, metrics and the layer map.
"""
