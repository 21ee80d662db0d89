"""Seeded same-host benchmark of the flagship pipeline and the shuffle operators.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; see ``perfbench/README.md``.
"""
