"""The repository's end-to-end benchmark (see ``perfbench/NOTES.md``).

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds
<s> --trace <0|1>`` from the repository root.
"""
