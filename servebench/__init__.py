"""Host-normalized serving benchmark for the DART serving stack.

Run from the repository root::

    python3 servebench/run.py --workload b1-single --seed 1 --seconds 6 --trace 0

See ``servebench/README.md`` for the workloads, metrics and method.
"""
