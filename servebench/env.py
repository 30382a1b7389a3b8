"""Self-describing stamp for every benchmark result.

The thread budget is fixed before NumPy is imported (:data:`THREAD_ENV`,
applied by ``run.py``); forked shard workers inherit it, so a frontend plus
two workers on a 2-CPU host stay within three single-threaded processes.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys

#: BLAS / OpenMP pool sizes, set before NumPy loads.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def apply_thread_env() -> None:
    """Pin every BLAS/OpenMP pool to one thread. Must run before NumPy
    is imported; raises if it already was."""
    if "numpy" in sys.modules:
        raise RuntimeError("thread budget must be set before numpy is imported")
    os.environ.update(THREAD_ENV)


def _git_sha(root) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def bench_env(root, argv: list[str], seed: int) -> dict:
    """Host, versions, thread settings, revision and invocation."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas")
    except (TypeError, ValueError) as exc:  # older NumPy without mode=
        blas = f"unavailable ({exc})"
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_sha": _git_sha(root),
        "argv": list(argv),
        "seed": seed,
    }
