"""Result records: what one benchmark run measured, and where it ran.

Every record carries the git sha of the code measured, a host
fingerprint, the workload seed and the raw samples behind each metric,
so records from different commits can be compared
(``python3 perfbench/compare.py``).
"""

from __future__ import annotations

import importlib.util
import json
import os
import statistics
import time

__all__ = ["SCHEMA", "git_sha", "host_fingerprint", "percentile",
           "write_record"]

SCHEMA = "perfbench-record-1"


def git_sha(root: str) -> str | None:
    """The commit checked out at ``root``, read from ``root/.git`` only.

    Never asks git, which would search parent directories; returns None
    when ``root`` is not a git checkout (the benchmark may run from an
    exported tree).
    """
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def host_fingerprint(blas_threads: int) -> dict:
    """CPUs, BLAS vendor and pinned thread count, library versions."""
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas": _blas(),
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0–100), linear interpolation."""
    import numpy as np

    if not len(values):
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def write_record(out_dir: str, record: dict) -> str:
    """Write one run's record as JSON; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    name = (f"{record['workload']}-seed{record['seed']}-"
            f"trace{int(record['trace'])}-{time.strftime('%Y%m%dT%H%M%S')}-"
            f"{os.getpid()}.json")
    path = os.path.join(out_dir, name)
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True, default=float)
    return path
