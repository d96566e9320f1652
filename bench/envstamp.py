"""The environment a result was measured in, stamped into every result.

The benchmark passes its own environment to every child unchanged apart
from PYTHONPATH, so parent and change see the same BLAS threading; this
records that threading as found rather than setting it.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((src / "schurlab").rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def reference_loop_s(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: the host's speed at the moment,
    so that host drift can be told apart from a change in the program."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for k in range(200_000):
            total += k * k
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment(root: Path, src: Path, seed: int) -> dict:
    return {
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(src),
        "python": sys.version.split()[0],
        "python_executable": sys.executable,
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "schurlab_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("SCHURLAB_")},
        "platform": platform.platform(),
        "seed": seed,
    }
