"""Run one CLI child and account for it alone.

``os.wait4`` returns the resource usage of exactly the child it reaps, so
each request gets its own peak RSS. ``RUSAGE_CHILDREN`` would instead report
the largest child reaped so far, letting one request's memory leak into the
figure of every later one.
"""

from __future__ import annotations

import os
import subprocess
import threading
import time
from dataclasses import dataclass


@dataclass
class ChildResult:
    code: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: str
    timed_out: bool


def run_child(argv: list[str], env: dict, cwd: str, stderr_path: str,
              timeout_s: float) -> ChildResult:
    """Spawn ``argv``, drain its stdout, reap it with wait4 and time it.

    Wall time runs from spawn to reaping. Stderr goes to a file so a chatty
    child cannot block on a full pipe. A child still running after
    ``timeout_s`` is killed and reported as timed out.
    """
    killed = threading.Event()
    with open(stderr_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        reaped = False
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
            proc.stdout.close()
            if not reaped:
                proc.kill()
                proc.wait()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return ChildResult(
        code=proc.returncode,
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out,
        stderr=stderr,
        timed_out=killed.is_set(),
    )
