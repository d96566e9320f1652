"""Shared run loop: set-up timing, closed-loop rounds, CLI children, traced replay."""

from __future__ import annotations

import itertools
import os
import statistics
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import replay
from children import run_child
from metrics import Outcome
from oracle import check_stderr
from spans import GLUE_PREFIX, NullTracer, Tracer, request_time_without_probes

SETUP_BATCH = 2
SETUP_BATCHES = 6
IMPORT_REPEATS = 3
REQUEST_TIMEOUT_S = 60.0
MIN_ROUNDS = 3


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (as opposed to a failed request)."""


@dataclass
class Context:
    root: Path
    src: Path
    workdir: Path
    seed: int
    seconds: float

    @property
    def env(self) -> dict:
        """The caller's environment, unchanged but for PYTHONPATH pointing at src/."""
        env = dict(os.environ)
        extra = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(self.src) + (os.pathsep + extra if extra else "")
        return env

    def spawn(self, args: list[str]):
        return run_child([sys.executable, *args], self.env, str(self.root),
                         str(self.workdir / "stderr.txt"), REQUEST_TIMEOUT_S)


def cli_args(*args) -> list[str]:
    return ["-m", "schurlab.cli", *[str(a) for a in args]]


class SetupSampler:
    """Set-up time: a fresh interpreter to one warm-up request answered.

    The host's speed moves in steps that last seconds (set-ups read 0.24 s
    for a while, then 0.34 s), so set-ups taken all at once would read one
    step. A batch of SETUP_BATCH is taken at the start and then between
    rounds, at most one batch per ``seconds / SETUP_BATCHES``; the figure
    is the median of all of them.
    """

    def __init__(self, ctx: Context, args: list[str]):
        self.ctx, self.args = ctx, args
        self.times: list[float] = []
        self.batch()

    def batch(self) -> None:
        for _ in range(SETUP_BATCH):
            res = self.ctx.spawn(self.args)
            if res.code != 0:
                raise BenchError(f"warm-up request {self.args} exited {res.code}: "
                                 f"{res.stderr.strip()[-200:]}")
            self.times.append(res.wall_s)
        self.last = time.perf_counter()

    def between_rounds(self) -> None:
        if time.perf_counter() - self.last >= self.ctx.seconds / SETUP_BATCHES:
            self.batch()

    def median(self) -> float:
        return statistics.median(self.times)


def import_time(ctx: Context, module: str) -> float:
    """Median in-interpreter time of ``import <module>`` in fresh interpreters."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for _ in range(IMPORT_REPEATS):
        res = ctx.spawn(["-c", code])
        if res.code != 0:
            raise BenchError(f"import {module} failed: {res.stderr.strip()[-200:]}")
        times.append(float(res.stdout))
    return statistics.median(times)


@dataclass
class Request:
    """One request of a workload.

    ``replay`` makes it in-process under a tracer and ``verify`` judges what
    that returned. A CLI request also has ``argv``, its command line after
    ``schurlab``: it runs as a child in the untraced run, and its ``verify``
    judges the child's exit code, stdout and stderr the same way.
    """

    op: str
    label: str
    entries: int
    replay: Callable[[Any], Any]
    verify: Callable[[Any], str | None]
    argv: list[str] | None = None


def judge_cli(check: Callable[[int, bytes], str | None], res) -> str | None:
    """Judge a CLI run (a child or an in-process replay) with ``check``."""
    return check_stderr(res.stderr) or check(res.code, res.stdout)


def cli_request(ctx: Context, op: str, label: str, entries: int, argv: list,
                check: Callable[[int, bytes], str | None]) -> Request:
    argv = [str(a) for a in argv]
    return Request(op, label, entries,
                   replay=partial(replay.run_cli, argv=argv,
                                  stdout_path=ctx.workdir / "stdout.txt"),
                   verify=partial(judge_cli, check), argv=argv)


def cli_outcome(ctx: Context, req: Request) -> Outcome:
    """Run ``req`` as a child and judge its exit code, stdout and stderr."""
    res = ctx.spawn(cli_args(*req.argv))
    failure = f"timed out after {REQUEST_TIMEOUT_S:g} s" if res.timed_out else req.verify(res)
    return Outcome(req.label, res.wall_s, req.entries, failure, len(res.stdout), res.rss_mb)


def closed_loop(ctx: Context, requests: list[Request],
                run_one: Callable[[Request], Outcome],
                between_rounds: Callable[[], None]) -> list[Outcome]:
    """One client, next request after the previous answer, in whole rounds.

    At least MIN_ROUNDS rounds, so every request has repeats to take the
    fastest of; then more while one more round, as long as the longest so
    far, still ends within ``ctx.seconds``. ``between_rounds`` runs after
    each round, outside the round's time.
    """
    outcomes: list[Outcome] = []
    longest = 0.0
    t0 = time.perf_counter()
    for rounds in itertools.count():
        if rounds >= MIN_ROUNDS and time.perf_counter() - t0 + longest > ctx.seconds:
            return outcomes
        r0 = time.perf_counter()
        for key, req in enumerate(requests):
            outcome = run_one(req)
            outcome.key = key
            outcomes.append(outcome)
        longest = max(longest, time.perf_counter() - r0)
        between_rounds()


def run_replay(req: Request, tracer) -> tuple[float, Any, str | None]:
    """Replay ``req`` under ``tracer``; returns (latency, result, crash reason)."""
    t0 = time.perf_counter()
    try:
        result, crash = req.replay(tracer), None
    except Exception as exc:  # a crash is a failed request, listed with its input
        result, crash = None, f"raised {type(exc).__name__}: {exc}"[:200]
    return time.perf_counter() - t0, result, crash


def judge(req: Request, result, crash: str | None) -> str | None:
    return crash if crash is not None else req.verify(result)


def measure_in_process(ctx: Context, requests: list[Request],
                       between_rounds: Callable[[], None]) -> list[Outcome]:
    null = NullTracer()
    for req in requests[:8]:  # warm-up: lazy imports, first-call set-up
        run_replay(req, null)

    def run_one(req: Request) -> Outcome:
        latency, result, crash = run_replay(req, null)
        return Outcome(req.label, latency, req.entries, judge(req, result, crash))

    return closed_loop(ctx, requests, run_one, between_rounds)


@dataclass
class TraceResult:
    tracer: Tracer
    outcomes: list[Outcome]
    overhead_s: float


def traced_replay(ctx: Context, requests: list[Request]) -> TraceResult:
    """Traced replay for half the budget (whole rounds), then the same requests
    again untraced; the difference, probes excluded, is the tracing overhead."""
    null = NullTracer()
    run_replay(requests[0], null)  # warm-up
    tracer = Tracer()
    outcomes: list[Outcome] = []
    replayed: list[Request] = []
    t0 = time.perf_counter()
    while not replayed or time.perf_counter() - t0 < ctx.seconds / 2:
        for req in requests:
            with tracer.request(GLUE_PREFIX + req.op, req.label):
                latency, result, crash = run_replay(req, tracer)
            outcomes.append(Outcome(req.label, latency, req.entries, judge(req, result, crash)))
            replayed.append(req)
    untraced = sum(run_replay(req, null)[0] for req in replayed)
    overhead = request_time_without_probes(tracer.spans) - untraced
    return TraceResult(tracer, outcomes, overhead)
