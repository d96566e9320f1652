"""Metric catalogue and the end-to-end summary of one run.

``END_TO_END`` and ``PER_LAYER`` are the metrics the last line of a run
carries (BENCHMARK.json lists the same names); ``REPORTED`` are end-to-end
figures printed for a workload only where they apply, so they cannot be in
the every-workload result line.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "throughput_rps": "1/s",
    "entries_per_s": "entries/s",
    "peak_rss_mb": "MB",
}

REPORTED = {
    "latency_tail_s": "s",
    "output_mb_per_s": "MB/s",
    "failed_frac": "fraction",
}

PER_LAYER = {
    "multiplicative.check_cocycle.busy_s": "s",
    "multiplicative.certify_multiplicative.busy_s": "s",
    "multiplicative.certify_unprobed_s": "s",
    "multiplicative.factor_scaling.busy_s": "s",
    "multiplicative.schur_map_norm.busy_s": "s",
    "star.certify_star_multiplicative.busy_s": "s",
    "star.certify_unprobed_s": "s",
    "core.numerical_rank.busy_s": "s",
    "core.eigenvalues.busy_s": "s",
    "core.multiset_distance.busy_s": "s",
    "core.operator_norm.busy_s": "s",
    "io.load_matrix_file.busy_s": "s",
    "io.load_matrix_file.bytes": "bytes",
    "io.matrix_to_document.busy_s": "s",
    "io.dumps_document.busy_s": "s",
    "io.dumps_document.bytes": "bytes",
    "groups.enumerate_real_positive.busy_s": "s",
    "groups.enumerate_real_positive.items": "count",
    "groups.group_product.busy_s": "s",
    "groups.torus_param.busy_s": "s",
    "completion.complete_partial.busy_s": "s",
    "completion.complete_partial.completed": "count",
    "completion.complete_partial.inconsistent": "count",
    "completion.complete_partial.underdetermined": "count",
    "truncation.corner.busy_s": "s",
    "truncation.unboundedness_witness.busy_s": "s",
    "extreme.correlation_check.busy_s": "s",
    "extreme.isometry_check.busy_s": "s",
    "cli.import_s": "s",
    "cli.glue.self_s": "s",
    "trace.requests": "count",
    "trace.overhead_s": "s",
}

MB = float(1 << 20)
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Outcome:
    """One measured request; ``key`` identifies the request it repeats."""

    label: str
    latency_s: float
    entries: int
    failure: str | None = None
    stdout_bytes: int = 0
    rss_mb: float = 0.0
    key: int = 0


def tail(latencies: list[float]) -> dict | None:
    """Highest percentile worth reporting with at least 10 samples beyond it.

    Nearest-rank percentiles; None when no candidate in TAIL_PERCENTILES
    leaves TAIL_MIN_BEYOND samples above its rank.
    """
    xs = sorted(latencies)
    count = len(xs)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * count))
        if count - rank >= TAIL_MIN_BEYOND:
            return {"percentile": p, "value": xs[rank - 1], "beyond": count - rank,
                    "samples": count}
    return None


def fastest(outcomes: list[Outcome]) -> list[Outcome]:
    """Each distinct request's fastest repeat, marked failed if any repeat failed.

    The host's speed drifts by tens of percent over seconds to minutes
    (other tenants), and only ever downwards from its best; the fastest of a
    request's repeats within one run is the figure that reads the same from
    run to run.
    """
    best: dict[int, Outcome] = {}
    failure: dict[int, str] = {}
    for o in outcomes:
        if o.failure is not None:
            failure.setdefault(o.key, o.failure)
        if o.key not in best or o.latency_s < best[o.key].latency_s:
            best[o.key] = o
    return [replace(o, failure=failure.get(k)) for k, o in best.items()]


def summarize(outcomes: list[Outcome], setup_s: float, peak_rss_mb: float) -> dict:
    """End-to-end figures of one run.

    Latency, throughput and entries per second are taken over each distinct
    request's fastest repeat (see ``fastest``); a request counts as completed
    only if none of its repeats failed. The tail, the output rate and the
    failed fraction are taken over every repeat.
    """
    best = fastest(outcomes)
    busy = sum(o.latency_s for o in best)
    done = [o for o in best if o.failure is None]
    out = {
        "setup_s": setup_s,
        "latency_p50_s": statistics.median(o.latency_s for o in best),
        "throughput_rps": len(done) / busy,
        "entries_per_s": sum(o.entries for o in done) / busy,
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": sum(o.failure is not None for o in outcomes) / len(outcomes),
    }
    stdout_bytes = sum(o.stdout_bytes for o in outcomes)
    if stdout_bytes:
        out["output_mb_per_s"] = stdout_bytes / MB / sum(o.latency_s for o in outcomes)
    t = tail([o.latency_s for o in outcomes])
    if t is not None:
        out["latency_tail_s"] = t["value"]
        out["latency_tail"] = t
    return out
