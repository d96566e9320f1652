"""In-memory span recorder for the traced run, and the self-time arithmetic.

A span is one timed call into a layer, recorded from the benchmark's own
files around a public function of a ``schurlab`` module. Spans of one request
share a request id. A probe span re-runs a sub-layer's public function on the
same input inside the span of the battery it stands in for: it is a child of
that span, so it never counts toward the battery's self time, and its flag
lets the battery's unprobed remainder and the tracing overhead be computed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    probe: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.sid, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "request": self.request, "probe": self.probe,
            "counts": self.counts,
        }


class Tracer:
    """Records spans in memory; nothing is written until the run ends."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.labels: dict[int, str] = {}
        self._stack: list[Span] = []
        self._request = -1

    @contextmanager
    def request(self, name: str, label: str):
        """Span around one whole request; its self time is glue between layer calls."""
        self._request += 1
        self.labels[self._request] = label
        with self.span(name) as sp:
            yield sp

    @contextmanager
    def span(self, name: str, probe: bool = False, **counts):
        parent = self._stack[-1].sid if self._stack else None
        sp = Span(len(self.spans), name, 0.0, 0.0, parent, self._request, probe, dict(counts))
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()


class NullTracer:
    """Same interface, records nothing: the untraced replay."""

    enabled = False

    @contextmanager
    def request(self, name: str, label: str):
        yield None

    @contextmanager
    def span(self, name: str, probe: bool = False, **counts):
        yield None


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return {
        sp.sid: sp.duration - _covered(children.get(sp.sid, []), sp.start, sp.end)
        for sp in spans
    }


def probe_time(spans: list[Span]) -> dict[int, float]:
    """Span id -> total duration of its direct probe children."""
    out: dict[int, float] = {}
    for sp in spans:
        if sp.probe and sp.parent is not None:
            out[sp.parent] = out.get(sp.parent, 0.0) + sp.duration
    return out


def request_time_without_probes(spans: list[Span]) -> float:
    """Total request-span time minus every probe, for the overhead estimate.

    Probes are nested only inside non-probe spans, so summing the outermost
    probes of each request is enough.
    """
    by_id = {sp.sid: sp for sp in spans}
    total = 0.0
    for sp in spans:
        if sp.parent is None:
            total += sp.duration
        elif sp.probe and not by_id[sp.parent].probe:
            total -= sp.duration
    return total


GLUE_PREFIX = "request."


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Aggregate spans into ``<name>.busy_s`` self times and summed counts.

    Request spans (named GLUE_PREFIX + op) contribute to ``cli.glue.self_s``;
    a ``certify_*`` battery with probe children also yields
    ``<module>.certify_unprobed_s``, its self time minus its probes.
    """
    selfs = self_times(spans)
    probes = probe_time(spans)
    out: dict[str, float] = {}
    for sp in spans:
        st = selfs[sp.sid]
        if sp.name.startswith(GLUE_PREFIX):
            key = "cli.glue.self_s"
        else:
            key = f"{sp.name}.busy_s"
        out[key] = out.get(key, 0.0) + st
        module, _, func = sp.name.partition(".")
        if sp.sid in probes and func.startswith("certify_"):
            key = f"{module}.certify_unprobed_s"
            out[key] = out.get(key, 0.0) + st - probes[sp.sid]
        for k, v in sp.counts.items():
            ck = f"{sp.name}.{k}"
            out[ck] = out.get(ck, 0) + v
    return out
