"""Calls into ``schurlab``'s public functions, each inside a span.

The library workload calls these wrappers directly. A CLI request is
replayed by running ``schurlab.cli.main`` in-process (``run_cli``); under a
recording tracer the names ``cli`` calls are pointed at the same wrappers
while it runs, so the traced request is the program's own code path. With a
``NullTracer`` nothing is patched and a wrapper costs one no-op context
manager, which is how the untraced replay that measures tracing overhead
runs. Probes (``probe=True``) re-run a sub-layer's public function on the
battery's own input, inside the battery's span and after the real call; they
run only when tracing.
"""

from __future__ import annotations

import io as _stdio
import os
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from schurlab import cli, io
from schurlab.completion import complete_partial
from schurlab.core import (
    Tolerance,
    eigenvalues,
    multiset_distance,
    numerical_rank,
    operator_norm,
)
from schurlab.extreme import correlation_check, isometry_check
from schurlab.groups import enumerate_real_positive, group_product, torus_param
from schurlab.multiplicative import (
    certify_multiplicative,
    check_cocycle,
    factor_scaling,
    schur_map_norm,
)
from schurlab.star import certify_star_multiplicative
from schurlab.truncation import corner, unboundedness_witness

TOL = Tolerance()


def _battery_probes(t, m, tol, star: bool) -> None:
    n = m.shape[0]
    with t.span("multiplicative.check_cocycle", probe=True):
        check_cocycle(m, tol)
    with t.span("core.numerical_rank", probe=True):
        numerical_rank(m, tol)
    if star:
        with t.span("core.operator_norm", probe=True):
            operator_norm(m)
    with t.span("core.eigenvalues", probe=True):
        eigs = eigenvalues(m, tol)
    target = np.zeros(n, dtype=np.complex128)
    target[0] = n
    with t.span("core.multiset_distance", probe=True):
        multiset_distance(eigs, target)


def certify(t, m, tol=TOL, **kwargs):
    with t.span("multiplicative.certify_multiplicative"):
        cert = certify_multiplicative(m, tol, **kwargs)
        if t.enabled:
            _battery_probes(t, m, tol, star=False)
    return cert


def certify_star(t, m, tol=TOL):
    with t.span("star.certify_star_multiplicative"):
        cert = certify_star_multiplicative(m, tol)
        if t.enabled:
            _battery_probes(t, m, tol, star=True)
    return cert


def witness(t, gen, n: int, tol=TOL):
    with t.span("truncation.unboundedness_witness"):
        result = unboundedness_witness(gen, n, tol)
        if t.enabled:
            with t.span("truncation.corner", probe=True):
                block = corner(gen, n)
            with t.span("multiplicative.check_cocycle", probe=True):
                check_cocycle(block, tol)
    return result


def enumerate_members(t, n: int):
    with t.span("groups.enumerate_real_positive") as sp:
        members = enumerate_real_positive(n)
        if sp is not None:
            sp.counts["items"] = len(members)
    return members


def factor(t, a):
    with t.span("multiplicative.factor_scaling"):
        f = factor_scaling(a, TOL)
    with t.span("multiplicative.schur_map_norm"):
        norm = schur_map_norm(a, TOL)
    return f, norm


def complete(t, partial):
    with t.span("completion.complete_partial") as sp:
        report = complete_partial(partial, TOL)
        if sp is not None:
            sp.counts[report.status] = 1
    return report


def group(t, a, b, z):
    with t.span("groups.group_product"):
        prod = group_product(a, b, TOL)
    with t.span("groups.torus_param"):
        member = torus_param(z, TOL)
    return prod, member


def extreme(t, c, u):
    with t.span("extreme.correlation_check"):
        corr = correlation_check(c, TOL)
    with t.span("extreme.isometry_check"):
        iso = isometry_check(u, TOL)
    return corr, iso


class SpannedIO:
    """Stands in for ``schurlab.io`` inside ``schurlab.cli``: the read and
    write calls run in spans, every other name is the module's own."""

    def __init__(self, t):
        self._t = t

    def __getattr__(self, name):
        return getattr(io, name)

    def load_matrix_file(self, path):
        with self._t.span("io.load_matrix_file", bytes=os.path.getsize(path)):
            return io.load_matrix_file(path)

    def matrix_to_document(self, a):
        with self._t.span("io.matrix_to_document"):
            return io.matrix_to_document(a)

    def dumps_document(self, doc):
        with self._t.span("io.dumps_document") as sp:
            text = io.dumps_document(doc)
            sp.counts["bytes"] = len(text)
        return text


@contextmanager
def instrument_cli(t):
    """Point the names ``schurlab.cli`` calls at the spanned wrappers while
    the block runs; with a ``NullTracer`` nothing changes."""
    if not t.enabled:
        yield
        return
    wrappers = {
        "certify_multiplicative": partial(certify, t),
        "certify_star_multiplicative": partial(certify_star, t),
        "unboundedness_witness": partial(witness, t),
        "enumerate_real_positive": partial(enumerate_members, t),
        "io": SpannedIO(t),
    }
    saved = {name: getattr(cli, name) for name in wrappers}
    for name, fn in wrappers.items():
        setattr(cli, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


@dataclass
class Captured:
    """What an in-process CLI run left: its exit code, stdout file and stderr.

    Stdout is read only when judged, after the request's span has closed.
    """

    code: int
    stdout_path: Path
    stderr: str

    @property
    def stdout(self) -> bytes:
        return self.stdout_path.read_bytes()


def run_cli(t, argv: list[str], stdout_path: Path) -> Captured:
    """Run ``schurlab.cli.main(argv)`` in this process.

    Its stdout goes to a file through a text layer, as a child's goes to a
    pipe, so the program's own writes are the ones timed.
    """
    err = _stdio.StringIO()
    with open(stdout_path, "w", encoding="utf-8") as out, \
            redirect_stdout(out), redirect_stderr(err), instrument_cli(t):
        code = cli.main(argv)
    return Captured(code, stdout_path, err.getvalue())
