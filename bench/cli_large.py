"""cli_large: the time a user waits for a verdict on one large matrix.

A round is four CLI requests, in seeded order: ``check <doc> --star --json``
on a unimodular matrix at n=512 (the ROADMAP baseline request) and on a
perturbed copy at n=256, ``factor <doc> --json`` on a matrix of mixed
modulus at n=256, and ``witness 384 --gen toeplitz:<re>,<im>``. The O(n^3)
ratio scan, document load (the ``io`` read path), SVD and eigensolve,
spectrum matching and the ``truncation.corner`` Python loop do most of the
work; import is a small share.
"""

from __future__ import annotations

from functools import partial

import numpy as np

import inputs
import oracle
from harness import Context, Request, cli_args, cli_request

# (command, n, kind) of each request of a round. Kinds sit at fixed sizes: a
# unimodular (Hermitian) input takes the fast symmetric eigensolver, so
# letting the seed move kinds between sizes would move a run's figures by
# about 10%. The seed draws the values, the perturbation, the Toeplitz ratio
# and the order. The round is kept near 13 s so that a run of 45 s repeats
# every request three times.
ROUND = (
    ("check", 512, "unimodular"),
    ("check", 256, "perturbed"),
    ("factor", 256, "mixed"),
    ("witness", 384, None),
)
FLAGS = {"check": ["--star", "--json"], "factor": ["--json"]}
CHECKS = {"check": oracle.check_check, "factor": oracle.check_factor}
IMPORT_MODULE = "schurlab.cli"
IN_PROCESS = False


def _check_text(fn, truth, code: int, stdout: bytes):
    return fn(truth, code, stdout.decode("utf-8", "replace"))


def requests(ctx: Context, rng: np.random.Generator) -> list[Request]:
    reqs = []
    for op, n, kind in ROUND:
        if op == "witness":
            spec = inputs.toeplitz_spec(inputs.toeplitz_ratio(rng, n))
            reqs.append(cli_request(ctx, op, f"witness n={n} {spec}", n * n,
                                    ["witness", n, "--gen", spec],
                                    partial(_check_text, oracle.check_witness, n)))
            continue
        case = inputs.matrix_case(rng, n, kind)
        path = ctx.workdir / f"{op}-{n}.json"
        inputs.write_document(path, case.matrix)
        reqs.append(cli_request(ctx, op, f"{op} {case.label}", n * n, [op, path, *FLAGS[op]],
                                partial(_check_text, CHECKS[op], case)))
    return [reqs[i] for i in rng.permutation(len(reqs))]


def warmup_args(ctx: Context, rng: np.random.Generator) -> list[str]:
    path = ctx.workdir / "warmup.json"
    inputs.write_document(path, inputs.matrix_case(rng, 4, "unimodular").matrix)
    return cli_args("check", path, "--star", "--json")
