"""lib_small: scripted batch use, an in-process stream of library calls at n in [2, 32].

Sizes are log-uniform (stratified per call kind). Fixed per-call cost
(per-trial RNG set-up in product sampling, array copies), pure-Python
spectrum matching and the graph walks in ``completion`` dominate; the ratio
scan is under about 10% of certification here, so a scan rewrite should not
move this workload. The write path rides along: ``enumerate n`` at n in
[2, 8], run in-process through the program's own ``cli.main`` with stdout to
a file, so ``groups`` generation, ``io`` serialization and the program's
stdout writes are measured on a steady in-process workload.
"""

from __future__ import annotations

from functools import partial

import numpy as np

import inputs
import oracle
import replay
from harness import Context, Request, cli_request
from schurlab.completion import PartialMatrix
from schurlab.errors import NotMultiplicativeError
from schurlab.truncation import toeplitz_generator

SIZE_RANGE = (2, 32)
# enumerate n writes 2^(n-1) matrices: at n = 8 a call takes about as long as
# a certification at n = 32, so the write path is a share of the stream, not
# most of it.
ENUMERATE_RANGE = (2, 8)
PER_CALL_KIND = 48
IMPORT_MODULE = "schurlab"
IN_PROCESS = True
EXACT_TOL = 1e-12  # relative error allowed where the program does one rounding per entry


def _rel(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return float("inf")
    return float(np.abs(got - want).max() / np.abs(want).max())


def _verify_certify(case, cert) -> str | None:
    if cert.verdict != case.multiplicative:
        return f"verdict {cert.verdict}, truth {case.multiplicative}"
    if case.multiplicative:
        return oracle.check_scaling(None if cert.scaling is None else cert.scaling.values, case)
    return None


def _certify(rng, n, k) -> Request:
    case = inputs.matrix_case(rng, n, inputs.KINDS[k % 3])
    return Request("certify", f"certify_multiplicative {case.label}", n * n,
                   partial(replay.certify, m=case.matrix), partial(_verify_certify, case))


def _verify_star(case, cert) -> str | None:
    if cert.verdict != case.star:
        return f"star verdict {cert.verdict}, truth {case.star}"
    return None


def _star(rng, n, k) -> Request:
    case = inputs.matrix_case(rng, n, inputs.KINDS[k % 3])
    return Request("star", f"certify_star_multiplicative {case.label}", n * n,
                   partial(replay.certify_star, m=case.matrix), partial(_verify_star, case))


def _factor_call(t, a):
    try:
        return replay.factor(t, a)
    except NotMultiplicativeError as exc:
        return exc


def _verify_factor(case, result) -> str | None:
    if not case.multiplicative:
        if isinstance(result, NotMultiplicativeError):
            return None
        return "factored a matrix that is not multiplicative"
    if isinstance(result, Exception):
        return f"raised {type(result).__name__} on a multiplicative matrix"
    f, norm = result
    mags = np.abs(case.f)
    want = float(mags.max() / mags.min())
    if not abs(norm - want) <= 1e-9 * want:
        return f"schur_map_norm {norm!r}, truth {want!r}"
    return oracle.check_scaling(f.values, case)


def _factor(rng, n, k) -> Request:
    case = inputs.matrix_case(rng, n, inputs.KINDS[k % 3])
    return Request("factor", f"factor_scaling+schur_map_norm {case.label}", n * n,
                   partial(_factor_call, a=case.matrix), partial(_verify_factor, case))


def _verify_complete(case, report) -> str | None:
    if report.status != case.status:
        return f"status {report.status}, truth {case.status}"
    if case.status == inputs.COMPLETED:
        err = _rel(report.matrix.data, case.truth)
        if not err <= oracle.REBUILD_TOL:
            return f"completion differs from the truth (error {err:.3e})"
    return None


def _complete(rng, n, k) -> Request:
    mask = inputs.MASKS[k % 3]
    data = inputs.PARTIAL_DATA[(k // 3) % 3]
    case = inputs.partial_case(rng, n, mask, data)
    partial_matrix = PartialMatrix(entries=case.entries, mask=case.mask)
    return Request("complete", f"complete_partial {case.label}", n * n,
                   partial(replay.complete, partial=partial_matrix),
                   partial(_verify_complete, case))


def _verify_witness(n, result) -> str | None:
    return oracle.check_witness_bound(n, result.lower_bound, result.x)


def _witness(rng, n, k) -> Request:
    lam = inputs.toeplitz_ratio(rng, n)
    return Request("witness", f"unboundedness_witness n={n} {inputs.toeplitz_spec(lam)}", n * n,
                   partial(replay.witness, gen=toeplitz_generator(lam), n=n),
                   partial(_verify_witness, n))


def _verify_group(a, b, z, result) -> str | None:
    prod, member = result
    if not _rel(prod.data, a * b) <= EXACT_TOL:
        return "group_product is not the entrywise product"
    r = np.concatenate([[1.0 + 0j], z])
    if not _rel(member.data, np.outer(r.conj(), r)) <= EXACT_TOL:
        return "torus_param differs from conj(r_i) r_j"
    return None


def _group(rng, n, k) -> Request:
    kind = ("unimodular", "mixed")[k % 2]
    a = inputs.matrix_case(rng, n, kind).matrix
    b = inputs.matrix_case(rng, n, "mixed").matrix
    z = np.exp(2j * np.pi * rng.random(n - 1))
    return Request("group", f"group_product+torus_param {kind} n={n}", n * n,
                   partial(replay.group, a=a, b=b, z=z), partial(_verify_group, a, b, z))


def _verify_extreme(correlation: bool, scale: float, result) -> str | None:
    corr, iso = result
    if (corr.is_correlation, corr.rank, corr.rank_one_extreme) != (correlation, 1, correlation):
        return f"correlation_check {corr}, truth correlation={correlation} rank=1"
    unitary = scale == 1.0
    if (iso.isometry, iso.coisometry) != (unitary, unitary):
        return f"isometry_check {iso.isometry}/{iso.coisometry}, truth {unitary}"
    if iso.scalar_multiple is None or not abs(iso.scalar_multiple - scale) <= 1e-9 * scale:
        return f"scalar multiple {iso.scalar_multiple!r}, truth {scale!r}"
    return None


def _extreme(rng, n, k) -> Request:
    correlation = k % 2 == 0  # unimodular rank one is a correlation matrix; mixed is not
    c = inputs.matrix_case(rng, n, "unimodular" if correlation else "mixed").matrix
    scale = 1.0 if (k // 2) % 2 == 0 else float(rng.uniform(0.5, 2.0))
    u = scale * inputs.random_unitary(rng, n)
    return Request("extreme", f"correlation_check+isometry_check n={n} c={scale:.4g}", n * n,
                   partial(replay.extreme, c=c, u=u),
                   partial(_verify_extreme, correlation, scale))


CALL_KINDS = (_certify, _star, _factor, _complete, _witness, _group, _extreme)


def _enumerate_requests(ctx: Context, rng: np.random.Generator) -> list[Request]:
    judge = oracle.EnumerateOracle()
    sizes = inputs.log_uniform_sizes(rng, PER_CALL_KIND, *ENUMERATE_RANGE)
    for n in set(sizes):
        judge.digest(n)  # canonical digests are input generation, not measured time
    return [cli_request(ctx, "enumerate", f"enumerate {n}", n * n << (n - 1),
                        ["enumerate", n], partial(judge.check, n)) for n in sizes]


def requests(ctx: Context, rng: np.random.Generator) -> list[Request]:
    reqs = []
    for build in CALL_KINDS:
        sizes = inputs.log_uniform_sizes(rng, PER_CALL_KIND, *SIZE_RANGE)
        reqs.extend(build(rng, n, k) for k, n in enumerate(sizes))
    reqs.extend(_enumerate_requests(ctx, rng))
    return [reqs[i] for i in rng.permutation(len(reqs))]


def warmup_args(ctx: Context, rng: np.random.Generator) -> list[str]:
    return ["-c", "import schurlab; schurlab.certify_multiplicative([[1, 1j], [-1j, 1]])"]
