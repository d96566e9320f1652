"""Seeded property-verification suites.

Each suite replays the invariants of one part of the library on generated
instances. Runs are deterministic functions of (suite, trials, seed): every
per-trial random stream is derived from the seed and the trial index, never
from global state. A failure records the case id, a digest of the primary
input, and the offending residual.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from .completion import (
    COMPLETED,
    INCONSISTENT,
    PartialMatrix,
    complete_partial,
    log_coordinates,
)
from .core import (
    DEFAULT_TOL,
    Tolerance,
    _require_seed,
    all_ones,
    eigenvalues,
    identity,
    multiset_distance,
    operator_norm,
    schur_inverse,
    schur_product,
)
from .extreme import correlation_check, isometry_check
from .groups import enumerate_real_positive, toeplitz_member, torus_param
from .io import dumps_document, matrix_to_document
from .multiplicative import (
    build_from_scaling,
    certify_multiplicative,
    check_cocycle,
    factor_scaling,
    numerical_range_samples,
    schur_map_norm,
)
from .star import certify_star_multiplicative, projection_check
from .truncation import (
    compact_bound_check,
    corner,
    scaling_generator,
    toeplitz_generator,
    unboundedness_witness,
)

__all__ = ["SUITE_NAMES", "VerifyFailure", "VerifyReport", "run_suite"]

@dataclass(frozen=True)
class VerifyFailure:
    case: str
    digest: str
    residual: float


@dataclass
class VerifyReport:
    suite: str
    trials: int
    seed: int
    failures: list[VerifyFailure] = field(default_factory=list)
    elapsed: float = 0.0
    cases: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, case: str, digest: str, ok: bool, residual: float) -> None:
        """Count one case, and record it as a failure unless ``ok``."""
        self.cases += 1
        if not ok:
            self.failures.append(VerifyFailure(case, digest, float(residual)))

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "cases": self.cases,
            "failures": [
                {"case": f.case, "digest": f.digest, "residual": f.residual}
                for f in self.failures
            ],
            "timing": {"elapsed": self.elapsed},  # the one field that varies between runs
        }


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng((int(seed),) + tuple(int(p) for p in path))


def _digest(data) -> str:
    arr = np.ascontiguousarray(np.asarray(data, dtype=np.complex128))
    h = hashlib.sha1()
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()[:12]


def _gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def unimodular_scaling(rng: np.random.Generator, n: int) -> np.ndarray:
    """Scaling values on the unit circle."""
    return np.exp(2j * np.pi * rng.random(n))


def mixed_scaling(rng: np.random.Generator, n: int) -> np.ndarray:
    """Scaling values with a guaranteed modulus spread (ratio at least 1.5)."""
    moduli = rng.uniform(0.8, 1.25, n)
    moduli[int(rng.integers(n))] = rng.uniform(1.5, 2.0)
    return moduli * np.exp(2j * np.pi * rng.random(n))


def perturb_off_diagonal(rng: np.random.Generator, data: np.ndarray, delta: float) -> np.ndarray:
    n = data.shape[0]
    i = int(rng.integers(n))
    j = int(rng.integers(n - 1))
    j = j + 1 if j >= i else j
    out = data.copy()
    out[i, j] *= 1.0 + delta
    return out


def random_spanning_tree_mask(
    rng: np.random.Generator, n: int
) -> list[tuple[int, int]]:
    """Directed specified positions forming a random spanning tree."""
    order = rng.permutation(n)
    edges = []
    for k in range(1, n):
        u = int(order[int(rng.integers(k))])
        v = int(order[k])
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
    return edges


def _quartet(data: np.ndarray, n: int) -> dict[str, bool]:
    """The four equivalent verdicts for a multiplicative map: star-preserving,
    coefficient norm n, A/n orthogonal projection, Schur-map norm 1."""
    loose = Tolerance(rel=1e-8, abs=1e-12)
    norm = operator_norm(data)
    herm = float(np.linalg.norm(data - data.conj().T, 2))
    return {
        "star": herm <= loose.threshold(norm),
        "norm_n": abs(norm - n) <= loose.threshold(n),
        "projection": projection_check(data, loose),
        "map_norm_1": abs(schur_map_norm(data) - 1.0) <= loose.threshold(1.0),
    }


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


# --------------------------------------------------------------------------
# suites


def _suite_product_rule_equivalence(rec: VerifyReport, trials: int, seed: int, tol: Tolerance):
    """Multiplicative equivalence battery on scalings and perturbed non-examples."""
    for t in range(trials):
        rng = _rng(seed, 1, t)
        n = int(rng.integers(2, 13))
        if t % 2 == 0:
            unimod = t % 4 == 0
            f = unimodular_scaling(rng, n) if unimod else mixed_scaling(rng, n)
            a = build_from_scaling(f)
            d = _digest(a.data)
            cert = certify_multiplicative(a, tol, trials=4, seed=_sub_seed(rng))
            worst = max(r.residual for r in cert.conditions.values())
            rec.check(f"equivalence_pass@t{t}", d, cert.verdict, worst)
            rec.check(
                f"unanimous@t{t}",
                d,
                all(cert.composite_conditions().values()) and not cert.inconsistent,
                worst,
            )

            g = cert.scaling.values if cert.scaling is not None else None
            if g is None:
                rec.check(f"roundtrip@t{t}", d, False, np.inf)
            else:
                want = np.outer(f, 1.0 / f)
                got = np.outer(g, 1.0 / g)
                res = float(np.abs(got - want).max() / np.abs(want).max())
                rec.check(f"roundtrip@t{t}", d, res <= 1e-10, res)

            b = _gaussian(rng, n, n)
            c = _gaussian(rng, n, n)
            defect = float(
                np.linalg.norm(a.data * (b @ c) - (a.data * b) @ (a.data * c), 2)
            )
            bound = 1e-8 * float(
                np.linalg.norm(b, 2) * np.linalg.norm(c, 2)
            ) * float(np.abs(a.data).max()) ** 2
            rec.check(f"homomorphism@t{t}", d, defect <= bound, defect)

            if n <= 10:
                res = multiset_distance(
                    eigenvalues(b), eigenvalues(a.data * b)
                )
                rec.check(f"spectrum_preserved@t{t}", d, res <= 1e-7, res)

            norm = operator_norm(a)
            adj = np.abs(a.conj_transpose().data - schur_inverse(a).data.conj()).max()
            rec.check(
                f"adjoint_reciprocal@t{t}",
                d,
                float(adj) <= 1e-10 * norm,
                float(adj),
            )
            rec.check(f"norm_at_least_n@t{t}", d, norm >= n - 1e-8, n - norm)
            if unimod:
                rec.check(
                    f"hermitian_norm_n@t{t}", d, abs(norm - n) <= 1e-8 * n, abs(norm - n)
                )
                b3 = _gaussian(rng, n, n)
                before = numerical_range_samples(b3, 16)
                after = numerical_range_samples(a.data * b3, 16)
                gap = max(abs(x[1] - y[1]) for x, y in zip(before, after))
                rec.check(f"range_support@t{t}", d, gap <= 1e-8, gap)
        else:
            f = mixed_scaling(rng, n)
            data = perturb_off_diagonal(rng, build_from_scaling(f).data, 1e-3)
            d = _digest(data)
            cert = certify_multiplicative(data, tol, trials=4, seed=_sub_seed(rng))
            comp = cert.composite_conditions()
            rec.check(
                f"refuted_unanimously@t{t}",
                d,
                not any(comp.values()) and not cert.verdict,
                1.0 if any(comp.values()) else 0.0,
            )


def _suite_star_battery(rec: VerifyReport, trials: int, seed: int, tol: Tolerance):
    """Star battery: unimodular scalings pass everything, modulus spreads fail together."""
    for t in range(trials):
        rng = _rng(seed, 2, t)
        n = int(rng.integers(2, 13))
        if t % 2 == 0:
            a = build_from_scaling(unimodular_scaling(rng, n))
            d = _digest(a.data)
            cert = certify_star_multiplicative(a, tol)
            worst = max(r.residual for r in cert.conditions.values())
            rec.check(f"star_pass@t{t}", d, cert.verdict, worst)

            norm = operator_norm(a)
            rec.check(f"norm_equals_n@t{t}", d, abs(norm - n) <= 1e-8 * n, abs(norm - n))

            inv = schur_inverse(a, tol)
            res = float(np.abs(schur_product(a, inv).data - 1.0).max())
            rec.check(f"inverse_product_ones@t{t}", d, res <= 1e-12, res)

            expected = np.zeros(n, dtype=np.complex128)
            expected[0] = n
            spec_res = multiset_distance(eigenvalues(inv, tol), expected)
            rec.check(f"inverse_spectrum@t{t}", d, spec_res <= 1e-8 * n, spec_res)

            verdict = correlation_check(a, tol)
            rec.check(
                f"rank_one_correlation@t{t}", d, verdict.rank_one_extreme, float(verdict.rank)
            )
        else:
            a = build_from_scaling(mixed_scaling(rng, n))
            d = _digest(a.data)
            rec.check(
                f"still_multiplicative@t{t}",
                d,
                certify_multiplicative(a, tol, trials=2, seed=_sub_seed(rng)).verdict,
                0.0,
            )
            cert = certify_star_multiplicative(a, tol)
            rec.check(f"star_fail@t{t}", d, not cert.verdict, 0.0)
            quartet = _quartet(a.data, n)
            rec.check(
                f"quartet_agree@t{t}",
                d,
                len(set(quartet.values())) == 1 and not quartet["star"],
                float(sum(quartet.values())),
            )


def _suite_projection_quartet(rec: VerifyReport, trials: int, seed: int, tol: Tolerance):
    """The star / norm-n / projection / map-norm-1 verdicts agree on every instance."""
    for t in range(trials):
        rng = _rng(seed, 3, t)
        n = int(rng.integers(2, 13))
        unimod = t % 2 == 0
        f = unimodular_scaling(rng, n) if unimod else mixed_scaling(rng, n)
        a = build_from_scaling(f)
        d = _digest(a.data)
        quartet = _quartet(a.data, n)
        rec.check(
            f"quartet_agree@t{t}",
            d,
            len(set(quartet.values())) == 1,
            float(sum(quartet.values())),
        )
        rec.check(
            f"quartet_matches_instance@t{t}",
            d,
            quartet["star"] == unimod,
            float(sum(quartet.values())),
        )


def _suite_group(rec: VerifyReport, trials: int, seed: int, tol: Tolerance):
    """Abelian group axioms, Toeplitz subgroup, and the sign enumeration."""
    if trials >= 1:
        for n in range(1, 13):
            members = enumerate_real_positive(n)
            rec.check(
                f"count_n{n}",
                f"n={n}",
                len(members) == 2 ** (n - 1),
                float(len(members)),
            )
            blobs = {dumps_document(matrix_to_document(m)) for m in members}
            rec.check(
                f"distinct_n{n}", f"n={n}", len(blobs) == len(members), float(len(blobs))
            )
            positive = [m for m in members if np.all(m.data.real > 0)]
            all_ones_only = len(positive) == 1 and positive[0] == all_ones(n)
            rec.check(f"positive_is_identity_n{n}", f"n={n}", all_ones_only, float(len(positive)))

    for t in range(trials):
        rng = _rng(seed, 4, t)
        n = int(rng.integers(2, 11))
        a = torus_param(unimodular_scaling(rng, n - 1))
        b = torus_param(unimodular_scaling(rng, n - 1))
        c = torus_param(unimodular_scaling(rng, n - 1))
        d = _digest(a.data)

        left = schur_product(schur_product(a, b), c).data
        right = schur_product(a, schur_product(b, c)).data
        res = float(np.abs(left - right).max())
        rec.check(f"associative@t{t}", d, res <= 1e-12, res)

        res = float(np.abs(schur_product(a, all_ones(n)).data - a.data).max())
        rec.check(f"identity@t{t}", d, res <= 1e-12, res)

        res = float(np.abs(schur_product(a, schur_inverse(a)).data - 1.0).max())
        rec.check(f"inverse@t{t}", d, res <= 1e-12, res)

        res = float(np.abs(schur_product(a, b).data - schur_product(b, a).data).max())
        rec.check(f"commutative@t{t}", d, res <= 1e-12, res)

        lam = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random()))
        tm = toeplitz_member(lam, n).data
        shift = float(np.abs(tm[1:, 1:] - tm[:-1, :-1]).max()) if n > 1 else 0.0
        rec.check(f"toeplitz_constant_diagonals@t{t}", _digest(tm), shift == 0.0, shift)
        cocycle = check_cocycle(tm, tol)
        rec.check(
            f"toeplitz_multiplicative@t{t}",
            _digest(tm),
            cocycle.passed,
            cocycle.residual,
        )

        f2 = mixed_scaling(rng, 2)
        a2 = build_from_scaling(f2)
        t2 = toeplitz_member(complex(a2.data[0, 1]), 2)
        res = float(np.abs(a2.data - t2.data).max() / np.abs(a2.data).max())
        rec.check(f"two_by_two_is_toeplitz@t{t}", _digest(a2.data), res <= 1e-12, res)


def _suite_torus(rec: VerifyReport, trials: int, seed: int, tol: Tolerance):
    """The first-row parametrization is a group isomorphism onto the positive members."""
    for t in range(trials):
        rng = _rng(seed, 5, t)
        n = int(rng.integers(2, 13))
        z = unimodular_scaling(rng, n - 1)
        w = unimodular_scaling(rng, n - 1)
        a, b = torus_param(z), torus_param(w)
        d = _digest(a.data)

        res = float(np.abs(schur_product(a, b).data - torus_param(z * w).data).max())
        rec.check(f"homomorphism@t{t}", d, res <= 1e-12, res)

        row = float(np.abs(a.data[0, 1:] - z).max())
        rec.check(f"first_row_recovered@t{t}", d, row == 0.0, row)

        cert = certify_star_multiplicative(a, tol)
        worst = max(r.residual for r in cert.conditions.values())
        rec.check(f"star_certified@t{t}", d, cert.verdict, worst)

        res = float(np.abs(schur_inverse(a).data.conj() - a.conj_transpose().data).max())
        rec.check(f"adjoint_is_conj_inverse@t{t}", d, res <= 1e-12, res)

    if trials >= 1:
        j = torus_param(np.ones(3, dtype=np.complex128))
        rec.check("identity_coordinates", _digest(j.data), j == all_ones(4), 0.0)


def _suite_completion(rec: VerifyReport, trials: int, seed: int, tol: Tolerance):
    """Spanning-tree recovery, tree independence, and cycle reporting."""
    for t in range(trials):
        rng = _rng(seed, 6, t)
        n = int(rng.integers(3, 13))
        unimod = t % 2 == 0
        f = unimodular_scaling(rng, n) if unimod else mixed_scaling(rng, n)
        a = build_from_scaling(f)
        d = _digest(a.data)
        edges = random_spanning_tree_mask(rng, n)

        entries = np.zeros((n, n), dtype=np.complex128)
        mask = np.zeros((n, n), dtype=bool)
        for i, j in edges:
            entries[i, j] = a.data[i, j]
            mask[i, j] = True
        partial = PartialMatrix(entries=entries, mask=mask)

        report = complete_partial(partial, tol, star_preserving=False)
        if report.status != COMPLETED:
            rec.check(f"tree_recovers@t{t}", d, False, np.inf)
        else:
            res = operator_norm(report.matrix.data - a.data) / operator_norm(a)
            rec.check(f"tree_recovers@t{t}", d, res <= 1e-9, res)

            perm = rng.permutation(n)
            shuffled = PartialMatrix(
                entries=entries[np.ix_(perm, perm)], mask=mask[np.ix_(perm, perm)]
            )
            report2 = complete_partial(shuffled, tol, star_preserving=False)
            if report2.status != COMPLETED:
                rec.check(f"tree_independent@t{t}", d, False, np.inf)
            else:
                inv = np.argsort(perm)
                back = report2.matrix.data[np.ix_(inv, inv)]
                res = float(np.abs(back - report.matrix.data).max())
                rec.check(f"tree_independent@t{t}", d, res <= 1e-10, res)

        # one redundant edge, perturbed: must flag a cycle through that edge
        non_tree = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and not mask[i, j] and not mask[j, i]
        ]
        pi, pj = non_tree[int(rng.integers(len(non_tree)))]
        entries2 = entries.copy()
        mask2 = mask.copy()
        entries2[pi, pj] = a.data[pi, pj] * (1.0 + 1e-3)
        mask2[pi, pj] = True
        report3 = complete_partial(
            PartialMatrix(entries=entries2, mask=mask2), tol, star_preserving=False
        )
        flagged = report3.status == INCONSISTENT and report3.violations
        through = flagged and all(
            _cycle_contains_edge(v.cycle, pi + 1, pj + 1) for v in report3.violations
        )
        rec.check(f"perturbation_flagged@t{t}", d, bool(flagged and through), 1e-3)

        if unimod:
            star_report = complete_partial(partial, tol, star_preserving=True)
            if star_report.status != COMPLETED:
                rec.check(f"log_symmetry@t{t}", d, False, np.inf)
            else:
                b = log_coordinates(star_report.matrix)
                imag = float(np.abs(b.imag).max())
                wrap = np.mod(b.real + b.real.T, 1.0)
                res = float(np.minimum(wrap, 1.0 - wrap).max())
                rec.check(
                    f"log_symmetry@t{t}", d, imag <= 1e-9 and res <= 1e-9, max(imag, res)
                )


def _cycle_contains_edge(cycle: tuple[int, ...], i: int, j: int) -> bool:
    pairs = list(zip(cycle, cycle[1:])) + [(cycle[-1], cycle[0])]
    return any({u, v} == {i, j} for u, v in pairs)


def _suite_schatten(rec: VerifyReport, trials: int, seed: int, tol: Tolerance):
    """Corner coherence, unimodularity of Hermitian generators, norm bounds, divergence."""
    if trials >= 1:
        for gen, label in (
            (toeplitz_generator(np.exp(2j * np.pi / 7)), "toeplitz_unimodular"),
            (toeplitz_generator(1.0), "all_ones"),
        ):
            for n in (2, 4, 8, 16, 32, 64):
                lb = unboundedness_witness(gen, n, tol).lower_bound
                rec.check(
                    f"divergence_{label}_n{n}",
                    label,
                    lb >= n * (1.0 - 1e-10),
                    float(n - lb),
                )

    for t in range(trials):
        rng = _rng(seed, 7, t)
        m = int(rng.integers(2, 13))
        unimod = t % 2 == 0
        values = unimodular_scaling(rng, 2 * m) if unimod else mixed_scaling(rng, 2 * m)
        gen = scaling_generator(values)
        d = _digest(values.reshape(1, -1))

        small = corner(gen, m)
        g1 = factor_scaling(small, tol).values
        g2 = factor_scaling(corner(gen, 2 * m), tol).values
        ratio = g2[:m] / g1
        res = float(np.abs(ratio - ratio[0]).max() / abs(ratio[0]))
        rec.check(f"corner_coherent@t{t}", d, res <= 1e-10, res)

        if unimod:
            block = small.data
            herm = float(np.abs(block - block.conj().T).max())
            mod = float(np.abs(np.abs(block) - 1.0).max())
            rec.check(f"hermitian_unimodular@t{t}", d, herm <= 1e-10 and mod <= 1e-10, max(herm, mod))

        block = corner(gen, min(m, 8))
        bound = compact_bound_check(gen, min(m, 8), trials=20, seed=_sub_seed(rng))
        sup = float(np.abs(block.data).max())
        rec.check(f"compact_bound@t{t}", d, bound <= sup + 1e-10, bound - sup)


def _suite_extreme(rec: VerifyReport, trials: int, seed: int, tol: Tolerance):
    """Rank-one extremity of the certified families; isometry detection."""
    if trials >= 1:
        for m in enumerate_real_positive(5):
            v = correlation_check(m, tol)
            rec.check(
                "enumeration_extreme", _digest(m.data), v.rank_one_extreme, float(v.rank)
            )

    for t in range(trials):
        rng = _rng(seed, 8, t)
        n = int(rng.integers(2, 9))
        a = torus_param(unimodular_scaling(rng, n - 1))
        b = torus_param(unimodular_scaling(rng, n - 1))
        d = _digest(a.data)

        v = correlation_check(a, tol)
        rec.check(f"torus_extreme@t{t}", d, v.rank_one_extreme, float(v.rank))

        vi = correlation_check(identity(n), tol)
        rec.check(
            f"identity_not_extreme@t{t}",
            d,
            vi.is_correlation and not vi.rank_one_extreme and vi.rank == n,
            float(vi.rank),
        )

        if float(np.abs(a.data - b.data).max()) > 1e-6:
            mid = correlation_check((a.data + b.data) / 2.0, tol)
            rec.check(
                f"midpoint_not_extreme@t{t}",
                d,
                mid.rank >= 2 and not mid.rank_one_extreme,
                float(mid.rank),
            )

        q, _ = np.linalg.qr(_gaussian(rng, n, n))
        iso = isometry_check(q, tol)
        good = (
            iso.isometry
            and iso.coisometry
            and iso.scalar_multiple is not None
            and abs(iso.scalar_multiple - 1.0) <= 1e-10
        )
        rec.check(f"unitary_isometry@t{t}", _digest(q), good, 0.0 if good else 1.0)

        rec.check(
            f"coefficient_projection@t{t}",
            d,
            projection_check(a, tol),
            0.0,
        )


_SUITES = {
    "thm21": _suite_product_rule_equivalence,
    "thm24": _suite_star_battery,
    "prop26": _suite_projection_quartet,
    "group": _suite_group,
    "torus": _suite_torus,
    "completion": _suite_completion,
    "schatten": _suite_schatten,
    "extreme": _suite_extreme,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(
    suite: str,
    trials: int = 100,
    seed: int = 0,
    tol: Tolerance | None = None,
) -> VerifyReport:
    """Run one named suite (or "all") and return its report."""
    tol = tol or DEFAULT_TOL
    if suite != "all" and suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES + ('all',)}")
    _require_seed(seed)
    report = VerifyReport(suite=suite, trials=trials, seed=seed)
    start = time.perf_counter()
    names = SUITE_NAMES if suite == "all" else (suite,)
    for name in names:
        _SUITES[name](report, trials, seed, tol)
    report.elapsed = time.perf_counter() - start
    return report
