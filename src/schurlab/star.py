"""Star-preserving / completely positive battery for unital Schur maps.

Complete positivity is never tested through Choi matrices: for a Schur map it
is equivalent to positive semidefiniteness of the coefficient matrix itself,
which is what the pair-positivity condition checks at O(n^3).

On inputs the ratio test accepts through its pivot split A = u v^T + E, the
battery runs in O(n^2): ||A - A*||_2, the normality commutator and the
smallest eigenvalues of the Hermitian parts of A and of its Schur inverse
are bounded from that split, the one ``multiplicative._facts`` holds, and
from one more ``_Split`` of the Schur inverse through the same column, with
rounding allowances; that second split forms its E once and computes no
|E|. A condition whose bounds are all within half their thresholds passes
with the bounds as its residual, certified upper bounds on the exact ones.
Any other condition, every failing one included, reads each part off the
low-rank forms ``multiplicative._low_rank`` of A and of its Schur inverse,
which splits on the same rows and columns: ||A||_2, ||A - A*||_2 and the
commutator are T's, the Hermitian parts' smallest eigenvalues those of
(T + T*)/2 or 0, each with a span that holds LAPACK's value under the QR
error model ``_low_rank`` states. A part whose span leaves its verdict open
runs the O(n^3) code. The unit-diagonal precondition is
decided in O(n) before anything else, so a refusal costs no ratio test; the
ratio test, the low-rank form of A, its SVD and its spectrum come from
``_facts``, computed once per matrix and tolerance for every
multiplicativity call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    _DOWN,
    DEFAULT_TOL,
    Tolerance,
    _spectral_norm,
    as_matrix,
    require_square,
    schur_inverse,
)
from .errors import PreconditionError, ZeroEntryError
from .multiplicative import (
    _EPS,
    _SQRT_HUGE,
    ConditionResult,
    _bounded,
    _condition,
    _decide,
    _either,
    _facts,
    _fro,
    _known,
    _lapack,
    _low_rank,
    _LowRank,
    _nanmax,
    _Split,
    _split,
    _unit_diagonal,
)

__all__ = [
    "STAR_CONDITIONS",
    "StarCertificate",
    "is_positive_semidefinite",
    "is_unimodular",
    "projection_check",
    "certify_star_multiplicative",
]

STAR_CONDITIONS = (
    "star_and_multiplicative",
    "cp_isomorphism_proxy",
    "rank_one_normal_unit_diag",
    "rank_one_unimodular_unit_diag",
    "selfadjoint_spectrum_norm",
    "schur_pair_positive",
)

# The normality commutator compounds two matrix products, so it gets a looser
# relative threshold than the base tolerance.
COMMUTATOR_REL = 1e-8


def _skew_norm(data: np.ndarray) -> float:
    """||A - A*||_2, the distance from A to the Hermitian matrices."""
    return _spectral_norm(data - data.conj().T)


@np.errstate(over="ignore", invalid="ignore")  # overflow is detected and rescaled below
def _psd_residual(
    data: np.ndarray, tol: Tolerance, norm: float | None = None, herm: float | None = None
) -> tuple[bool, float]:
    """PSD verdict and residual; ``norm`` = ||A||_2 and ``herm`` = ||A - A*||_2
    are computed here unless the caller already has them.

    Where ||A||_2, ||A - A*||_2 or the Hermitian part overflowed, the test is
    taken on A * 2^-1000 against the floor scaled alike, as
    ``core._matrix_rank`` counts: a power of two scales every term exactly,
    and the residual is a ratio to the norm, which is then far above 1.
    """
    if norm is None:
        norm, herm = _spectral_norm(data), _skew_norm(data)
    floor = tol.abs
    sym = (data + data.conj().T) / 2.0
    if not (math.isfinite(norm) and math.isfinite(herm) and np.isfinite(sym).all()):
        data = data * _DOWN
        norm, herm, floor = _spectral_norm(data), _skew_norm(data), floor * _DOWN
        sym = (data + data.conj().T) / 2.0
    lam_min = float(np.linalg.eigvalsh(sym)[0])
    thr = max(tol.rel * norm, floor)
    passed = herm <= thr and lam_min >= -thr
    scale = max(norm, 1.0)
    residual = _nanmax(herm, -lam_min) / scale  # herm >= 0, so never below 0
    return passed, residual


def is_positive_semidefinite(a, tol: Tolerance | None = None) -> bool:
    """Hermitian to tolerance with no eigenvalue below -tol * ||A||."""
    m = as_matrix(a)
    require_square(m)
    tol = tol or DEFAULT_TOL
    passed, _ = _psd_residual(m.data, tol)
    return passed


def is_unimodular(a, tol: Tolerance | None = None) -> bool:
    """Every entry has modulus 1 to tolerance."""
    tol = tol or DEFAULT_TOL
    m = as_matrix(a)
    return float(np.abs(np.abs(m.data) - 1.0).max()) <= tol.threshold(1.0)


def projection_check(a, tol: Tolerance | None = None) -> bool:
    """Whether A/n is an orthogonal projection (idempotent and Hermitian)."""
    m = as_matrix(a)
    n = require_square(m)
    tol = tol or DEFAULT_TOL
    p = m.data / n
    thr = tol.threshold(_spectral_norm(p))
    return _spectral_norm(p @ p - p) <= thr and _skew_norm(p) <= thr


@dataclass
class StarCertificate:
    """Verdicts for the six equivalent star-preserving conditions."""

    verdict: bool
    conditions: dict[str, ConditionResult]
    tolerance: Tolerance = field(default_factory=Tolerance)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "conditions": {name: r.to_dict() for name, r in self.conditions.items()},
            "tolerance": self.tolerance.to_dict(),
        }


def _psd_low_rank(lr: _LowRank, tol: Tolerance) -> tuple[bool, float] | None:
    """``_psd_residual`` from a low-rank form where its spans decide both
    tests, else None. The threshold moves with ||x||_2, so each test must
    hold, or fail, at both ends of the norm's span."""
    norm, skew, low = lr.norm(), lr.skew(), lr.lam_min()
    thr_lo, thr_hi = tol.threshold(max(norm.lo, 0.0)), tol.threshold(norm.hi)
    herm_ok = True if skew.hi < thr_lo else False if skew.lo > thr_hi else None
    low_ok = True if low.lo > -thr_lo else False if low.hi < -thr_hi else None
    if herm_ok is False or low_ok is False:
        passed = False
    elif herm_ok and low_ok:
        passed = True
    else:
        return None
    return passed, _nanmax(skew.value, -low.value) / max(norm.value, 1.0)


def _commutator_norm(data: np.ndarray) -> float:
    """||A A* - A* A||_2, two n-by-n products and an SVD."""
    return _spectral_norm(data @ data.conj().T - data.conj().T @ data)


def _psd_bound(x: np.ndarray, split: _Split, skew: float, tol: Tolerance) -> float:
    """Upper bound on the ``_psd_residual`` residual of x when it certifies a
    pass, else inf, from the ``split`` of x and ``skew`` >= the computed
    ||x - x*||_2.

    With c = x_:p, the split's column, cc* is positive semidefinite, so by
    Weyl's inequality the Hermitian part H has lambda_min >= -||H - cc*||_F;
    the computed outer product is off by at most _EPS |c_i| |c_j|, and
    eigvalsh adds ``_lapack``. A pass is certified when that and ``skew``
    are within half the threshold at the split's lower bound on ||x||_2.
    """
    c = split.u
    gap = x + x.conj().T  # in place from here: H, then H - cc*
    gap *= 0.5
    gap -= np.outer(c, c.conj())
    below = _fro(gap) * (1 + _EPS) + _EPS * _fro(c) ** 2
    worst = _nanmax(skew, (below + _lapack(x.shape[0], split.fro)) * (1 + _EPS))
    if not worst < 0.5 * tol.threshold(split.sigma1):
        return math.inf
    return worst / max(split.sigma1, 1.0)


def _commutator_bound(fro: float, skew: float, n: int) -> float:
    """Upper bound on the computed ||A A* - A* A||_2 from ``fro`` >= ||A||_F
    and ``skew`` >= ||A - A*||_2; inf where the products could overflow.

    A A* - A* A = A (A* - A) - (A* - A) A, so its Frobenius norm is at most
    2 ||A||_2 ||A - A*||_F; each computed product is off by at most
    (n + 4) _EPS ||A||_F^2 in Frobenius norm, and the SVD adds ``_lapack``.
    """
    if not fro < _SQRT_HUGE:
        return math.inf
    comm = 2 * fro * skew + 2 * (n + 4) * _EPS * fro * fro
    return comm * (1 + _EPS) * (1 + (n + 2) * _EPS)


@np.errstate(over="ignore", invalid="ignore")  # overflowed residuals fail closed
def certify_star_multiplicative(a, tol: Tolerance | None = None) -> StarCertificate:
    """Run the star-preserving battery on a unital coefficient matrix.

    Requires a unit diagonal (the battery is stated for unital Schur maps);
    anything else raises PreconditionError, as does the zero map where the
    tolerance lets its diagonal pass. Residuals are scale-normalized so they
    are comparable across conditions.

    When the ratio test accepts through the pivot bound, the O(n^3) parts
    (the SVDs for ||A||_2 and ||A - A*||_2, the commutator, and the
    eigensolves of the Hermitian parts of A and its Schur inverse) are
    replaced by O(n^2) bounds from ``_Facts.bounds`` and its split,
    ``_commutator_bound`` and ``_psd_bound`` wherever those are within half
    the threshold; a passing condition then reports the bound, a certified
    upper bound on the exact residual. A condition with any undecided part
    evaluates all its parts, each from the low-rank forms of A and of its
    Schur inverse where their span decides it (``_psd_low_rank``)
    and from the O(n^3) code otherwise, so a failing condition reports a
    residual within its span of the exact one, with LAPACK's verdict.
    """
    m = as_matrix(a)
    n = require_square(m)
    tol = tol or DEFAULT_TOL
    data = m.data
    one = tol.threshold(1.0)
    unit_diagonal = _unit_diagonal(data, tol)[0]  # O(n), so a refusal costs no ratio test
    if not unit_diagonal.passed:
        raise PreconditionError(
            "unit diagonal required for the star battery, "
            f"worst deviation {unit_diagonal.residual:.3e}"
        )
    facts = _facts(m, tol)
    facts.require_nonzero()  # a zero map gets here only where the tolerance at scale 1 is >= 1
    b = facts.bounds
    comm_thr = max(COMMUTATOR_REL, tol.rel)

    # where the bounds leave a condition open: the low-rank forms of A and
    # its Schur inverse where they decide it, else the O(n^3) code
    herm = functools.cache(lambda: _skew_norm(data))

    def norm():
        return float(facts.singular_values[0])

    def from_low_rank(verdict):
        return lambda: None if facts.low_rank is None else verdict(facts.low_rank)

    def herm_exact():
        herm_res = herm() / max(norm(), 1.0)
        return herm_res <= one, herm_res

    def comm_exact():
        a_norm = norm()
        comm_res = _commutator_norm(data) / max(a_norm * a_norm, 1.0)
        return comm_res <= comm_thr, comm_res

    sigma1, fro = (b.split.sigma1, b.split.fro) if b.split else (0.0, math.inf)
    herm_part = _bounded(
        b.skew / max(sigma1, 1.0), 0.5 * one,
        lambda: _either(from_low_rank(lambda lr: lr.skew().over(lr.norm()).verdict(one)), herm_exact),
    )
    comm_bound = _commutator_bound(fro, b.skew, n) / max(sigma1 * sigma1, 1.0)
    comm_part = _bounded(
        comm_bound, 0.5 * comm_thr,
        lambda: _either(from_low_rank(lambda lr: lr.commutator().over(lr.norm(), 2).verdict(comm_thr)), comm_exact),
    )
    unimod_res = float(np.abs(np.abs(data) - 1.0).max())
    if facts.scaling is not None:
        map_norm_res = abs(facts.scaling.modulus_ratio - 1.0)
    else:
        map_norm_res = math.inf

    try:
        inv = schur_inverse(m, tol).data
    except ZeroEntryError:
        pair = _condition(False, math.inf)
    else:
        psd_a = psd_inv = math.inf
        if b.split is not None:
            psd_a = _psd_bound(data, b.split, b.skew, tol)
            # column p of the Schur inverse is 1/u, so for a multiplicative A
            # it splits through p as well: 1/a_ij = (1/a_ip)(1/a_pj)
            inv_skew = _fro(inv - inv.conj().T)
            inv_split = _split(inv, b.split.p)[0]
            psd_inv = _psd_bound(inv, inv_split, inv_skew + _lapack(n, inv_skew), tol)

        def inv_low_rank():
            # off A's support 1/a_ij - (1/a_ip)(1/a_pj) = -E_ij / (a_ij a_ip a_pj)
            # is rounding as well, so the inverse splits on the same lines
            split = facts.split
            if split is None or split.support is None:
                return None
            lr = _low_rank(inv, split.p, split.support, _fro(inv))
            return None if lr is None else _psd_low_rank(lr, tol)

        inv_diag_res = float(np.abs(np.diagonal(inv) - 1.0).max())
        pair = _decide(
            _bounded(psd_a, math.inf, lambda: _either(
                from_low_rank(lambda lr: _psd_low_rank(lr, tol)),
                lambda: _psd_residual(data, tol, norm(), herm()),
            )),
            _bounded(psd_inv, math.inf, lambda: _either(inv_low_rank, lambda: _psd_residual(inv, tol))),
            _known(inv_diag_res <= one, inv_diag_res),
        )

    rank_one = facts.rank_one()
    conditions = {
        "star_and_multiplicative": _decide(
            _known(facts.cocycle.passed, facts.cocycle.residual / max(facts.scale * facts.scale, 1.0)),
            herm_part,
        ),
        # For a Schur map the CP-isomorphism condition reduces to pair
        # positivity of A and its Schur inverse, so these two frozen names
        # report one computed test.
        "cp_isomorphism_proxy": pair,
        "rank_one_normal_unit_diag": _decide(rank_one, comm_part),
        "rank_one_unimodular_unit_diag": _decide(rank_one, _known(unimod_res <= one, unimod_res)),
        "selfadjoint_spectrum_norm": _decide(
            herm_part, facts.spectrum(one, per=n), _known(map_norm_res <= one, map_norm_res)
        ),
        "schur_pair_positive": pair,
    }
    verdict = all(r.passed for r in conditions.values())
    return StarCertificate(verdict=verdict, conditions=conditions, tolerance=tol)
