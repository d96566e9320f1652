"""Star-preserving / completely positive battery for unital Schur maps.

Complete positivity is never tested through Choi matrices: for a Schur map it
is equivalent to positive semidefiniteness of the coefficient matrix itself,
which is what the pair-positivity condition checks at O(n^3).

Every O(n^3) part (||A||_2, ||A - A*||_2, the normality commutator and the
smallest eigenvalues of the Hermitian parts of A and of its Schur inverse) is
read off the same forms as the multiplicative battery's, in the same order,
by the same loop (``multiplicative._decide``), from the conditions of one
table, ``_STAR``. Where the ratio test accepts through its pivot
split A = u v^T + E, the first is the c = 0 form ``_closed`` of A and of the
Schur inverse, split once more through the same column (forming its E once
and no |E|): closed forms of a 2-by-2 T, whose spans rest on LAPACK's error
model ``_lapack`` alone, with no QR. A condition passes where every part's
span lies below its threshold, and reports the upper ends, certified upper
bounds on the exact residuals. Any other part reads an O(n^2) lower bound on
what LAPACK computes for it (the ``*_bound`` readers of ``multiplicative``'s
facts and forms: a skew entry for ||x - x*||_2, two rows of A A* - A* A, a
2-by-2 minor and tr(A^2)), which fails it where it clears the threshold;
then the support forms of A and of its Schur inverse: on a clean split,
with no entry of E above rounding, the c = 0 forms again, at every n (read
before the bounds), and from n = 24 on
``_low_rank``, split on the same rows and columns of E under the error model
of the QR that builds them; then the O(n^3) code where their spans leave a
part open. The unit-diagonal precondition is decided in O(n) before
anything else, so a refusal costs no ratio test; the ratio test, A's forms,
its SVD, ||A - A*||_2 and its spectrum come from ``_facts``, computed once
per bitwise-equal matrix and tolerance for every multiplicativity call, and
the Schur inverse's forms are built once per call (``_Facts.forms_of``).
"""

from __future__ import annotations

import math
from functools import partial
from dataclasses import dataclass, field

import numpy as np

from .core import (
    _DOWN,
    DEFAULT_TOL,
    Tolerance,
    _nanmax,
    _skew_norm,
    _spectral_norm,
    as_matrix,
    require_square,
    schur_inverse,
)
from .errors import PreconditionError, ZeroEntryError
from .multiplicative import ConditionResult, _decide, _facts

__all__ = [
    "STAR_CONDITIONS",
    "StarCertificate",
    "is_positive_semidefinite",
    "is_unimodular",
    "projection_check",
    "certify_star_multiplicative",
]

# Each condition: the key of its threshold and the names of its parts, as
# ``certify_star_multiplicative`` fills them in (``_decide``).
_STAR = {
    "star_and_multiplicative": ("one", "cocycle", "hermitian"),
    # For a Schur map the CP-isomorphism condition reduces to pair
    # positivity of A and its Schur inverse, so these two frozen names
    # report one computed test.
    "cp_isomorphism_proxy": ("one", "psd", "inverse_psd", "inverse_diagonal"),
    "rank_one_normal_unit_diag": ("commutator", "rank_one", "normal"),
    "rank_one_unimodular_unit_diag": ("one", "rank_one", "unimodular"),
    "selfadjoint_spectrum_norm": ("one", "hermitian", "spectrum", "map_norm"),
    "schur_pair_positive": ("one", "psd", "inverse_psd", "inverse_diagonal"),
}
STAR_CONDITIONS = tuple(_STAR)

# The normality commutator compounds two matrix products, so it gets a looser
# relative threshold than the base tolerance.
COMMUTATOR_REL = 1e-8


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


def _psd_form(form, tol: Tolerance) -> tuple[bool, float, float] | None:
    """``_psd_residual`` from a form where its spans decide both tests, with
    the residual's upper end; else None. The threshold moves with ||x||_2,
    so each test must hold, or fail, at both ends of the norm's span."""
    norm, skew, low = form.norm(), form.skew(), form.lam_min()
    thr_lo, thr_hi = tol.threshold(max(norm.lo, 0.0)), tol.threshold(norm.hi)
    herm_ok = True if skew.hi < thr_lo else False if skew.lo > thr_hi else None
    low_ok = True if low.lo > -thr_lo else False if low.hi < -thr_hi else None
    if None in (herm_ok, low_ok) and False not in (herm_ok, low_ok):
        return None  # neither test fails, and one is open
    value = _nanmax(skew.value, -low.value) / max(norm.value, 1.0)
    return bool(herm_ok and low_ok), value, _nanmax(skew.hi, -low.lo) / max(norm.lo, 1.0)


def _commutator_norm(data: np.ndarray) -> float:
    """||A A* - A* A||_2, two n-by-n products and an SVD."""
    return _spectral_norm(data @ data.conj().T - data.conj().T @ data)


def _hermitian(form):
    """``hermitian``'s form reader: ||x - x*||_2 / max(||x||_2, 1)."""
    return form.skew().over(form.norm())


def _hermitian_lapack(facts) -> float:
    """``hermitian``'s O(n^3) reader, from the SVDs of A and A - A*."""
    return facts.skew_norm / max(float(facts.singular_values[0]), 1.0)


def _normal(form):
    """``normal``'s form reader: ||x x* - x* x||_2 / max(||x||_2^2, 1)."""
    return form.commutator().over(form.norm(), 2)


def _normal_lapack(facts) -> float:
    """``normal``'s O(n^3) reader: two n-by-n products and an SVD."""
    norm = float(facts.singular_values[0])  # squared by a product, which overflows to inf where ** raises
    return _commutator_norm(facts.x) / max(norm * norm, 1.0)


def _psd_lapack(facts) -> tuple[bool, float]:
    """``psd``'s O(n^3) reader for A, sharing ||A||_2 and ||A - A*||_2 with
    the other parts."""
    return _psd_residual(facts.x, facts.tol, float(facts.singular_values[0]), facts.skew_norm)


@np.errstate(over="ignore", invalid="ignore")  # overflowed residuals fail closed
def certify_star_multiplicative(a, tol: Tolerance | None = None) -> StarCertificate:
    """Run the star-preserving battery on a unital coefficient matrix.

    Requires a unit diagonal (the battery is stated for unital Schur maps);
    anything else raises PreconditionError, as does the zero map where the
    tolerance lets its diagonal pass. Residuals are scale-normalized so they
    are comparable across conditions.

    Every O(n^3) part (the SVDs for ||A||_2 and ||A - A*||_2, the
    commutator, and the eigensolves of the Hermitian parts of A and its Schur
    inverse) reads the c = 0 forms of A and of its Schur inverse where the
    ratio test accepted through the pivot split, then their support forms
    (the c = 0 forms again on a clean split, at every n; the low-rank forms
    on a few lines of E from n = 24 on), and the O(n^3) code where no span
    decides it (``_psd_form``). Before the support forms and LAPACK, each of
    them reads its O(n^2) lower bound, which fails it where it clears the
    threshold by LAPACK's allowance. On the accept path and on a clean split
    the spans rest on LAPACK's error model alone, with no QR model. A
    passing condition reports the spans' upper ends, certified upper bounds
    on the exact residuals. A failing one reports the worst of its failing
    parts: a bound, a certified lower bound on LAPACK's value; a form's value,
    within its span of LAPACK's; or LAPACK's value where neither decides; a
    part that a failing condition does not need is not read. A
    multiplicative input of mixed modulus thus fails its conditions with no
    SVD or eigensolve at any n, and so does an input the bounds reject. The
    conditions are ``_STAR``'s, decided by ``multiplicative._decide``, each
    with the ``route`` that decided it.
    """
    m = as_matrix(a)
    n = require_square(m)
    tol = tol or DEFAULT_TOL
    data = m.data
    one = tol.threshold(1.0)
    diagonal = float(np.abs(np.diagonal(data) - 1.0).max())  # O(n), so a refusal costs no ratio test
    if not diagonal <= one:
        raise PreconditionError(
            "unit diagonal required for the star battery, "
            f"worst deviation {diagonal:.3e}"
        )
    facts = _facts(m, tol)
    facts.require_nonzero()  # a zero map gets here only where the tolerance at scale 1 is >= 1
    psd = partial(_psd_form, tol=tol)
    parts = {
        "cocycle": (facts.cocycle.passed, facts.cocycle.residual / max(facts.scale * facts.scale, 1.0)),
        "hermitian": (facts, _hermitian, partial(_hermitian_lapack, facts), facts.hermitian_bound),
        "psd": (facts, psd, partial(_psd_lapack, facts), partial(facts.psd_bound, tol)),
        "normal": (facts, _normal, partial(_normal_lapack, facts), facts.normal_bound),
        "rank_one": (facts, facts.read_rank_one, facts.lapack_rank_one, lambda: facts.rank_one_bound),
        "unimodular": float(np.abs(np.abs(data) - 1.0).max()),
        "spectrum": (
            facts,
            partial(facts.read_spectrum, per=n),
            partial(facts.lapack_spectrum, per=n),
            lambda: facts.spectrum_bound / n,
        ),
        "map_norm": abs(facts.scaling.modulus_ratio - 1.0) if facts.scaling is not None else math.inf,
    }
    try:
        inv = schur_inverse(m, tol).data
    except ZeroEntryError:
        parts["psd"] = parts["inverse_psd"] = parts["inverse_diagonal"] = (False, math.inf)
    else:
        forms = facts.forms_of(inv)
        parts["inverse_psd"] = (forms, psd, partial(_psd_residual, inv, tol), partial(forms.psd_bound, tol))
        parts["inverse_diagonal"] = float(np.abs(np.diagonal(inv) - 1.0).max())
    conditions = _decide(_STAR, {"one": one, "commutator": max(COMMUTATOR_REL, tol.rel)}, parts)
    verdict = all(r.passed for r in conditions.values())
    return StarCertificate(verdict=verdict, conditions=conditions, tolerance=tol)
