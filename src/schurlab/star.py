"""Star-preserving / completely positive battery for unital Schur maps.

Complete positivity is never tested through Choi matrices: for a Schur map it
is equivalent to positive semidefiniteness of the coefficient matrix itself,
which is what the pair-positivity condition checks at O(n^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TOL,
    Tolerance,
    _spectral_norm,
    as_matrix,
    require_square,
    schur_inverse,
)
from .errors import PreconditionError, ZeroEntryError
from .multiplicative import ConditionResult, _condition, _facts, _nanmax

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


@np.errstate(over="ignore", invalid="ignore")  # an overflowed Hermitian part fails closed
def _psd_residual(
    data: np.ndarray, tol: Tolerance, norm: float | None = None, herm: float | None = None
) -> tuple[bool, float]:
    """PSD verdict and residual; ``norm`` = ||A||_2 and ``herm`` = ||A - A*||_2
    are computed here unless the caller already has them."""
    if norm is None:
        norm, herm = _spectral_norm(data), _skew_norm(data)
    sym = (data + data.conj().T) / 2.0
    lam_min = float(np.linalg.eigvalsh(sym)[0])
    thr = tol.threshold(norm)
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


@np.errstate(over="ignore", invalid="ignore")  # overflowed residuals fail closed
def certify_star_multiplicative(a, tol: Tolerance | None = None) -> StarCertificate:
    """Run the star-preserving battery on a unital coefficient matrix.

    Requires a unit diagonal (the battery is stated for unital Schur maps);
    anything else raises PreconditionError. Residuals are scale-normalized so
    they are comparable across conditions.
    """
    m = as_matrix(a)
    n = require_square(m)
    tol = tol or DEFAULT_TOL
    data = m.data
    one = tol.threshold(1.0)

    diag_res = float(np.abs(np.diagonal(data) - 1.0).max())
    if diag_res > one:
        raise PreconditionError(
            f"unit diagonal required for the star battery, worst deviation {diag_res:.3e}"
        )

    facts = _facts(m, tol)
    norm = float(facts.singular_values[0])
    herm = _skew_norm(data)
    herm_res = herm / max(norm, 1.0)

    comm = data @ data.conj().T - data.conj().T @ data
    comm_res = _spectral_norm(comm) / max(norm * norm, 1.0)
    unimod_res = float(np.abs(np.abs(data) - 1.0).max())
    spec_res = facts.spectrum_distance / n
    if facts.scaling is not None:
        map_norm_res = abs(facts.scaling.modulus_ratio - 1.0)
    else:
        map_norm_res = math.inf

    try:
        inv = schur_inverse(m, tol).data
    except ZeroEntryError:
        pair = _condition(False, math.inf)
    else:
        psd_a_ok, psd_a_res = _psd_residual(data, tol, norm, herm)
        psd_inv_ok, psd_inv_res = _psd_residual(inv, tol)
        inv_diag_res = float(np.abs(np.diagonal(inv) - 1.0).max())
        pair = _condition(
            psd_a_ok and psd_inv_ok and inv_diag_res <= one,
            psd_a_res, psd_inv_res, inv_diag_res,
        )

    rank_one = facts.rank == 1
    conditions = {
        "star_and_multiplicative": _condition(
            facts.cocycle.passed and herm_res <= one,
            facts.cocycle.residual / max(facts.scale * facts.scale, 1.0), herm_res,
        ),
        # For a Schur map the CP-isomorphism condition reduces to pair
        # positivity of A and its Schur inverse, so these two frozen names
        # report one computed test.
        "cp_isomorphism_proxy": pair,
        "rank_one_normal_unit_diag": _condition(
            rank_one and comm_res <= max(COMMUTATOR_REL, tol.rel),
            facts.rank_residual, comm_res,
        ),
        "rank_one_unimodular_unit_diag": _condition(
            rank_one and unimod_res <= one, facts.rank_residual, unimod_res
        ),
        "selfadjoint_spectrum_norm": _condition(
            herm_res <= one and spec_res <= one and map_norm_res <= one,
            herm_res, spec_res, map_norm_res,
        ),
        "schur_pair_positive": pair,
    }
    verdict = all(r.passed for r in conditions.values())
    return StarCertificate(verdict=verdict, conditions=conditions, tolerance=tol)
