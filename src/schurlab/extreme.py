"""Correlation matrices, rank-one extremity, and the isometry test."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_TOL,
    Tolerance,
    _matrix_rank,
    _singular_values,
    _spectral_norm,
    as_matrix,
    require_square,
)
from .star import _psd_residual, _skew_norm

__all__ = ["CorrelationVerdict", "correlation_check", "IsometryResult", "isometry_check"]


@dataclass(frozen=True)
class CorrelationVerdict:
    is_correlation: bool
    rank: int
    rank_one_extreme: bool


def correlation_check(a, tol: Tolerance | None = None) -> CorrelationVerdict:
    """Classify a matrix as a correlation matrix and flag rank-one extremity.

    A correlation matrix is positive semidefinite with unit diagonal. Rank
    one is a sufficient condition for being an extreme point of the set of
    correlation matrices; no attempt is made to decide extremity at higher
    rank.
    """
    m = as_matrix(a)
    require_square(m)
    tol = tol or DEFAULT_TOL
    unit_diag = float(np.abs(np.diagonal(m.data) - 1.0).max()) <= tol.threshold(1.0)
    s = _singular_values(m.data)  # one SVD gives both ||A||_2 and the rank
    psd, _ = _psd_residual(m.data, tol, float(s[0]), _skew_norm(m.data))
    # the PSD threshold grows with ||A||_2, so an overflowed norm would pass
    # any matrix; a correlation matrix has ||A||_2 <= n
    is_corr = psd and unit_diag and bool(np.isfinite(s[0]))
    rank = _matrix_rank(m.data, s, tol)
    return CorrelationVerdict(
        is_correlation=is_corr,
        rank=rank,
        rank_one_extreme=is_corr and rank == 1,
    )


class IsometryResult(NamedTuple):
    isometry: bool
    coisometry: bool
    scalar_multiple: float | None


def _scalar_gram(gram: np.ndarray, tol: Tolerance) -> float | None:
    """c >= 0 with gram = c^2 I to tolerance, if one exists."""
    k = gram.shape[0]
    c2 = float(np.trace(gram).real) / k
    if not -tol.threshold(1.0) <= c2 < np.inf:  # an overflowed Gram matrix has no scale
        return None
    dev = _spectral_norm(gram - c2 * np.eye(k))
    if dev <= tol.threshold(max(abs(c2), 1.0)):
        return float(np.sqrt(max(c2, 0.0)))
    return None


def isometry_check(a, tol: Tolerance | None = None) -> IsometryResult:
    """Test A*A = I and AA* = I, and detect scalar multiples of either.

    Rectangular input is allowed. ``scalar_multiple`` is the scalar c with
    A*A = c^2 I or AA* = c^2 I when either Gram matrix is scalar to
    tolerance, otherwise None.
    """
    m = as_matrix(a)
    tol = tol or DEFAULT_TOL
    data = m.data
    # An entry past about 1e154 overflows the Gram matrices; _spectral_norm
    # reads a non-finite operand as inf, so each test then fails closed.
    with np.errstate(all="ignore"):
        gram_right = data.conj().T @ data
        gram_left = data @ data.conj().T
        iso = _spectral_norm(gram_right - np.eye(m.cols)) <= tol.threshold(1.0)
        coiso = _spectral_norm(gram_left - np.eye(m.rows)) <= tol.threshold(1.0)
        scalar = _scalar_gram(gram_right, tol)
        if scalar is None:
            scalar = _scalar_gram(gram_left, tol)
    return IsometryResult(isometry=iso, coisometry=coiso, scalar_multiple=scalar)
