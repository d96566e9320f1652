"""Correlation matrices, rank-one extremity, and the isometry test."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_TOL,
    Tolerance,
    _half_skew,
    _matrix_rank,
    _singular_values,
    _skew_norm,
    as_matrix,
    require_square,
)
from .multiplicative import _fro, _skew_bounds
from .star import _psd_residual

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
    rank. One SVD gives both ||A||_2 and the rank; the SVD of A - A* runs
    only where max|a_ij - conj(a_ji)| leaves the Hermitian test open
    (``multiplicative._skew_bounds``), and the eigensolve of the PSD test only
    when ||A - A*||_2 passes it.
    """
    m = as_matrix(a)
    n = require_square(m)
    tol = tol or DEFAULT_TOL
    data = m.data
    unit_diag = float(np.abs(np.diagonal(data) - 1.0).max()) <= tol.threshold(1.0)
    s = _singular_values(data)
    norm = float(s[0])
    # the PSD threshold grows with ||A||_2, so an overflowed norm would pass
    # any matrix; a correlation matrix has ||A||_2 <= n. A finite ||A - A*||_2
    # above the threshold fails _psd_residual's Hermitian test before its
    # eigensolve could matter, and a lower bound on it above the threshold
    # before its SVD could.
    is_corr = unit_diag and math.isfinite(norm)
    if is_corr and _skew_bounds(n, _fro(data), _half_skew(data))[0] > tol.threshold(norm):
        is_corr = False
    if is_corr:
        herm = _skew_norm(data)
        is_corr = not (math.isfinite(herm) and herm > tol.threshold(norm))
        is_corr = is_corr and _psd_residual(data, tol, norm, herm)[0]
    rank = _matrix_rank(data, s, tol)
    return CorrelationVerdict(
        is_correlation=is_corr,
        rank=rank,
        rank_one_extreme=is_corr and rank == 1,
    )


class IsometryResult(NamedTuple):
    isometry: bool
    coisometry: bool
    scalar_multiple: float | None


def _gram_deviation(s2: np.ndarray, k: int, c2: float) -> float:
    """||G - c2 I||_2 for a k-by-k Gram matrix G whose eigenvalues are the
    squared singular values ``s2``, padded with zeros to k."""
    dev = float(np.abs(s2 - c2).max())
    return max(dev, abs(c2)) if k > s2.size else dev


def _scalar_gram(s2: np.ndarray, k: int, tol: Tolerance) -> float | None:
    """c >= 0 with G = c^2 I to tolerance, if one exists, for the k-by-k Gram
    matrix G of eigenvalues ``s2`` padded with zeros: c^2 = trace(G) / k."""
    c2 = float(s2.sum()) / k
    if not c2 < np.inf:  # an overflowed (inf or NaN) spectrum has no scale
        return None
    if _gram_deviation(s2, k, c2) <= tol.threshold(max(c2, 1.0)):
        return float(np.sqrt(c2))
    return None


def isometry_check(a, tol: Tolerance | None = None) -> IsometryResult:
    """Test A*A = I and AA* = I, and detect scalar multiples of either.

    Rectangular input is allowed. ``scalar_multiple`` is the scalar c with
    A*A = c^2 I or AA* = c^2 I when either Gram matrix is scalar to
    tolerance, otherwise None. One SVD of A decides all of it: the
    eigenvalues of A*A and of AA* are the squared singular values, padded
    with zeros to each Gram matrix's size, so ||A*A - I||_2 = max|s_i^2 - 1|
    and ||G - c^2 I||_2 = max|s_i^2 - c^2| with c^2 = sum s_i^2 / size.
    """
    m = as_matrix(a)
    tol = tol or DEFAULT_TOL
    # Past about 1e154, s_i^2 overflows to inf (and an SVD that overflowed
    # gives inf or NaN), so every deviation is inf or NaN and each test fails
    # closed.
    with np.errstate(all="ignore"):
        s2 = _singular_values(m.data) ** 2
        iso = _gram_deviation(s2, m.cols, 1.0) <= tol.threshold(1.0)
        coiso = _gram_deviation(s2, m.rows, 1.0) <= tol.threshold(1.0)
        scalar = _scalar_gram(s2, m.cols, tol)
        if scalar is None:
            scalar = _scalar_gram(s2, m.rows, tol)
    return IsometryResult(isometry=iso, coisometry=coiso, scalar_multiple=scalar)
