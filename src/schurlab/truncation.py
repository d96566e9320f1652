"""Finite corners of infinite coefficient matrices.

A generator rule (i, j) -> a_ij with 1-based indices models an infinite
matrix. Probing a finite leading corner can refute an infinite claim
(boundedness, being bounded away from zero) but never fully confirm it, so
the reports here say "consistent with" rather than "proved": boolean flags
are probe-scale statements and the ratio trend across probe sizes is the
divergence indicator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import DEFAULT_TOL, ComplexMatrix, Tolerance
from .errors import DimensionError, PreconditionError, ZeroEntryError
from .multiplicative import ScalingVector, _require_multiplicative

__all__ = [
    "CoefficientGenerator",
    "toeplitz_generator",
    "scaling_generator",
    "table_generator",
    "corner",
    "L2FactorReport",
    "l2_multiplier_factor_check",
    "compact_bound_check",
    "WitnessResult",
    "unboundedness_witness",
]


@dataclass(frozen=True)
class CoefficientGenerator:
    """Pure rule (i, j) -> a_ij, indices 1-based.

    ``rule`` is evaluated elementwise on broadcastable 1-based integer index
    arrays (``corner`` calls it once, on a column of row indices and a row of
    column indices); plain ints still work. ``declared_bound`` is the claimed
    sup |a_ij| when known; ``max_index`` bounds the corners a finitely
    supported rule can produce. The rule must be deterministic so corners are
    reproducible.
    """

    rule: Callable[[np.ndarray, np.ndarray], np.ndarray]
    declared_bound: float | None = None
    max_index: int | None = None
    label: str = ""


def toeplitz_generator(lam: complex) -> CoefficientGenerator:
    """a_ij = lam^(j-i)."""
    lam = complex(lam)
    if lam == 0:
        raise ZeroEntryError("Toeplitz ratio must be nonzero", position=None)

    def rule(i, j):
        offsets = np.subtract(j, i)
        low = offsets.min()
        return (lam ** np.arange(low, offsets.max() + 1))[offsets - low]  # each power once

    return CoefficientGenerator(rule=rule, label=f"toeplitz:{lam.real:g},{lam.imag:g}")


def scaling_generator(values) -> CoefficientGenerator:
    """a_ij = f(i)/f(j) from a finite sequence or a callable f(i), 1-based.

    A callable is called once per index, with a Python int.
    """
    if callable(values):
        fn = values

        def at(k):
            return np.array([complex(fn(v)) for v in np.ravel(k).tolist()]).reshape(np.shape(k))

        return CoefficientGenerator(
            rule=lambda i, j: at(i) / at(j),
            label="scaling:<callable>",
        )
    arr = np.asarray(values, dtype=np.complex128).ravel()
    if arr.size == 0:
        raise DimensionError("scaling sequence must be nonempty")
    zero = np.abs(arr) == 0.0
    if np.any(zero):
        k = int(np.argmax(zero))
        raise ZeroEntryError(f"scaling value {k + 1} is zero", position=(k + 1, 1))
    mags = np.abs(arr)
    return CoefficientGenerator(
        rule=lambda i, j: arr[i - 1] / arr[j - 1],
        declared_bound=float(mags.max()) / float(mags.min()),  # inf on overflow, no warning
        max_index=int(arr.size),
        label=f"scaling:len={arr.size}",
    )


def table_generator(entries) -> CoefficientGenerator:
    """Finite table extended by zeros beyond its support."""
    table = np.asarray(entries, dtype=np.complex128)
    if table.ndim != 2 or table.size == 0:
        raise DimensionError(f"table must be a nonempty 2-d array, got shape {table.shape}")
    rows, cols = table.shape
    padded = np.zeros((rows + 1, cols + 1), dtype=np.complex128)
    padded[:rows, :cols] = table  # indices past the table land on the zero last row or column
    return CoefficientGenerator(
        rule=lambda i, j: padded[np.minimum(i - 1, rows), np.minimum(j - 1, cols)],
        declared_bound=float(np.abs(table).max()),
        label=f"table:{rows}x{cols}",
    )


def corner(gen: CoefficientGenerator, n: int) -> ComplexMatrix:
    """Leading principal n-by-n submatrix of the generator.

    A rule that raises an arithmetic error raises PreconditionError; one that
    yields a non-finite value raises PreconditionError naming the first such
    1-based entry.
    """
    if n < 1:
        raise DimensionError("corner size must be positive")
    if gen.max_index is not None and n > gen.max_index:
        raise DimensionError(
            f"generator only defined up to index {gen.max_index}, requested {n}"
        )
    index = np.arange(1, n + 1)
    data = np.empty((n, n), dtype=np.complex128)
    try:
        with np.errstate(all="ignore"):
            data[...] = gen.rule(index[:, None], index[None, :])
    except ArithmeticError as exc:
        raise PreconditionError(f"generator corner of size {n} cannot be computed: {exc}") from exc
    try:
        return ComplexMatrix(data)
    except ValueError:  # the only check ComplexMatrix can fail on an n-by-n array
        i, j = (int(v) + 1 for v in np.argwhere(~np.isfinite(data))[0])
        raise PreconditionError(f"generator entry ({i},{j}) is not finite") from None


class L2FactorReport(NamedTuple):
    multiplicative: bool
    f: ScalingVector
    bounded: bool
    bounded_away: bool
    ratio: float
    half_probe_ratio: float
    trend_growing: bool
    probe: int


def l2_multiplier_factor_check(
    gen: CoefficientGenerator,
    probe: int,
    tol: Tolerance | None = None,
) -> L2FactorReport:
    """Factor the probe corner as f(i)/f(j) and report boundedness at probe scale.

    f is the scaling ``factor_scaling`` reads off the corner, with f(1) = 1.
    ``bounded`` and ``bounded_away`` compare max|f| and min|f| against 1/rel
    and rel at the probe size; ``trend_growing`` compares the modulus ratio
    against the half-size probe and is the divergence flag. All three are
    consistent-with statements, not proofs about the infinite matrix.
    """
    if probe < 2:
        raise PreconditionError("probe size must be at least 2")
    tol = tol or DEFAULT_TOL
    f = _require_multiplicative(
        corner(gen, probe), tol,
        f"probe corner of size {probe} fails the ratio identity (residual {{residual:.3e}})",
    )
    mags = np.abs(f.values)
    ratio = f.modulus_ratio
    half = max(2, probe // 2)
    half_ratio = float(mags[:half].max() / mags[:half].min())
    limit = 1.0 / max(tol.rel, np.finfo(float).tiny)
    return L2FactorReport(
        multiplicative=True,
        f=f,
        bounded=bool(mags.max() <= limit),
        bounded_away=bool(mags.min() >= 1.0 / limit),
        ratio=ratio,
        half_probe_ratio=half_ratio,
        trend_growing=bool(ratio > half_ratio * (1.0 + 1e-12)),
        probe=probe,
    )


def compact_bound_check(
    gen: CoefficientGenerator,
    n: int,
    trials: int = 200,
    seed: int = 0,
) -> float:
    """Largest ||A_n o T|| / ||T|| over elementary and random rank-one T.

    Elementary matrix units give exactly |a_ij|, so the exhaustive part
    already attains sup |a_ij| over the corner; random rank-one probes can
    only fall below it (the Frobenius bound caps the ratio at the coefficient
    supremum for rank-one T).
    """
    block = corner(gen, n).data
    best = float(np.abs(block).max())
    for t in range(trials):
        rng = np.random.default_rng((int(seed), t))
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        denom = float(np.linalg.norm(u) * np.linalg.norm(v))
        if denom == 0.0:
            continue
        scaled = block * np.outer(u, v.conj())
        best = max(best, float(np.linalg.norm(scaled, 2)) / denom)
    return best


class WitnessResult(NamedTuple):
    x: np.ndarray  # unit vector, length n
    lower_bound: float


def unboundedness_witness(
    gen: CoefficientGenerator,
    n: int,
    tol: Tolerance | None = None,
) -> WitnessResult:
    """Unit vector on which the n-corner attains norm at least n.

    For a multiplicative unit-diagonal corner the scaling vector itself is an
    eigenvector with eigenvalue n; normalized and extended by zeros it
    witnesses ||A x|| >= n for the infinite operator, and the bound grows
    without limit as n does.
    """
    tol = tol or DEFAULT_TOL
    block = corner(gen, n)
    f = _require_multiplicative(
        block, tol, f"corner of size {n} fails the ratio identity (residual {{residual:.3e}})"
    ).values
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(f)
    if not np.isfinite(norm):  # sum |f(i)|^2 overflowed; max|f| = 1 after rescaling
        f = f / np.abs(f).max()
        norm = np.linalg.norm(f)
    x = f / norm
    lower = float(np.linalg.norm(block.data @ x))
    return WitnessResult(x=x, lower_bound=lower)
