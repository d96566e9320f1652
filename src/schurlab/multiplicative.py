"""Deciding whether a Schur map distributes over matrix products.

The decisive finite test is the ratio identity a_ij = a_ik * a_kj together
with a unit diagonal. A matrix passing it factors as a_ij = f(i)/f(j) for a
vector f of nonzero scalars, which turns the Schur map into conjugation by
diag(f). The certificate produced here records that test next to three
equivalent views (rank-one structure, {n, 0, ..., 0} spectrum, and a seeded
sampling of the product rule) so that disagreement, which can only come from
conditioning, is surfaced instead of silently resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_TOL,
    ComplexMatrix,
    Tolerance,
    _rank,
    _singular_values,
    as_matrix,
    eigenvalues,
    multiset_distance,
    require_square,
)
from .errors import (
    ConvergenceError,
    DimensionError,
    NotMultiplicativeError,
    PreconditionError,
    ZeroEntryError,
)
from .io import complex_cells

__all__ = [
    "ScalingVector",
    "CocycleResult",
    "ConditionResult",
    "MultiplicativityCertificate",
    "MULTIPLICATIVE_CONDITIONS",
    "check_cocycle",
    "factor_scaling",
    "build_from_scaling",
    "certify_multiplicative",
    "schur_map_norm",
    "numerical_range_samples",
]

MULTIPLICATIVE_CONDITIONS = (
    "cocycle",
    "unit_diagonal",
    "rank_one",
    "spectrum_0_n",
    "product_sampling",
)


@dataclass(frozen=True)
class ScalingVector:
    """Finite sequence f(1..n) of nonzero complex scalars.

    Carries the factorization a_ij = f(i)/f(j) and the diagonal similarity
    S_A(B) = diag(f) B diag(f)^{-1}.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.complex128, copy=True).ravel()
        if arr.size == 0:
            raise DimensionError("scaling vector must be nonempty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("scaling values must be finite")
        zero = np.abs(arr) == 0.0
        if np.any(zero):
            i = int(np.argmax(zero))
            raise ZeroEntryError(
                f"scaling value {i + 1} is zero", position=(i + 1, 1)
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def modulus_ratio(self) -> float:
        """max |f(i)| / min |f(j)|; equals the induced Schur-map operator norm."""
        mags = np.abs(self.values)
        return float(mags.max()) / float(mags.min())  # inf on overflow, no warning

    def diagonal_matrix(self) -> ComplexMatrix:
        return ComplexMatrix(np.diag(self.values))


def as_scaling(value) -> ScalingVector:
    if isinstance(value, ScalingVector):
        return value
    return ScalingVector(np.asarray(value))


class CocycleResult(NamedTuple):
    passed: bool
    residual: float
    witness: tuple[int, int, int | None] | None


@dataclass(frozen=True)
class ConditionResult:
    passed: bool
    residual: float

    def to_dict(self) -> dict:
        residual = float(self.residual)
        return {"pass": self.passed, "residual": residual if math.isfinite(residual) else None}


def _nanmax(*values: float) -> float:
    """``max`` that keeps NaN; plain ``max`` drops it or not by argument order."""
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def _condition(passed: bool, *residual_parts: float) -> ConditionResult:
    """Verdict with the worst of ``residual_parts`` as its residual.

    Only a finite residual can pass, so an overflowed or undefined residual
    fails closed.
    """
    residual = _nanmax(*residual_parts)
    return ConditionResult(bool(passed) and math.isfinite(residual), residual)


def _cocycle_parts(data: np.ndarray):
    """Worst ratio-identity violation, worst diagonal deviation, and the
    1-based witness of the larger of the two ((i, i, None) for the diagonal).

    Scans the middle index in blocks sized to keep the (n, n, block) slab
    around 32 MB.
    """
    n = data.shape[0]
    diag_dev = np.abs(np.diagonal(data) - 1.0)
    diag_i = int(np.argmax(diag_dev))
    diag_res = float(diag_dev[diag_i])
    block = min(n, max(1, (1 << 21) // (n * n)))
    target = data[:, :, None]
    buf = np.empty((n, n, block), dtype=np.complex128)
    mag = np.empty((n, n, block), dtype=np.float64)
    best = -1.0
    triple_witness = (1, 1, 1)
    for k0 in range(0, n, block):
        k1 = min(k0 + block, n)
        width = k1 - k0
        dev = buf[:, :, :width]
        mag2 = mag[:, :, :width]
        np.multiply(data[:, None, k0:k1], data.T[None, :, k0:k1], out=dev)  # a_ik * a_kj
        np.subtract(target, dev, out=dev)
        np.square(dev.real, out=mag2)
        mag2 += np.square(dev.imag)
        m = float(mag2.max())
        if m > best:
            i, j, k = np.unravel_index(int(np.argmax(mag2)), mag2.shape)
            best = m
            triple_witness = (int(i) + 1, int(j) + 1, int(k) + k0 + 1)
    triple_res = float(np.sqrt(best))
    if diag_res >= triple_res:
        return triple_res, diag_res, (diag_i + 1, diag_i + 1, None)
    return triple_res, diag_res, triple_witness


def _ratio_test(data: np.ndarray, scale: float, tol: Tolerance):
    """The one multiplicativity rule: the ``cocycle`` and ``unit_diagonal``
    conditions from one ``_cocycle_parts`` scan, and the witness unless both pass."""
    triple_res, diag_res, witness = _cocycle_parts(data)
    cocycle = _condition(triple_res <= tol.threshold(scale * scale), triple_res)
    unit_diagonal = _condition(diag_res <= tol.threshold(1.0), diag_res)
    passed = cocycle.passed and unit_diagonal.passed
    return cocycle, unit_diagonal, None if passed else witness


@np.errstate(over="ignore", invalid="ignore")  # overflowed residuals fail closed
def check_cocycle(a, tol: Tolerance | None = None) -> CocycleResult:
    """Test a_ij = a_ik * a_kj for all triples and a_ii = 1 on the diagonal.

    This is the one rule behind every multiplicativity decision (``check``,
    ``factor``, ``norm``, ``witness``, ``factor_scaling``, ``group_product``):
    the ratio residual is compared against the tolerance scaled by
    max|a_ij|^2, the diagonal deviation against the tolerance at scale 1,
    and both must pass. A residual that overflowed never passes.
    ``residual`` is the worse of the two; on failure the witness names the
    worst violation, 1-based, and a diagonal violation is (i, i, None).
    """
    m = as_matrix(a)
    require_square(m)
    data = m.data
    scale = float(np.abs(data).max())
    cocycle, unit_diagonal, witness = _ratio_test(data, scale, tol or DEFAULT_TOL)
    residual = _nanmax(cocycle.residual, unit_diagonal.residual)
    return CocycleResult(witness is None, residual, witness)


def _require_multiplicative(m: ComplexMatrix, tol: Tolerance, message: str) -> ScalingVector:
    """The pivot scaling of ``m``, or NotMultiplicativeError unless it passes
    ``check_cocycle``, with ``message`` formatted with ``residual`` and ``witness``."""
    result = check_cocycle(m, tol)
    if not result.passed:
        raise NotMultiplicativeError(
            message.format(residual=result.residual, witness=result.witness),
            residual=result.residual,
            witness=result.witness,
        )
    return _pivot_scaling(m.data, tol)


def _pivot_scaling(data: np.ndarray, tol: Tolerance) -> ScalingVector:
    """f with f(1) = 1 from the column of largest minimum modulus (any column
    on exact inputs); the caller vouches for multiplicativity."""
    mags = np.abs(data)
    col_min = mags.min(axis=0)
    p = int(np.argmax(col_min))
    if col_min[p] <= tol.abs:
        i = int(np.argmin(mags[:, p]))
        raise ZeroEntryError(
            f"pivot column {p + 1} contains a below-floor entry at ({i + 1},{p + 1})",
            position=(i + 1, p + 1),
        )
    column = data[:, p]
    return ScalingVector(column / column[0])


def factor_scaling(a, tol: Tolerance | None = None) -> ScalingVector:
    """Extract f with a_ij = f(i)/f(j), normalized so f(1) = 1."""
    return _require_multiplicative(
        as_matrix(a), tol or DEFAULT_TOL,
        "ratio identity fails with residual {residual:.3e} at witness {witness}",
    )


def build_from_scaling(f) -> ComplexMatrix:
    """Construct the n-by-n matrix a_ij = f(i)/f(j)."""
    scaling = as_scaling(f)
    values = scaling.values
    return ComplexMatrix(np.outer(values, 1.0 / values))


class _Facts(NamedTuple):
    """What both batteries read off one coefficient matrix; each O(n^3) pass runs once."""

    scale: float  # max |a_ij|
    cocycle: ConditionResult  # ratio-identity residual
    unit_diagonal: ConditionResult
    witness: tuple[int, int, int | None] | None  # worst ratio violation, 1-based
    singular_values: np.ndarray
    rank: int
    rank_residual: float  # sigma_2 / sigma_1
    spectrum_distance: float  # from the spectrum to {n, 0^(n-1)}
    scaling: ScalingVector | None  # pivot scaling when the ratio test passes


def _facts(m: ComplexMatrix, tol: Tolerance) -> _Facts:
    data = m.data
    n = data.shape[0]
    scale = float(np.abs(data).max())
    if scale == 0.0:
        raise PreconditionError("the zero Schur map is excluded from certification")

    cocycle, unit_diagonal, witness = _ratio_test(data, scale, tol)
    scaling = None
    if witness is None:
        try:
            scaling = _pivot_scaling(data, tol)
        except ZeroEntryError:
            pass

    svals = _singular_values(data)
    expected = np.zeros(n, dtype=np.complex128)
    expected[0] = n
    return _Facts(
        scale=scale,
        cocycle=cocycle,
        unit_diagonal=unit_diagonal,
        witness=witness,
        singular_values=svals,
        rank=_rank(svals, n, tol),
        rank_residual=float(svals[1] / svals[0]) if n > 1 and svals[0] > 0 else 0.0,
        spectrum_distance=multiset_distance(eigenvalues(m, tol), expected),
        scaling=scaling,
    )


@dataclass
class MultiplicativityCertificate:
    """Per-condition verdicts for the multiplicative battery.

    ``conditions`` maps each label in MULTIPLICATIVE_CONDITIONS to its
    verdict and scale-normalized residual. ``witness`` is the worst ratio
    violation (1-based, None for the middle index on diagonal failures) and
    is only present when the ratio test fails. ``inconsistent`` flags
    disagreement among the four theoretically equivalent composite
    conditions; near the tolerance boundary that is a conditioning
    diagnostic, and the caller decides what to do with it.
    """

    verdict: bool
    conditions: dict[str, ConditionResult]
    witness: tuple[int, int, int | None] | None
    scaling: ScalingVector | None
    inconsistent: bool
    tolerance: Tolerance = field(default_factory=Tolerance)

    def composite_conditions(self) -> dict[str, bool]:
        """The four equivalent conditions with the unit diagonal folded in."""
        c = self.conditions
        unit = c["unit_diagonal"].passed
        return {
            "product_rule": c["product_sampling"].passed,
            "spectrum": c["spectrum_0_n"].passed and unit,
            "rank_one": c["rank_one"].passed and unit,
            "cocycle": c["cocycle"].passed and unit,
        }

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "conditions": {name: r.to_dict() for name, r in self.conditions.items()},
            "witness": list(self.witness) if self.witness else None,
            "scaling": complex_cells(self.scaling.values) if self.scaling is not None else None,
            "inconsistent": self.inconsistent,
            "tolerance": self.tolerance.to_dict(),
        }


def _product_sampling_residual(data: np.ndarray, trials: int, seed: int) -> float:
    """Worst normalized defect of S_A(BC) = S_A(B) S_A(C) over seeded pairs.

    Frobenius norms throughout; each trial draws from a stream derived from
    (seed, trial) so trials are reproducible independent of evaluation order.
    A NaN defect (overflow) is kept, not folded away.
    """
    n = data.shape[0]
    scale = float(np.abs(data).max())
    worst = 0.0
    for t in range(trials):
        rng = np.random.default_rng((int(seed), t))
        pair = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        b, c = pair[0], pair[1]
        lhs = data * (b @ c)
        rhs = (data * b) @ (data * c)
        denom = float(np.linalg.norm(b) * np.linalg.norm(c)) * scale * scale
        if denom == 0.0:
            continue
        worst = _nanmax(worst, float(np.linalg.norm(lhs - rhs)) / denom)
    return worst


@np.errstate(over="ignore", invalid="ignore")  # overflowed residuals fail closed
def certify_multiplicative(
    a,
    tol: Tolerance | None = None,
    trials: int = 8,
    seed: int = 0,
) -> MultiplicativityCertificate:
    """Run the full multiplicative battery and return the certificate.

    Evaluates the ratio identity, unit diagonal, rank-one structure,
    {n, 0^(n-1)} spectrum and a seeded sampling of the product rule. The
    verdict is the conjunction; the theory predicts unanimous agreement, so
    disagreement is recorded on the certificate rather than raised.
    """
    m = as_matrix(a)
    n = require_square(m)
    tol = tol or DEFAULT_TOL
    if trials < 1:
        raise PreconditionError("trials must be positive")
    facts = _facts(m, tol)
    samp_res = _product_sampling_residual(m.data, trials, seed)
    conditions = {
        "cocycle": facts.cocycle,
        "unit_diagonal": facts.unit_diagonal,
        "rank_one": _condition(facts.rank == 1, facts.rank_residual),
        "spectrum_0_n": _condition(
            facts.spectrum_distance <= tol.threshold(float(n)), facts.spectrum_distance
        ),
        "product_sampling": _condition(samp_res <= tol.threshold(1.0), samp_res),
    }
    cert = MultiplicativityCertificate(
        verdict=all(r.passed for r in conditions.values()),
        conditions=conditions,
        witness=facts.witness,
        scaling=facts.scaling,
        inconsistent=False,
        tolerance=tol,
    )
    composites = cert.composite_conditions()
    cert.inconsistent = len(set(composites.values())) > 1
    return cert


def schur_map_norm(a, tol: Tolerance | None = None) -> float:
    """Operator norm of a multiplicative Schur map: max_{i,j} |f(i)/f(j)|.

    Equals 1 exactly when all |f(i)| coincide. Raises NotMultiplicativeError
    when the input does not pass the ratio test (the formula is only valid
    for multiplicative maps).
    """
    return factor_scaling(a, tol).modulus_ratio


def numerical_range_samples(a, directions: int) -> list[tuple[float, float]]:
    """Support function of the numerical range at equally spaced angles.

    For each angle t the support is the largest eigenvalue of the Hermitian
    part of e^{it} A. Two matrices with equal samples at every angle have
    numerical ranges with identical supporting half-planes at those angles.
    """
    m = as_matrix(a)
    require_square(m)
    if directions < 1:
        raise PreconditionError("directions must be positive")
    data = m.data
    out: list[tuple[float, float]] = []
    for idx in range(directions):
        theta = 2.0 * np.pi * idx / directions
        rotated = np.exp(1j * theta) * data
        herm = (rotated + rotated.conj().T) / 2.0
        try:
            support = float(np.linalg.eigvalsh(herm)[-1])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"support computation failed: {exc}") from exc
        out.append((float(theta), support))
    return out
