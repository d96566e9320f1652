"""Deciding whether a Schur map distributes over matrix products.

The decisive finite test is the ratio identity a_ij = a_ik * a_kj together
with a unit diagonal. A matrix passing it factors as a_ij = f(i)/f(j) for a
vector f of nonzero scalars, which turns the Schur map into conjugation by
diag(f). The certificate produced here records that test next to three
equivalent views (rank-one structure, {n, 0, ..., 0} spectrum, and a seeded
sampling of the product rule) so that disagreement, which can only come from
conditioning, is surfaced instead of silently resolved.

One fact carries the rest: the pivot split A = u v^T + E (u = a_:p,
v = a_p:, p the ``_pivot`` column), a ``_Split`` built once per matrix by
the ratio test. On a multiplicative A, E = 0 and the scaling f is u / u_1.
The ratio test runs in one place, ``_facts``, and every multiplicativity
decision (``check_cocycle``, ``factor_scaling``, ``schur_map_norm``, the
truncation probes, ``group_product`` and both batteries) reads its verdict,
its split and f from there; calls on one matrix, or on bitwise-equal ones,
at an equal tolerance share one ratio test. E and |E| live only while the
ratio test runs: a kept split holds views of the matrix and nothing else.

Every other view is read off one low-rank form A = Q T Q* + F, Q with
orthonormal columns, ||F||_F certified small: T's singular values and
eigenvalues, with every other value exactly 0, give each value a ``_Span``
that holds both the exact value and the one LAPACK computes. Accepted inputs
cost O(n^2). The ratio test accepts through the split, and the split is the
c = 0 form (no lines of E kept): u v^T = Q T Q* for Q a basis of
span(u, conj v) and the 2-by-2 T = [[v^T u, beta], [0, 0]], so ||F||_F is
the split's ``rest`` plus T's rounding. ``_closed`` reads T in closed form,
in Python floats, and never computes Q, so its spans rest on Weyl's
inequality, Bauer-Fike and LAPACK's error model ``_lapack`` alone.
``product_sampling`` reads the ratio bound instead (``_sampling_bound``).

Rejections cost O(n^2) as well. E is the k = p slice of the ratio scan,
E_ij = a_ij - a_ip a_pj, so an entry of E above the threshold, rounding
allowed for, is a real violation of the triple (i, j, p): ``cocycle`` fails
with that triple as its witness and the scan's own value there as its
residual, at most the exact worst one. The O(n^3) scan runs only where
neither the pivot bound nor the slice decides. Every other part a
non-multiplicative input fails has an O(n^2) witness too, a certified lower
bound on what LAPACK computes: a 2-by-2 minor through the pivot for rank
one (``_Facts.rank_one_bound``), tr(A^2) against n^2 for the spectrum
(``_spectrum_floor``), a skew entry for the Hermitian tests
(``_skew_bounds``) and two rows of A A* - A* A for normality. A bound that
clears its threshold fails its part with the bound as residual, before any
support form or LAPACK call.

A part the c = 0 form leaves open and no bound fails reads the support
form: the c = 0 form itself, at every n, where no entry
of E lies above rounding, and from n = 24 on ``_low_rank``, where the few
rows and columns of E above rounding (the split's ``support``) give T at
most 2(|R| + |C| + 1) square, with ||F||_F within LAPACK's own allowance
under an error model of the QR that builds Q. A span decides a part where
it lies on one side of the threshold, and a passing part reports the
span's upper end. A part no form or bound decides runs the SVD or the
eigensolver, so verdicts are the O(n^3) code's as far as LAPACK (and, for
the support form, the QR) keep within their modelled backward errors.
``product_sampling`` draws rank-one probes, two matrix-vector products per
trial. The forms, the SVD and the spectrum are computed the first time a
battery reads them and kept with the facts, so on one matrix each pass runs
at most once, and ``factor_scaling`` and the like never run them.

Conditions are data. Each battery's table names, for every condition, its
threshold and its parts; a part is a known value, or a ``_Part`` that
reads the c = 0 form and the support form (``_Forms``, of A or of its
Schur inverse), an O(n^2) bound and the O(n^3) code. One loop,
``_decide``, reads a condition's parts one rung at a time: rung 0 the
known values, the c = 0 forms where they pass (either way on a clean
split) and the bounds where they fail; rung 1 the support forms; rung 2
the O(n^3) code. The condition stops at the first rung where any part
fails, failing with the worst failure read there, or where every part is
decided, passing with the worst upper end. Each reader runs at most once
per call, and each ``ConditionResult`` records the ``route`` that decided
it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    DEFAULT_TOL,
    ComplexMatrix,
    Tolerance,
    _half_skew,
    _hermitian_part,
    _nanmax,
    _rank,
    _require_seed,
    _singular_values,
    _skew_norm,
    as_matrix,
    eigenvalues,
    require_square,
)
from .errors import (
    ConvergenceError,
    DimensionError,
    NotMultiplicativeError,
    PreconditionError,
    ResourceLimitError,
    ZeroEntryError,
)

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

# Each condition: the key of its threshold and the names of its parts, as
# ``certify_multiplicative`` fills them in (``_decide``).
_MULTIPLICATIVE = {
    "cocycle": ("one", "cocycle"),
    "unit_diagonal": ("one", "unit_diagonal"),
    "rank_one": ("one", "rank_one"),
    "spectrum_0_n": ("n", "spectrum"),
    "product_sampling": ("one", "sampling"),
}
MULTIPLICATIVE_CONDITIONS = tuple(_MULTIPLICATIVE)


class _cached:
    """``functools.cached_property`` without the lock it takes on each first
    read under Python 3.10 and 3.11, about half a microsecond: the value is
    computed on the first read and kept in the instance's ``__dict__``."""

    def __init__(self, func):
        self.func, self.name = func, func.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


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
        if not np.isfinite(arr).all():
            raise ValueError("scaling values must be finite")
        zero = np.abs(arr) == 0.0
        if zero.any():
            i = int(np.argmax(zero))
            raise ZeroEntryError(
                f"scaling value {i + 1} is zero", position=(i + 1, 1)
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def _of(cls, values: np.ndarray) -> ScalingVector:
        """The scaling of ``values``, a fresh one-dimensional complex128 array
        of finite nonzero entries, which the caller vouches for: kept without
        a copy or a check, and made read-only."""
        values.setflags(write=False)
        scaling = object.__new__(cls)
        object.__setattr__(scaling, "values", values)
        return scaling

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
    """A condition's verdict and residual. ``route`` names what decided it
    (``_ROUTES``); it takes no part in equality and is not serialized."""

    passed: bool
    residual: float
    route: str = field(default="known", compare=False)

    def to_dict(self) -> dict:
        residual = float(self.residual)
        return {"pass": self.passed, "residual": residual if math.isfinite(residual) else None}


def _condition(passed: bool, *residual_parts: float, route: str = "known") -> ConditionResult:
    """Verdict with the worst of ``residual_parts`` as its residual.

    Only a finite residual can pass, so an overflowed or undefined residual
    fails closed.
    """
    residual = _nanmax(*residual_parts)
    return ConditionResult(bool(passed) and math.isfinite(residual), residual, route)


_SLAB = 1 << 21  # complex entries in one (n, n, block) slab of the full scan: 32 MB


def _cocycle_parts(data: np.ndarray):
    """Worst ratio-identity violation max|a_ij - a_ik a_kj| over all triples
    and its 1-based witness (i, j, k), in O(n^3).

    The residual is exact, the square root of the largest squared modulus
    as computed, and the witness is the first triple attaining it in
    (k // block, i, j, k) order, block being the width of the slab: the
    scan evaluates every triple, the middle index in blocks that keep the
    (n, n, block) slab at 32 MB. ``_ratio_test`` runs it only where neither
    the pivot bound nor the pivot slice decides.
    """
    n = data.shape[0]
    block = min(n, max(1, _SLAB // (n * n)))
    target = data[:, :, None]
    buf = np.empty((n, n, block), dtype=np.complex128)
    mag = np.empty((n, n, block), dtype=np.float64)
    best = -1.0
    witness = (1, 1, 1)
    for k0 in range(0, n, block):
        k1 = min(k0 + block, n)
        width = k1 - k0
        dev = buf[:, :, :width]
        mag2 = mag[:, :, :width]
        np.multiply(data[:, None, k0:k1], data.T[None, :, k0:k1], out=dev)  # a_ik * a_kj
        np.subtract(target, dev, out=dev)
        np.square(dev.real, out=mag2)
        mag2 += np.square(dev.imag)
        worst = float(mag2.max())
        if worst > best:
            i, j, kk = np.unravel_index(int(np.argmax(mag2)), mag2.shape)
            best = worst
            witness = (int(i) + 1, int(j) + 1, int(kk) + k0 + 1)
    return float(np.sqrt(best)), witness


_EPS = 16 * 2.0**-53  # relative allowance: four times binary64's per-operation error
_ETA = 2.0**-536  # absolute allowance for underflow: the scan's sqrt of a subnormal square
_SQRT_HUGE = 2.0**510  # squares below 2**1021 cannot overflow


def _fro(x: np.ndarray) -> float:
    """Upper bound on the Frobenius norm of the stored array ``x``; inf when
    a square overflows.

    numpy sums the squares as a dot product, off by at most ``x.size`` u
    (u = 2^-53) relative, and squares below 2^-1074 are lost. The sum is
    ``np.linalg.norm``'s, bit for bit, without its argument handling.
    """
    flat = x.ravel(order="K")
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im)) * (1 + x.size * _EPS) + x.size * _ETA


def _lapack(n: int, fro: float) -> float:
    """Allowance for LAPACK's rounding on an n-by-n operand of Frobenius
    norm at most ``fro``, plus the rounding in forming that operand.

    The SVD and eigenvalue drivers are backward stable: the computed values
    are exact for a matrix within p(n) u ||X|| of X (LAPACK Users' Guide,
    sections 4.8 and 4.9), so by Weyl's inequality and Bauer-Fike each value
    moves by at most that much (times the eigenvector condition number for
    a non-normal eigenproblem). p(n) is taken as 16(n + 1).
    """
    return (n + 1) * _EPS * fro


def _skew_bounds(n: int, fro: float, half: float) -> tuple[float, float]:
    """(lo, hi), in O(1): lo <= what LAPACK computes for ||x - x*||_2 and
    hi >= what it computes for ||x||_2, for an n-by-n x with ||x||_F <= ``fro``
    and ``half`` the largest |x_ij / 2 - conj(x_ji) / 2| over some entries,
    as ``core._half_skew`` computes it.

    Halving is exact but for subnormals, and the difference and modulus
    round by a few u (u = 2^-53), so d = |x_ij - conj(x_ji)| at that entry is
    at least 2 half (1 - _EPS) - _ETA, and ||x - x*||_2 >= d. LAPACK forms x - x*
    entry by entry, each within u of the exact one, and its SVD is exact for
    a matrix within ``_lapack(n, 2 fro)`` of that (||x - x*||_F <= 2 ||x||_F),
    as the forms' error model has it; its ||x||_2 is at most
    ||x||_F + ``_lapack(n, fro)``.
    """
    lo = (2 * half * (1 - _EPS) - _ETA) * (1 - _EPS) - _lapack(n, 2 * fro) * (1 + _EPS)
    return lo, (fro + _lapack(n, fro)) * (1 + _EPS)


def _commutator_floor(n: int, fro: float, top: float) -> float:
    """A lower bound on ||C||_2 / max(||x||_2^2, 1) as LAPACK computes it,
    C = x x* - x* x for an n-by-n x with ||x||_F <= ``fro``, from ``top``, the
    computed norm of a row of C whose entries are inner products of length n.

    A row of C has norm at most ||C||_2. Each computed row lies within
    2 (n + 4) _EPS fro^2 of the exact one, and its norm within n _EPS of
    itself. LAPACK forms C within as much again, and its SVD is exact for a
    matrix within ``_lapack(n, 2 fro^2)`` of that; its ||x||_2 is at most
    fro + ``_lapack(n, fro)``.
    """
    f2 = fro * fro
    lo = top * (1 - n * _EPS) - 4 * (n + 4) * _EPS * f2 - _lapack(n, 2 * f2) * (1 + _EPS)
    hi = (fro + _lapack(n, fro)) * (1 + _EPS)
    return lo / max(hi * hi, 1.0) * (1 - _EPS)


def _minor_floor(a: complex, b: complex, c: complex, d: complex) -> float:
    """A lower bound on sigma_2 of M = [[a, b], [c, d]]: sigma_2(M) =
    |det M| / sigma_1(M) >= |det M| / ||M||_F, the computed ad - bc being off
    by at most _EPS (|a d| + |b c|) (u = 2^-53, a complex product within 3u)
    and each modulus and quotient by _EPS of itself."""
    det = abs(a * d - b * c) * (1 - _EPS) - _EPS * (abs(a) * abs(d) + abs(b) * abs(c)) - _ETA
    return det / (math.hypot(abs(a), abs(b), abs(c), abs(d)) * (1 + _EPS)) * (1 - _EPS)


def _trace_gap(x: np.ndarray, fro: float) -> float:
    """A lower bound, in O(n^2), on |tr(x^2) - n^2| for the n-by-n x,
    ||x||_F <= ``fro``.

    The gap is summed as sum_ij (x_ij x_ji - 1), so that its rounding scales
    with the deviations, not with n^2: each product is off by at most
    3u |x_ij x_ji| (u = 2^-53), summing to 3u fro^2 (Cauchy-Schwarz), each
    difference by u of itself, and the sum of the N = n^2 computed terms w
    by (N + 2) u sum|w| (Higham, Accuracy and Stability of Numerical
    Algorithms, section 4.2), _EPS = 16u covering those factors and the
    rounding of sum|w| and of the modulus.
    """
    w = x * x.T
    w -= 1.0
    total, spread = complex(w.sum()), float(np.abs(w).sum())
    return abs(total) * (1 - _EPS) - _EPS * fro * fro - (w.size + 2) * _EPS * spread - _ETA


def _spectrum_floor(x: np.ndarray, fro: float) -> float:
    """A lower bound, in O(n^2), on the distance from {n, 0^(n-1)} of the
    spectrum LAPACK computes for the n-by-n x, ||x||_F <= ``fro``; 0 where
    the bound shows nothing.

    A spectrum within bottleneck distance d of {n, 0^(n-1)} is n + e_1 and
    e_k, |e_k| <= d, so |sum lam_k^2 - n^2| <= 2nd + nd^2, and with
    D = |tr(x^2) - n^2| (``_trace_gap``),
    d >= sqrt(1 + D/n) - 1 = (D/n) / (sqrt(1 + D/n) + 1). LAPACK's
    eigenvalues are exact for x + Delta, ||Delta||_F <= a = ``_lapack(n, fro)``
    under the forms' error model, and tr((x + Delta)^2) is within
    2 fro a + a^2 of tr(x^2), so D shrinks by that much. No eigenvector
    enters: the trace identity holds for x + Delta itself.
    """
    n = x.shape[0]
    a = _lapack(n, fro)
    t = (_trace_gap(x, fro) - (2 * fro + a) * a) / n
    if not 0.0 < t < math.inf:  # NaN included
        return 0.0
    return t / (math.sqrt(1 + t) + 1) * (1 - 4 * _EPS) - _ETA


def _pivot(data: np.ndarray, tol: Tolerance) -> int:
    """The column of largest minimum modulus, 0-based; ZeroEntryError if that
    minimum is at or below the absolute floor."""
    mags = np.abs(data)
    col_min = mags.min(axis=0)
    p = int(np.argmax(col_min))
    if col_min[p] <= tol.abs:
        i = int(np.argmin(mags[:, p]))
        raise ZeroEntryError(
            f"pivot column {p + 1} contains a below-floor entry at ({i + 1},{p + 1})",
            position=(i + 1, p + 1),
        )
    return p


class _Split:
    """The pivot split x = u v^T + E through column p: u = x_:p, v = x_p:.

    ``e`` is E as computed, which the split reads and does not keep, so a
    split holds no array but views of x; ``_split`` forms E once, for the
    split and for the ratio test's |E|. ``uv`` >= ||u|| ||v||, and ``rest``
    bounds ||E||_F for the exact E: each computed entry of E is off by at
    most _EPS (|u_i| |v_j| + |E_ij|), so the Frobenius error is at most
    _EPS (||u|| ||v|| + ||E||_F). ``bound`` is the ratio test's certified
    bound on the worst ratio violation where it accepted through this split,
    else inf. ``fro`` >= ||x||_F and ``support``, the few rows and columns of
    E above rounding as Python ints, for the support form, and ``skew_max``
    are computed on first use. Where the ratio test offered a bound,
    ``e_max`` bounds max|E_ij| for the exact E, ``e_top`` is max|E_ij| as
    computed and ``at`` the 0-based (i, j) of the first entry attaining it;
    else the first two are inf and ``at`` is None.
    """

    bound = math.inf
    e_max = e_top = math.inf
    at = None

    def __init__(self, x: np.ndarray, p: int, e: np.ndarray):
        self.x, self.p = x, p
        self.u, self.v = u, v = x[:, p], x[p]
        self.uv, rest = _fro(u) * _fro(v), _fro(e)
        self.rest = (rest + _EPS * (self.uv + rest)) * (1 + _EPS)

    @_cached
    def fro(self) -> float:
        return _fro(self.x)

    @_cached
    def skew_max(self) -> float:
        """An upper bound on max|x_ij - conj(x_ji)|, rounding included, in
        O(n), computed on first use. Since

            x_ij - conj(x_ji) = u_i (v_j - conj(u_j)) + (u_i - conj(v_i)) conj(u_j)
                                + E_ij - conj(E_ji),

        it is at most 2 max|u| max|u - conj(v)| + 2 ``e_max``."""
        mu = float(np.abs(self.u).max())
        mw = float(np.abs(self.u - self.v.conj()).max())
        return (2 * mu * mw + 2 * self.e_max) * (1 + _EPS) + _ETA

    def scaling(self) -> ScalingVector:
        """f with f(1) = 1 read off u (any column on exact inputs); the
        caller vouches for multiplicativity. u is finite and nonzero, so only
        a quotient that overflowed or underflowed takes the public
        constructor, which raises."""
        f = self.u / self.u[0]
        if np.isfinite(f).all() and f.all():
            return ScalingVector._of(f)
        return ScalingVector(f)

    @_cached
    def clean(self) -> bool:
        """Whether no entry of E lies above the floor _EPS ||x||_F / 4, so
        that the support form is the c = 0 form, told without forming E."""
        return self.e_top <= 0.25 * _EPS * self.fro

    @_cached
    def support(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """(rows, cols), 0-based: lines of E that together hold every entry
        above the floor _EPS ||x||_F / 4, at most ``_cap(n)`` of them; None
        beyond the cap. A clean split, with no entry above the floor, has
        no lines, ((), ()), at every n; below the size ``_cap`` allows, every
        other split gets None.

        The ratio test's ``e_top`` tells a clean split without forming E.
        Otherwise E is formed anew, bitwise the E whose maximum ``e_top`` is,
        and dropped on return. The lines are picked greedily, each time the
        row or column (a column on ties) holding the most entries not yet
        covered, so one perturbed entry, or a perturbed pivot row or pivot
        column, takes one line. What the floor leaves out is at most n times
        the floor in Frobenius norm, a quarter of ``_lapack(n, ||x||_F)``;
        ``_low_rank`` certifies the exact rest.
        """
        if self.clean:
            return (), ()
        n = self.x.shape[0]
        floor = 0.25 * _EPS * self.fro
        cap = _cap(n)
        if cap < 0:
            return None
        big = np.abs(self.x - np.outer(self.u, self.v)) > floor
        if np.count_nonzero(big) > cap * n:
            return None
        ii, jj = np.nonzero(big)
        rows: list[int] = []
        cols: list[int] = []
        while ii.size:
            if len(rows) + len(cols) == cap:
                return None
            by_row, by_col = np.bincount(ii, minlength=n), np.bincount(jj, minlength=n)
            i, j = int(by_row.argmax()), int(by_col.argmax())
            if by_col[j] >= by_row[i]:
                cols.append(j)
                keep = jj != j
            else:
                rows.append(i)
                keep = ii != i
            ii, jj = ii[keep], jj[keep]
        return tuple(rows), tuple(cols)


def _split(x: np.ndarray, p: int) -> tuple[_Split, np.ndarray]:
    """The ``_Split`` of x through column p, and E = x - x_:p x_p: as computed."""
    e = x - np.outer(x[:, p], x[p])
    return _Split(x, p, e), e


def _scan_bound(e: np.ndarray | None, scale: float, diag_res: float) -> tuple:
    """Upper bound, rounding included, on what ``_cocycle_parts`` would return,
    from E as computed for the pivot split, in O(n^2); ``rho`` >= max|E_ij|
    for the exact E, ``top``, max|E_ij| as computed, and ``at``, the 0-based
    (i, j) of the first entry attaining it. Where no bound is offered the
    first three are inf and ``at`` is None.

    With r = max|E_ij|, delta the diagonal deviation and M = max|a|, the
    exact maximum is at most t = r(1 + 3K) + K delta + r^2 with K = M + r
    (derived in ``_ratio_test``). Computed in binary64, a complex product,
    difference or modulus is off by at most 4u of its exact value
    (u = 2^-53) plus a few 2^-1074 on underflow (2^-537 after the scan's
    square root); every pivot product has modulus at most M + r and every
    scan product at most M + t. So the true r, delta, M and K lie below the
    inflated ``rho``, ``delta``, ``m`` and ``k`` (relative allowance
    ``_EPS`` = 16u, absolute ``_ETA``), the scan's own rounding adds at most
    ``_EPS`` (m + t), and the last factor covers rounding in evaluating
    these lines. No bound is offered without a split (no pivot above the
    floor, ``e`` None), for a non-finite residual, or where the scan's squared
    deviations or squared entries could overflow and so fail it closed.
    """
    m = scale * (1 + _EPS)
    if e is None or not m < _SQRT_HUGE:  # NaN included
        return math.inf, math.inf, math.inf, None
    mod = np.abs(e)
    at = int(mod.argmax())
    top = float(mod.flat[at])
    delta = diag_res * (1 + _EPS)
    rho = (top + _EPS * m) * (1 + _EPS) + _ETA
    k = m + rho
    t = rho * (1 + 3 * k) + k * delta + rho * rho
    bound = ((t + _EPS * (m + t)) * (1 + _EPS) + _ETA) * (1 + _EPS)
    return (bound if bound < _SQRT_HUGE else math.inf), rho, top, divmod(at, e.shape[0])


def _ratio_test(data: np.ndarray, scale: float, tol: Tolerance):
    """The one multiplicativity rule: the ``cocycle`` and ``unit_diagonal``
    conditions, the witness of the failing one unless both pass, and the
    ``_Split`` of the ``_pivot`` column (None when that is below the floor).
    ``_Facts`` is its only caller. E and |E| are formed here once and dropped
    on return.

    ``cocycle`` compares max|a_ij - a_ik a_kj| against ``tol`` at scale
    M^2 (M = max|a|), ``unit_diagonal`` compares delta = max|a_ii - 1|
    against ``tol`` at scale 1.

    Fast accept. Fix a pivot column p and write E_ij = a_ij - a_ip a_pj,
    r = max|E_ij| and d_k = a_kk - 1. Since a_kp a_pk = a_kk - E_kk = 1 + d_k - E_kk,

        a_ik a_kj = (a_ip a_pk + E_ik)(a_kp a_pj + E_kj)
                  = a_ip a_pj (1 + d_k - E_kk) + a_ip a_pk E_kj + E_ik a_kp a_pj + E_ik E_kj,

    and subtracting from a_ij = a_ip a_pj + E_ij,

        a_ij - a_ik a_kj = E_ij - a_ip a_pj (d_k - E_kk) - a_ip a_pk E_kj
                           - E_ik a_kp a_pj - E_ik E_kj.

    Each pivot product is an entry minus its E (a_ip a_pj = a_ij - E_ij), so
    its modulus is at most K = M + r, and

        max|a_ij - a_ik a_kj| <= r + K (delta + r) + 2 K r + r^2
                               = r (1 + 3K) + K delta + r^2,

    which is r(1 + 3M^2) + M^2 delta + r^2 or less whenever M >= 1 + r.
    ``_scan_bound`` evaluates it with rounding allowances in O(n^2). When
    that bound is at most half the ``cocycle`` threshold, the scan would pass
    too, so ``cocycle`` passes with the bound as its residual, a certified
    upper bound, and the bound is kept as the split's ``bound``, which
    admits the c = 0 form and the sampling bound.

    Fast reject. E is the k = p slice of the ratio scan, formed with the
    scan's own ufuncs and operand order, so the scan's value at the triple
    (i, j, p) is sqrt(re^2 + im^2) of the computed E_ij, bitwise. Take (i, j)
    where |E_ij| is largest and c that value. The computed pivot product is
    off by at most 4u K (K >= M + r as in ``_scan_bound``), the difference
    and the modulus by a few u of c, and an underflowed square by ``_ETA``,
    so the exact |E_ij| is at least (c (1 - _EPS) - _EPS K)(1 - _EPS) - _ETA.
    Where that exceeds the threshold, the identity fails for the exact
    input at (i, j, p): ``cocycle`` fails with that triple as its witness
    and c as its residual, which is at most the scan's worst. Otherwise (the
    band between the two tests, or no bound offered: no pivot above the
    floor, or max|a| >= 2^510) the scan ``_cocycle_parts`` decides and
    reports the exact worst residual and its triple, the first in
    (k // block, i, j, k) order.

    Witness: (i, i, None) for the worst diagonal entry when only
    ``unit_diagonal`` fails, the failing triple when only ``cocycle`` fails,
    and the one with the larger raw residual when both fail.
    """
    diag_dev = np.abs(np.diagonal(data) - 1.0)
    diag_i = int(np.argmax(diag_dev))
    diag_res = float(diag_dev[diag_i])
    unit_diagonal = _condition(diag_res <= tol.threshold(1.0), diag_res)
    threshold = tol.threshold(scale * scale)
    try:
        split, e = _split(data, _pivot(data, tol))
    except ZeroEntryError:
        split = e = None
    bound, rho, top, at = _scan_bound(e, scale, diag_res)  # |E| lives only while this test runs
    if split is not None:
        split.e_max, split.e_top, split.at = rho, top, at
    if math.isfinite(bound) and bound <= 0.5 * threshold:
        split.bound = bound
        cocycle, triple_witness = _condition(True, bound), None
    else:
        d = complex(e[at]) if at else 0j
        c = math.sqrt(d.real * d.real + d.imag * d.imag)  # the scan's value at (i, j, p)
        if at and (c * (1 - _EPS) - _EPS * (scale * (1 + _EPS) + rho)) * (1 - _EPS) - _ETA > threshold:
            triple_res, triple_witness = c, (at[0] + 1, at[1] + 1, split.p + 1)
        else:
            triple_res, triple_witness = _cocycle_parts(data)
        cocycle = _condition(triple_res <= threshold, triple_res)
    if cocycle.passed and unit_diagonal.passed:
        witness = None
    elif cocycle.passed or (not unit_diagonal.passed and diag_res >= cocycle.residual):
        witness = (diag_i + 1, diag_i + 1, None)
    else:
        witness = triple_witness
    return cocycle, unit_diagonal, witness, split


def check_cocycle(a, tol: Tolerance | None = None) -> CocycleResult:
    """Test a_ij = a_ik * a_kj for all triples and a_ii = 1 on the diagonal.

    This is the one rule behind every multiplicativity decision (``check``,
    ``factor``, ``norm``, ``witness``, ``factor_scaling``, ``group_product``):
    the ratio residual is compared against the tolerance scaled by
    max|a_ij|^2, the diagonal deviation against the tolerance at scale 1,
    and both must pass. A residual that overflowed never passes.
    ``residual`` is the worse of the two.

    With a unit diagonal, a_ij = a_ip a_pj for one pivot column p already
    gives the identity for every k, because a_kp a_pk = a_kk = 1. For
    perturbed inputs ``_ratio_test`` bounds the worst ratio violation by
    r (1 + 3K) + K delta + r^2, where r = max|a_ij - a_ip a_pj|, delta the
    diagonal deviation and K = max|a| + r, plus rounding; an input whose
    bound is at most half the threshold is accepted in O(n^2) and its ratio
    residual is that bound, a certified upper bound. The entries
    a_ij - a_ip a_pj are the ratio violations of the triples (i, j, p): where
    the largest of them exceeds the threshold by more than its rounding, the
    input is rejected in O(n^2), with that triple as its witness and its
    violation, as the triple scan computes it, as the ratio residual. That is
    a real violation above the threshold, at most the worst one. Every other
    input takes the O(n^3) triple scan, which reports the exact worst
    violation and its triple, the first in (k // block, i, j, k) order among
    equally bad ones, where block = max(1, 2^21 // n^2), so for n <= 128
    simply the first in (i, j, k) order. On failure the witness names the
    failing condition, 1-based: (i, i, None) for the diagonal, a failing
    triple (i, j, k) for the ratio identity, and the larger raw residual
    when both fail.

    The result is kept with the facts of the matrix (see ``_facts``), so a
    later call on the same matrix, or on a bitwise-equal one, at an equal
    tolerance, here or in a battery, reuses it.
    """
    return _facts(as_matrix(a), tol or DEFAULT_TOL).result


def _passing_facts(m: ComplexMatrix, tol: Tolerance, message: str) -> _Facts:
    """The facts of ``m``, split through its pivot column. NotMultiplicativeError
    unless it passes ``check_cocycle``, with ``message`` formatted with
    ``residual`` and ``witness``; the pivot's ZeroEntryError where it passes
    with no column above the floor."""
    facts = _facts(m, tol)
    if not facts.result.passed:
        residual, witness = facts.result.residual, facts.result.witness
        raise NotMultiplicativeError(
            message.format(residual=residual, witness=witness), residual=residual, witness=witness
        )
    if facts.split is None:
        _pivot(m.data, tol)  # raises: the pivot column holds a below-floor entry
    return facts


def _require_multiplicative(m: ComplexMatrix, tol: Tolerance, message: str) -> ScalingVector:
    """The scaling read off the split of ``m``, refused as ``_passing_facts`` refuses."""
    facts = _passing_facts(m, tol, message)
    # split.scaling() raises the ZeroEntryError that left the facts without f
    return facts.scaling if facts.scaling is not None else facts.split.scaling()


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


# in rung order: known, the c = 0 form and an O(n^2) lower bound (rung 0), the support form, the O(n^3) code
_ROUTES = ("known", "closed", "bound", "support", "lapack")
_KNOWN, _CLOSED, _BOUND, _SUPPORT, _LAPACK = range(len(_ROUTES))


class _Part(NamedTuple):
    """A part that is not a known value (``_decide``): ``read(form)`` is what
    a form gives, read off ``closed``, its c = 0 form, and off the support
    form of ``forms`` (``_Forms``), each None where there is none;
    ``lapack()`` is what the O(n^3) code gives, and ``bound()``, where
    ``bound`` is not None, a certified lower bound on it in O(n^2), or None."""

    closed: _Form | _Span | None
    forms: _Forms | None
    read: Callable
    lapack: Callable
    bound: Callable | None = None


def _decide(table: dict, thresholds: dict, parts: dict) -> dict[str, ConditionResult]:
    """Each condition of ``table``, name: (threshold key, part names...), as
    the conjunction of its ``parts`` at ``thresholds[key]``.

    A part is known: a residual for the threshold to decide, or (passed,
    residual); one that is a ``ConditionResult`` already, the ratio test's,
    is its condition. Any other is a ``_Part``, whose readers each give a
    verdict, (passed, residual), or a value for the threshold to decide
    (``_judged``): a ``_Span``, which leaves the part open where it holds the
    threshold, or a residual. A form reader may also leave it open (None).

    A condition reads its parts one rung at a time (``_rung``). Rung 0 is
    a known value; the c = 0 form where it passes, or either way on a clean
    split, where it is the support form; and the O(n^2) bound where it fails
    finitely. Rung 1 is the support form, rung 2 the O(n^3) code. The
    condition stops at the first rung where any part fails, and fails with
    the worst failure read at that rung; or where every part is decided, and
    passes with the worst upper end, a residual being its own. The residual
    keeps NaN, only a finite one passes, and the ``route`` is the latest the
    counted parts took, in ``_ROUTES`` order. Each reader runs at most once
    per call: the memo holds what it returned, and each condition judges
    that against its own threshold. Two conditions of the same parts at the
    same threshold share one result.
    """
    memo = {}  # (part name, form, or the reader of a bound or of LAPACK): what it returned
    results, done = {}, {}  # condition name, and table entry: its result
    for name, entry in table.items():
        key, *names = entry
        decided = done.get(entry) or parts[names[0]]
        if isinstance(decided, ConditionResult):  # one test under two names, or the ratio test's
            results[name] = decided
            continue
        threshold = thresholds[key]
        passed = []
        for k in range(3):
            failed, left = [], []
            for p in names:
                v = _rung(k, p, parts[p], threshold, memo)
                if v is None:
                    left.append(p)
                elif v[0]:
                    passed.append(v)
                else:
                    failed.append(v)
            if failed or not left:
                break
            names = left
        residuals, route = [], 0
        for _, residual, r in failed or passed:
            residuals.append(residual)
            route = r if r > route else route
        results[name] = done[entry] = _condition(not failed, *residuals, route=_ROUTES[route])
    return results


def _rung(k: int, p: str, part, threshold: float, memo: dict) -> tuple | None:
    """Part ``p``'s verdict at rung k of ``_decide``, (passed, residual,
    route), or None where that rung leaves it open."""
    if not isinstance(part, _Part):  # known
        return (*_judged(part, threshold), _KNOWN)
    if k == 0:
        v = part.closed is not None and _judged(_read(memo, p, part.closed, part.read), threshold)
        if v and v[0]:
            return (*v, _CLOSED)
        if part.forms is not None and part.forms.clean:  # the support form is the c = 0 form
            v = _rung(1, p, part, threshold, memo)
            if v:
                return v
        v = part.bound is not None and _judged(_read(memo, p, part.bound), threshold)
        if v and not v[0] and math.isfinite(v[1]):
            return (*v, _BOUND)
        return None
    if k == 1:
        support = part.forms and part.forms.support
        v = support and _judged(_read(memo, p, support, part.read), threshold)
        return v and (*v, _SUPPORT)
    return (*_judged(_read(memo, p, part.lapack), threshold), _LAPACK)


def _read(memo: dict, p: str, source, reader=None):
    """What ``reader(source)``, or ``source()`` where no reader is given,
    returned for part ``p``: each runs at most once per ``_decide`` call."""
    key = p, source
    return memo[key] if key in memo else memo.setdefault(key, reader(source) if reader else source())


def _judged(v, threshold: float) -> tuple[bool, float] | None:
    """A reader's output as a verdict, (passed, residual): a span or a
    residual against ``threshold``, a verdict as it is."""
    return v.verdict(threshold) if isinstance(v, _Span) else (v <= threshold, v) if isinstance(v, float) else v


def _rank_one_spectrum_distance(vals: np.ndarray) -> float:
    """Bottleneck distance from the n values ``vals`` to {n, 0^(n-1)}, in O(n).

    Pairing value k with n and the rest with 0 costs
    max(|v_k - n|, max_{j != k} |v_j|). With k1 the index of the largest
    |v|, pairing k1 costs max(|v_k1 - n|, the second largest |v|); every
    other k costs at least |v_k1|, and the cheapest of them is the one
    nearest n. The minimum over all pairings is the smaller of those two
    candidates, the exact bottleneck value (cf. Gabow & Tarjan 1988). NaN
    propagates.
    """
    n = vals.size
    to_n = np.abs(vals - n)
    if n == 1:
        return float(to_n[0])
    mods = np.abs(vals)
    k1 = int(np.argmax(mods))
    others = np.arange(n) != k1
    pair_k1 = np.maximum(to_n[k1], mods[others].max())
    pair_other = np.maximum(to_n[others].min(), mods[k1])
    return float(np.minimum(pair_k1, pair_other))


_LOW_RANK_CAP = 8  # lines of E a low-rank form keeps beside the pivot term
# Below this size LAPACK on A costs less than a support form with lines, and
# its QR and small solvers: both batteries on one perturbed entry break even
# between n = 16 and n = 24. A clean split's c = 0 form costs less than
# LAPACK at every size, so it decides below this size too.
_LOW_RANK_MIN_N = 24


def _cap(n: int) -> int:
    """How many lines of E ``_low_rank`` keeps at size n: 8, and fewer than
    n/4, so the small problems stay at most half the size of A; negative
    below ``_LOW_RANK_MIN_N``, where only a clean split, with no lines, has
    a support form (its c = 0 form) and LAPACK decides for every other."""
    return min(_LOW_RANK_CAP, n // 4 - 1) if n >= _LOW_RANK_MIN_N else -1


class _Span(NamedTuple):
    """A value read off a form, and an interval that holds both the exact
    value and the one the O(n^3) code computes, as far as LAPACK keeps within
    the error model of ``_lapack`` (and, for the support form, the QR within
    that of ``_low_rank``)."""

    value: float
    lo: float
    hi: float

    def over(self, den: _Span, power: int = 1) -> _Span:
        """self / max(den^power, 1), the batteries' normalization: each end
        over the opposite end of ``den``."""
        ends = zip(self, (den.value, den.hi, den.lo))
        return _Span(*(x / max(max(d, 0.0) ** power, 1.0) for x, d in ends))

    def verdict(self, threshold: float) -> tuple[bool, float] | None:
        """(True, hi) where the whole span lies below ``threshold``, (False,
        value) where it lies above, else None (so for NaN too)."""
        if self.hi < threshold:
            return True, self.hi
        if self.lo > threshold:
            return False, self.value
        return None


def _near(value: float, err: float) -> _Span:
    return _Span(value, value - err, value + err)


def _top(x: np.ndarray) -> float:
    return float(np.linalg.svd(x, compute_uv=False)[0])


class _Form:
    """x = Q T Q* + F with Q an n-by-m matrix of orthonormal columns, T
    m-by-m and ||F||_F <= ``eta``. Each value the batteries read comes as a
    ``_Span``: T's value, from ``sigma``, ``t_fro`` >= ||T||_F and the
    subclass's ``_skew``, ``_low``, ``_comm`` and ``_eig``, each computed
    once per form, and an interval that holds the exact value and the value
    LAPACK computes from x. The spectrum span is kept per route.

    B = Q T Q* is T padded with n - m zeros in a unitary basis, so its
    singular values are T's and zeros, the eigenvalues of its Hermitian part
    are those of (T + T*)/2 and zeros, and ||B - B*||_2 and the commutator
    ||B B* - B* B||_2 are T's. Weyl's inequality moves each singular value
    and Hermitian eigenvalue by at most ``eta`` from B to x; reading T's
    value adds ``_small`` of its operand, and LAPACK's value on x is off by
    ``_lapack(n, .)`` of its own operand (``lapack`` for x, ``fro`` >= ||x||_F).
    """

    def __init__(self, n: int, m: int, eta: float, fro: float):
        self.n, self.m, self.eta, self.fro = n, m, eta, fro
        self.lapack = _lapack(n, fro)
        self.spans: dict = {}  # ``spectrum`` by route

    def _small(self, fro: float) -> float:
        """Solver error and rounding of a value of T read off an m-by-m
        operand of Frobenius norm at most ``fro``."""
        return (self.m + 2) * _EPS * fro

    @_cached
    def sigma_err(self) -> float:
        """How far x's singular values, T's and the zeros, lie from T's."""
        return (self.eta + self._small(self.t_fro) + self.lapack) * (1 + _EPS)

    def norm(self) -> _Span:
        """||x||_2."""
        return _near(float(self.sigma[0]), self.sigma_err)

    def rank_one(self, tol: Tolerance) -> tuple[bool, float] | None:
        """``_rank(s, n, tol) == 1`` with sigma_2 / sigma_1, or on a pass its
        upper end, where every singular value, T's and the zeros, is further
        from the cut max(rel sigma_1 n, abs) than the allowance moves either;
        else None."""
        s, err, n = self.sigma.tolist(), self.sigma_err, self.n
        cut_lo, cut_hi = (max(tol.rel * (s[0] + d) * n, tol.abs) for d in (-err, err))
        above = [x - err > cut_hi for x in s]
        if not (err < cut_lo and all(up or x + err < cut_lo for up, x in zip(above, s))):
            return None
        if sum(above) != 1:
            return False, s[1] / s[0] if s[0] > 0 else 0.0
        return True, (s[1] + err) / (s[0] - err)

    def skew(self) -> _Span:
        """||x - x*||_2: B's is T's, x's is within 2 eta of it, and LAPACK
        forms and factors an operand of Frobenius norm at most ||T - T*||_F + 2 eta."""
        value, d_fro = self._skew
        lapack = (self.n + 2) * _EPS * (d_fro + 2 * self.eta)
        return _near(value, (2 * self.eta + self._small(d_fro) + lapack) * (1 + _EPS))

    def lam_min(self) -> _Span:
        """The smallest eigenvalue of (x + x*) / 2: (T + T*)/2's or one of
        the zeros."""
        value, h_fro = self._low
        lapack = (self.n + 2) * _EPS * self.fro
        return _near(value, (self.eta + self._small(h_fro) + lapack) * (1 + _EPS))

    def commutator(self) -> _Span:
        """||x x* - x* x||_2. With x = B + D, ||D||_2 <= eta, the commutator
        moves by at most 4 ||B||_2 eta + 2 eta^2; T's two products round by
        (m + 1) _EPS ||T||_F^2 each. LAPACK's value on x carries
        (n + 4) _EPS ||x||_F^2 for each of its two n-by-n products and
        ``_lapack`` for its SVD."""
        value, c_fro = self._comm
        n, eta, fro = self.n, self.eta, self.fro
        ours = 2 * (self.m + 2) * _EPS * self.t_fro * self.t_fro + self._small(c_fro)
        theirs = 2 * (n + 4) * _EPS * fro * fro + _lapack(n, 2 * fro * fro)
        moved = 4 * (float(self.sigma[0]) + self.sigma_err) * eta + 2 * eta * eta
        return _near(value, (moved + ours + theirs) * (1 + _EPS))

    def spectrum(self, hermitian: bool = False) -> _Span | None:
        """``_spectrum`` for the route ``hermitian``, computed once per route."""
        spans = self.spans
        return spans[hermitian] if hermitian in spans else spans.setdefault(hermitian, self._spectrum(hermitian))

    def _spectrum(self, hermitian: bool) -> _Span | None:
        """Distance from the spectrum to {n, 0^(n-1)}, or None where the
        eigenvalue of T nearest n is not isolated from the rest.

        ``_eig`` gives the value, ``_rank_one_spectrum_distance`` of T's
        eigenvalues and n - m zeros, T's eigenvalue lam nearest n, the cosine
        |y* x| of its unit right and left eigenvectors x and y, a ``defect``
        such that some B' within it of B has lam as an exact eigenvalue with
        those eigenvectors, and b2 >= the norm of B' beside lam. With
        S = [x, U], U an orthonormal basis of y's complement (invariant under
        B'), S^-1 B' S = diag(lam, B2), kappa(S) = (1 + sin) / cos for the
        angle between x and y, and ||B2||_2 <= b2. Every matrix within
        e = eta + defect + ``lapack`` of B' (x, and the matrix LAPACK's
        eigenvalues are exact for) has, at rho = kappa(S) e, its eigenvalues
        in the disc of radius rho about lam and in the disc of radius
        b2 + rho about 0 (block Bauer-Fike), and when the discs are disjoint
        exactly one in the first (continuity). So its distance lies within
        [min(|lam - n|, |lam|) - rho, max(|lam - n|, b2) + rho]. Where
        ``eigenvalues`` takes the symmetric solver (``hermitian``), its
        values are exact for a matrix near (x + x*)/2, which is
        ||x - x*||_F / 2 <= ||T - T*||_F / 2 + eta further from x, and e
        grows by that.
        """
        value, lam, cos, defect, b2 = self._eig
        e = self.eta + defect + self.lapack
        if hermitian:
            e += 0.5 * self._skew[1] + self.eta + self._small(self.t_fro)
        kappa = (1 + math.sqrt(max(1 - cos * cos, 0.0))) / cos if cos > 0 else math.inf
        rho = kappa * e * (1 + _EPS)
        if not abs(lam) - rho > b2 + rho:  # inf and NaN included
            return None
        to_n = abs(lam - self.n)
        return _Span(value, min(to_n, abs(lam)) - rho, max(to_n, b2) + rho)


_SQRT2 = math.sqrt(2.0)


class _Closed(_Form):
    """The c = 0 form, built by ``_closed``: B = u v^T = Q T Q* with Q an
    orthonormal basis of span(u, conj v) (u and any unit vector orthogonal
    to it where that span is a line) and the 2-by-2

        T = [[lam, beta], [0, 0]],  lam = v^T u,
        beta = ||u|| ||conj v - (u* conj v / ||u||^2) u||,

    T's first row being ||u|| Q* conj v. Every value of T is a closed form in
    Python floats, computed as the form is built, a few roundings of its
    operand's norm, within ``_small``:

    - singular values hypot(|lam|, beta) = ||u|| ||v|| and 0;
    - eigenvalues lam and 0, lam's right eigenvector e_1 and its left one
      along T's first row, at cosine |lam| / ||T||_F; T vanishes off that row,
      so the defect and b2 are 0;
    - ||T - T*||_2 = |Im lam| + hypot(Im lam, beta);
    - (T + T*)/2 has eigenvalues (Re lam +- hypot(Re lam, beta)) / 2, the
      smaller formed without cancellation;
    - T T* - T* T = [[beta^2, -conj(lam) beta], [-lam beta, -beta^2]], of
      2-norm beta ||T||_F.
    """

    def __init__(self, lam: complex, beta: float, n: int, eta: float, fro: float):
        super().__init__(n, 2, eta, fro)
        self.lam, self.beta = lam, beta
        self.t_fro = t_fro = math.hypot(abs(lam), beta)
        self.sigma = np.array((t_fro, 0.0))
        im, re = abs(lam.imag), lam.real
        self._skew = im + math.hypot(im, beta), math.hypot(2 * im, _SQRT2 * beta)
        h = math.hypot(re, beta)
        low = -beta * beta / (2 * (re + h)) if re > 0 else (re - h) / 2
        self._low = low, math.hypot(re, beta / _SQRT2)
        comm = beta * t_fro
        self._comm = comm, _SQRT2 * comm
        cos = abs(lam) / t_fro - 4 * _EPS
        self._eig = min(abs(lam - n), max(n, abs(lam))), lam, cos, 0.0, 0.0


def _closed(split: _Split) -> _Closed | None:
    """The c = 0 form of the split's x, in O(n); None for n < 2, where Q has
    no room for T, and where ||u|| or ``uv`` / ||u|| >= ||v|| lies outside
    [2^-200, 2^200], so that no product below overflows or underflows.

    x = u v^T + E with ||E||_F <= ``rest``. lam = v^T u is an inner product
    of length n, off by at most gamma_(n+2) ||u|| ||v|| (Higham, Accuracy and
    Stability of Numerical Algorithms, section 3.6). beta is formed from the
    projection residual w = conj v - c u, never as
    sqrt(||u||^2 ||v||^2 - |lam|^2), which cancels to about sqrt(u) ||u|| ||v||
    wherever conj v is nearly parallel to u, every Hermitian input included.
    The computed c = conj(lam) / ||u||^2 is off by at most (3n + 7) u ||v|| / ||u||,
    which moves ||w|| by at most that times ||u||, w being the least residual
    over c; forming w adds 4 u ||v||, and the two norms and the product
    (2n + 3) u beta. So lam is off by (n + 2) u ||u|| ||v|| and beta by
    (5n + 14) u ||u|| ||v||, and the computed T lies within
    (n + 2) _EPS ||u|| ||v|| of T in Frobenius norm, which ``eta`` adds to
    ``rest``. ||x||_F is at most ||u|| ||v|| + ||E||_F.
    """
    u, v, n = split.u, split.v, split.u.size
    nu = math.sqrt(np.vdot(u, u).real)
    if n < 2 or not (2.0**-200 <= nu <= 2.0**200 and 2.0**-200 <= split.uv / nu <= 2.0**200):
        return None
    lam = complex(v @ u)
    w = v.conj() - (lam.conjugate() / (nu * nu)) * u
    beta = nu * math.sqrt(np.vdot(w, w).real)
    eta = (split.rest + (n + 2) * _EPS * split.uv) * (1 + _EPS)
    return _Closed(lam, beta, n, eta, (split.uv + split.rest) * (1 + _EPS))


def _low_rank(x: np.ndarray, p: int, support, fro: float) -> _LowRank | None:
    """x = Q T Q* + F from the pivot split through column p and the lines
    ``support`` = (rows, cols) of its E, or None where that form is further
    from x than ``_lapack(n, fro)``, LAPACK's own allowance (``fro`` >= ||x||_F),
    or where ``fro`` lies outside [2^-400, 2^400], so that no product
    below can overflow or lose its accuracy to underflow.

    With u = x_:p, v = x_p:, E = x - u v^T as computed, C = cols and R = rows,
    x = X Y^T + F for the n-by-k factors, k = 1 + |C| + |R|,

        X = [u, E_:C, I_:R],   Y = [v, I_:C, (E_R: with its C columns zeroed)^T],

    where F is E off the lines plus the rounding of E on them, so
    ||F||_F <= (||E off the lines||_F + _EPS (||u|| ||v|| + ||E||_F))(1 + _EPS)
    as for ``_Split.rest``. Householder QR of W = [X, conj(Y)] is backward
    stable column by column: W + dW = Q [R1, R2] for an exactly orthonormal
    n-by-2k Q, with ||dw_j|| <= gamma~_(2kn) ||w_j|| (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 19.4), a worst-case bound that
    grows with the row count n. g = (2k + 1) _EPS in its place is an error
    model, not that bound, just as ``_lapack``'s p(n) = 16(n + 1) is for
    drivers whose worst-case bounds grow like n^2: it counts the 2k
    reflections and not their length. numpy's QR on perturbed inputs at
    n = 64 to 512, 2k <= 16, stayed below 0.11 g per column and its
    computed Q within 0.16 g of orthonormal. Under that model
    x = Q T Q* + F' with T = R1 R2^H, never Y^T X, whose rounding the
    condition of X would amplify, and

        ||F'||_F <= ||F||_F + sum_t (2g + g^2 + (k + 1) _EPS (1 + g)^2) ||x_t|| ||y_t||,

    the last term for rounding T's product. The form is kept when ||F'||_F
    plus the small solver's ``_lapack(2k, ||T||_F)`` is within
    ``_lapack(n, fro)``: under both models its values are then exact for a
    matrix as near x as the matrix LAPACK's values are exact for. E is
    formed here and dropped.
    """
    if not 2.0**-400 <= fro <= 2.0**400:
        return None
    rows, cols = (list(line) for line in support)
    n = x.shape[0]
    u, v = x[:, p], x[p]
    e = x - np.outer(u, v)
    e_fro = _fro(e)
    by_col = e[:, cols]
    e[:, cols] = 0.0
    by_row = e[rows]
    e[rows] = 0.0
    rest = (_fro(e) + _EPS * (_fro(u) * _fro(v) + e_fro)) * (1 + _EPS)
    c, k = len(cols), 1 + len(cols) + len(rows)
    w = np.zeros((n, 2 * k), dtype=np.complex128)  # [X, conj(Y)]
    w[:, 0], w[:, k] = u, v.conj()
    w[:, 1:1 + c] = by_col
    w[cols, k + 1 + np.arange(c)] = 1.0
    w[rows, 1 + c + np.arange(len(rows))] = 1.0
    w[:, k + 1 + c:] = by_row.conj().T
    r = np.linalg.qr(w, mode="r")
    t = r[:, :k] @ r[:, k:].conj().T
    norms = np.linalg.norm(w, axis=0)
    pairs = float(norms[:k] @ norms[k:]) * (1 + 2 * n * _EPS)  # >= sum_t ||x_t|| ||y_t||
    g = (2 * k + 1) * _EPS
    eta = (rest + (2 * g + g * g + (k + 1) * _EPS * (1 + g) ** 2) * pairs) * (1 + _EPS) + _ETA
    if not eta + _lapack(2 * k, _fro(t)) <= _lapack(n, fro):  # NaN included
        return None
    return _LowRank(t, eta, n, fro)


class _LowRank(_Form):
    """The support form, built by ``_low_rank``: T is m-by-m,
    m = 2k <= 2(|R| + |C| + 1) <= n/2, and its values come from numpy's
    solvers on T, each on its first read."""

    def __init__(self, t: np.ndarray, eta: float, n: int, fro: float):
        super().__init__(n, t.shape[0], eta, fro)
        self.t, self.t_fro = t, _fro(t)
        self.sigma = np.linalg.svd(t, compute_uv=False)  # descending

    @_cached
    def _skew(self) -> tuple[float, float]:
        d = self.t - self.t.conj().T
        return _top(d), _fro(d)

    @_cached
    def _low(self) -> tuple[float, float]:
        h = _hermitian_part(self.t)
        return min(float(np.linalg.eigvalsh(h)[0]), 0.0), _fro(h)

    @_cached
    def _comm(self) -> tuple[float, float]:
        t = self.t
        comm = t @ t.conj().T - t.conj().T @ t
        return _top(comm), _fro(comm)

    @_cached
    def _eig(self) -> tuple:
        """Let lam, x and y be T's eigenvalue nearest n and its unit right
        and left eigenvectors, with residuals r = ||T x - lam x|| and
        s = ||y* T - lam y*|| (rounding included). Then
        B' = B - r x* - y s* + (y* r) y x*, in Q's basis, has lam as an exact
        eigenvalue with those eigenvectors, ||B' - B||_2 <= 2r + s, and its
        block beside lam has norm at most ||T (I - y y*)||_2 + 2r + s."""
        t, n, m = self.t, self.n, self.m
        vals, right = np.linalg.eig(t)
        i = int(np.argmin(np.abs(vals - n)))
        lam = complex(vals[i])
        conj_vals, left = np.linalg.eig(t.conj().T)
        j = int(np.argmin(np.abs(conj_vals - lam.conjugate())))
        x = right[:, i] / np.linalg.norm(right[:, i])
        y = left[:, j] / np.linalg.norm(left[:, j])
        slack = (m + 2) * _EPS * (self.t_fro + abs(lam))  # rounding, normalization included
        r = _fro(t @ x - lam * x) + slack
        s = _fro(y.conj() @ t - lam * y.conj()) + slack
        cos = abs(np.vdot(y, x)) - (m + 2) * _EPS
        tail = t - np.outer(t @ y, y.conj())
        b2 = _top(tail) + self._small(_fro(tail)) + slack + 2 * r + s
        value = _rank_one_spectrum_distance(np.concatenate([vals, np.zeros(n - m)]))
        return value, lam, cos, 2 * r + s, b2


class _Forms:
    """The two forms of x, each built on its first read, that every part of
    a condition reads before the O(n^3) code (``_decide``): ``closed``, the
    c = 0 form where the ratio test accepted through ``split``, else None;
    and ``support``, the form on the split's lines (within the cap,
    ``_Split.support``), which is the c = 0 form itself, at every n, where
    there are none. Without a split there are neither.

    x is A, or its Schur inverse split through the same column: for a
    multiplicative A, 1/a_ij = (1/a_ip)(1/a_pj), and off A's support
    1/a_ij - (1/a_ip)(1/a_pj) = -E_ij / (a_ij a_ip a_pj) is rounding as well,
    so the inverse splits on the same lines.

    ``clean`` tells, without forming E, that the support form is the c = 0
    form. ``fro`` >= ||x||_F, ``skew_rows`` and ``skew_bounds``
    (``_skew_bounds``) are computed on first use, for the O(n^2) bounds.
    """

    def __init__(self, x: np.ndarray, split: _Split | None):
        self.x, self.split = x, split

    @_cached
    def clean(self) -> bool:
        return self.split is not None and self.split.clean

    @_cached
    def fro(self) -> float:
        split = self.split
        return split.fro if split is not None and self.x is split.x else _fro(self.x)

    @_cached
    def skew_rows(self) -> float:
        """max|x_ij / 2 - conj(x_ji) / 2| as ``core._half_skew`` computes it,
        over rows i of the pivot and of the split's ``at`` (all rows without
        one), in O(n): at most the maximum over all rows."""
        split = self.split
        at = split and split.at
        return _half_skew(self.x, None if at is None else [split.p, *at])

    @_cached
    def skew_bounds(self) -> tuple[float, float]:
        return _skew_bounds(self.x.shape[0], self.fro, self.skew_rows)

    def part(self, read, lapack, bound=None) -> _Part:
        """The ``_Part`` that reads these forms with ``read``, its O(n^2) bound
        with ``bound`` and the O(n^3) code with ``lapack``."""
        return _Part(self.closed, self, read, lapack, bound)

    def psd_bound(self, tol: Tolerance) -> tuple[bool, float] | None:
        """``star._psd_residual``'s failing verdict on x, with a lower bound
        on its residual, where the ends ``skew_bounds`` gives fail its
        Hermitian test: ||x - x*||_2 above the threshold at the upper end of
        ||x||_2. Else None."""
        lo, hi = self.skew_bounds
        if lo > tol.threshold(hi) * (1 + _EPS):
            return False, lo / max(hi, 1.0) * (1 - _EPS)
        return None

    @_cached
    def whole(self) -> _Closed | None:
        """The c = 0 form, whether or not the ratio test accepted through the split."""
        return _closed(self.split if self.x is self.split.x else _split(self.x, self.split.p)[0])

    @_cached
    def closed(self) -> _Closed | None:
        return self.whole if self.split and math.isfinite(self.split.bound) else None

    @_cached
    def support(self) -> _Form | None:
        split = self.split
        lines = split and split.support
        if lines == ((), ()):
            return self.whole
        return lines and _low_rank(self.x, split.p, lines, self.fro)


class _Facts(_Forms):
    """What every multiplicativity decision reads off one coefficient matrix.

    The ratio test, its ``CocycleResult`` and its split are computed up
    front, in O(n^2) where the pivot bound or the pivot slice decides (the
    star battery checks the O(n) unit-diagonal precondition before it asks
    for them). The scaling read off that split, A's two forms (``_Forms``), the
    singular values, ||A - A*||_2 and the spectrum distance are computed on
    first use and kept, so each pass runs at most once and a call that reads
    none of them never runs it. The ``read_*`` and ``lapack_*`` methods are
    the form and O(n^3) readers of the parts both batteries read off A, rank
    one and the spectrum distance, and the ``*_bound`` methods the O(n^2)
    lower bounds of every part the batteries read off A (``_decide``).
    """

    @np.errstate(over="ignore", invalid="ignore")  # overflowed residuals fail closed
    def __init__(self, m: ComplexMatrix, tol: Tolerance):
        data = m.data
        self.m, self.tol, self.n = m, tol, require_square(m)
        self.scale = scale = float(np.abs(data).max())  # max |a_ij|
        # the witness names the failing condition's entry, 1-based
        self.cocycle, self.unit_diagonal, self.witness, self.split = _ratio_test(data, scale, tol)
        self.x = data
        residual = _nanmax(self.cocycle.residual, self.unit_diagonal.residual)
        self.result = CocycleResult(self.witness is None, residual, self.witness)

    @_cached
    def scaling(self) -> ScalingVector | None:
        """f read off the split where the ratio test passed through one, else None."""
        try:
            return self.split.scaling() if self.result.passed and self.split is not None else None
        except ZeroEntryError:
            return None

    def require_nonzero(self) -> None:
        """PreconditionError for the zero map, which neither battery certifies."""
        if self.scale == 0.0:
            raise PreconditionError("the zero Schur map is excluded from certification")

    @_cached
    def hermitian_route(self) -> bool:
        """Whether ``eigenvalues`` takes the symmetric solver for A
        (``core._hermitian_route``): not where a few rows already exceed its
        threshold (``skew_rows``), else by its n-by-n pass."""
        half = 0.5 * self.tol.threshold(self.scale)
        return not self.skew_rows > half and _half_skew(self.x) <= half

    def route(self, form: _Form) -> bool:
        """``hermitian_route``, without its n-by-n pass where the split or
        ``form`` decides it.

        That pass compares c, the computed max|a_ij - conj(a_ji)| / 2, with
        half the threshold; c lies within a relative 4u (u = 2^-53), and a
        few 2^-1075 where a half is subnormal, of d / 2 for the exact
        d = max|a_ij - conj(a_ji)|. The split's ``skew_max`` bounds d from
        above, and d >= ||A - A*||_2 / n, whose lower end ``form``'s skew
        span gives. That span alone rarely shows d small enough: its width,
        2 eta, is about 9e-10 for a unimodular n = 512 input, against a
        threshold of 1e-10.
        """
        half = 0.5 * self.tol.threshold(self.scale)
        if self.split is not None and 0.5 * self.split.skew_max * (1 + _EPS) + _ETA <= half:
            return True
        if 0.5 * (form.skew().lo / self.n) * (1 - _EPS) - _ETA > half:
            return False
        return self.hermitian_route

    def forms_of(self, x: np.ndarray) -> _Forms:
        """The forms of x, split through A's pivot column."""
        return _Forms(x, self.split)

    @_cached
    def singular_values(self) -> np.ndarray:
        return _singular_values(self.m.data)

    @_cached
    def skew_norm(self) -> float:
        """||A - A*||_2."""
        return _skew_norm(self.m.data)

    @_cached
    def spectrum_distance(self) -> float:
        """Distance from the spectrum to {n, 0^(n-1)}."""
        return _rank_one_spectrum_distance(eigenvalues(self.m, self.tol))

    def read_rank_one(self, form: _Form) -> tuple | None:
        """rank(A) == 1 from ``form`` (``_Form.rank_one``)."""
        return form.rank_one(self.tol)

    def lapack_rank_one(self) -> tuple[bool, float]:
        """rank(A) == 1 from the SVD, with sigma_2 / sigma_1 as its residual."""
        s = self.singular_values
        residual = float(s[1] / s[0]) if self.n > 1 and s[0] > 0 else 0.0
        return _rank(s, self.n, self.tol) == 1, residual

    def read_spectrum(self, form: _Form, per: float = 1.0) -> _Span | None:
        """The spectrum distance divided by ``per``, from ``form`` on the
        route ``eigenvalues`` takes for A."""
        span = form.spectrum(self.route(form))
        return span and _Span(*(v / per for v in span))

    def lapack_spectrum(self, per: float = 1.0) -> float:
        """The same from the eigensolver."""
        return self.spectrum_distance / per

    def hermitian_bound(self) -> float:
        """A lower bound on ||A - A*||_2 / max(||A||_2, 1) as the star
        battery's ``hermitian`` part computes it, from ``skew_bounds``."""
        lo, hi = self.skew_bounds
        return lo / max(hi, 1.0) * (1 - _EPS)

    def normal_bound(self) -> float | None:
        """A lower bound on ||C||_2 / max(||A||_2^2, 1), C = A A* - A* A, as
        the star battery's ``normal`` part computes it, from rows i and j of
        C, (i, j) the split's ``at`` (``_commutator_floor``); None without it.
        Each row is two products of a 2-by-n and an n-by-n matrix."""
        split = self.split
        at = split and split.at
        if at is None:
            return None
        x, rows = self.x, list(at)
        lines = (x[rows].conj() @ x.T).conj() - x[:, rows].T.conj() @ x
        return _commutator_floor(self.n, self.fro, math.sqrt(max(np.vdot(line, line).real for line in lines)))

    @_cached
    def rank_one_bound(self) -> tuple[bool, float] | None:
        """A failing ``lapack_rank_one`` verdict, with a lower bound on its
        residual, where a 2-by-2 minor shows it in O(1); else None.

        M is the submatrix on rows {i, p} and columns {j, p}, (i, j) the
        split's ``at`` and p its pivot, so det M = a_ij a_pp - a_ip a_pj, E_ij
        on a unit diagonal. By interlacing sigma_2(A) >= sigma_2(M), which
        ``_minor_floor`` bounds below. LAPACK's singular values are exact for
        a matrix within ``_lapack(n, ||A||_F)`` of A, so it computes sigma_2
        at least that much less and sigma_1 at most ||A||_F plus that. Where
        the lower end of sigma_2 exceeds the rank cut at the upper end of
        sigma_1, LAPACK counts a second singular value, and its residual
        sigma_2 / sigma_1 is at least the ratio of the two ends.
        """
        split = self.split
        at = split and split.at
        if at is None or split.p in at:
            return None
        (i, j), p, x = at, split.p, self.x
        lapack = _lapack(self.n, self.fro)
        lo = _minor_floor(*(complex(x[r, k]) for r, k in ((i, j), (i, p), (p, j), (p, p)))) - lapack
        hi = (self.fro + lapack) * (1 + _EPS)
        if lo > max(self.tol.rel * hi * self.n, self.tol.abs) * (1 + _EPS):
            return False, lo / hi * (1 - _EPS)
        return None

    @_cached
    def spectrum_bound(self) -> float:
        """A lower bound on ``spectrum_distance`` in O(n^2), from the trace of
        the square of the operand the eigensolver reads: A, or on the
        symmetric solver's route its Hermitian part (``_spectrum_floor``).
        Division is monotone, so ``spectrum_bound / per`` bounds
        ``lapack_spectrum(per)`` as computed."""
        x, fro = self.x, self.fro
        if self.hermitian_route:
            x, fro = _hermitian_part(x), fro * (1 + _EPS)
        return _spectrum_floor(x, fro)


_last_facts: _Facts | None = None


def _facts(m: ComplexMatrix, tol: Tolerance) -> _Facts:
    """The last ``_Facts`` if it was built at an equal ``tol`` for ``m`` or a
    bitwise-equal matrix, else new ones, so every multiplicativity call on
    one matrix shares one ratio test, whichever object carries it.

    Bitwise-equal means the same shape and the same complex128 bits, so
    0.0 and -0.0 differ; every fact is a function of those bits and ``tol``.
    The same object is recognised first; otherwise one n^2 comparison runs,
    and only where the shapes match. A ``ComplexMatrix`` holds a read-only
    copy of what it was built from, so a caller's array changed in place is
    a new matrix.
    """
    global _last_facts
    facts = _last_facts
    if facts is None or facts.tol != tol or not (
        facts.m is m
        or (facts.m.shape == m.shape and facts.m.data.tobytes() == m.data.tobytes())
    ):
        facts = _last_facts = _Facts(m, tol)
    return facts


@dataclass
class MultiplicativityCertificate:
    """Per-condition verdicts for the multiplicative battery.

    ``conditions`` maps each label in MULTIPLICATIVE_CONDITIONS to its
    verdict and scale-normalized residual. ``witness`` is the ratio test's
    (``check_cocycle``): a failing triple, or a diagonal entry with None for
    the middle index, 1-based, and only present when the ratio test fails.
    ``inconsistent`` flags disagreement among the four theoretically
    equivalent composite conditions; near the tolerance boundary that is a
    conditioning diagnostic, and the caller decides what to do with it.
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
        from .io import complex_cells  # a certificate that is not printed needs no io

        return {
            "verdict": self.verdict,
            "conditions": {name: r.to_dict() for name, r in self.conditions.items()},
            "witness": list(self.witness) if self.witness else None,
            "scaling": complex_cells(self.scaling.values) if self.scaling is not None else None,
            "inconsistent": self.inconsistent,
            "tolerance": self.tolerance.to_dict(),
        }


def _product_sampling_residual(data: np.ndarray, trials: int, seed: int) -> float:
    """Worst normalized defect of S_A(BC) x = S_A(B) S_A(C) x over seeded
    rank-one probes, in O(n^2) per trial.

    Every trial draws b1, b2, c1, c2 and x, standard complex Gaussian
    n-vectors, from one ``default_rng(seed)`` stream, and takes B = b1 b2^T
    and C = c1 c2^T. With y = c2 o x and w = b2 o c1,

        S_A(BC) x = (b2 . c1) b1 o (A y),   S_A(B) S_A(C) x = b1 o (A (w o (A y))),

    two matrix-vector products, and the defect is
    d = b1 o sum_kj (a_ij - a_ik a_kj) w_k y_j. Its coefficient of
    b1_i w_k y_j is exactly a ratio-identity deviation, so a random draw
    misses a violation with probability zero (Freivalds 1977, applied to a
    polynomial identity as in Schwartz-Zippel). The residual is
    ||d|| / (||B||_F ||C||_F ||x||_rms max|a_ij|^2), x measured by its
    root-mean-square entry ||x|| / sqrt(n): on one perturbed entry that
    puts the residual at the size the n-by-n Gaussian pairs B, C of earlier
    versions gave (1.2 times it in the median). A NaN defect (overflow) is
    kept, not folded away. Draws that do not fit in memory raise
    ResourceLimitError.
    """
    n = data.shape[0]
    scale = float(np.abs(data).max())
    try:
        draws = np.random.default_rng(seed).standard_normal((2, 5, trials, n))
    except (MemoryError, ValueError):  # ValueError: the byte count overflows an index
        raise ResourceLimitError(f"{trials} sampling trials at n = {n} do not fit in memory") from None
    b1, b2, c1, c2, x = draws[0] + 1j * draws[1]  # each (trials, n)
    w, y = b2 * c1, c2 * x
    ay = y @ data.T  # row t: A y for trial t
    lhs = w.sum(axis=1)[:, None] * b1 * ay
    rhs = b1 * ((w * ay) @ data.T)
    defects = np.linalg.norm(lhs - rhs, axis=1) * math.sqrt(n)
    sizes = np.prod([np.linalg.norm(v, axis=1) for v in (b1, b2, c1, c2, x)], axis=0)
    worst = 0.0
    for defect, size in zip(defects.tolist(), sizes.tolist()):
        denom = size * scale * scale
        if denom != 0.0:
            worst = _nanmax(worst, defect / denom)
    return worst


def _sampling_bound(cocycle: float, scale: float, n: int) -> float:
    """Upper bound on what ``_product_sampling_residual`` returns, for every
    draw, from ``cocycle`` >= max|a_ij - a_ik a_kj| and M = ``scale``.

    The defect is d_i = b1_i sum_kj (a_ij - a_ik a_kj) w_k y_j, so
    ||d|| <= cocycle ||b1|| ||w||_1 ||y||_1, and by Cauchy-Schwarz
    ||w||_1 <= ||b2|| ||c1|| and ||y||_1 <= ||c2|| ||x||, so
    ||d|| <= cocycle ||B||_F ||C||_F ||x||. In binary64 (u = 2^-53; a
    complex product is off by sqrt(2) gamma_2 <= 3u relative and an inner
    product of length n by gamma_(n+2) of the sum of moduli, Higham,
    Accuracy and Stability, section 3.6), A y is off by (n + 5) u M ||y||_1
    per entry and b2 . c1 by (n + 2) u ||w||_1, so the computed
    (b2 . c1) b1 o (A y) is off by (2n + 13) u M |b1_i| ||w||_1 ||y||_1,
    b1 o (A (w o (A y))) by (2n + 16) u M^2 |b1_i| ||w||_1 ||y||_1, and with
    the last difference the computed defect is within
    (2n + 17) u (M + M^2) ||b1|| ||w||_1 ||y||_1 of the exact one, which
    the same Cauchy-Schwarz step bounds by ||B||_F ||C||_F ||x||; the factor
    2 below covers second-order terms. So each trial's residual is at
    most sqrt(n) (cocycle / M^2 + 2 (2n + 17) u (1 + 1/M)), with
    2u = _EPS / 8; the norms, the
    products and the quotient add a relative 8 (n + 2) _EPS, and ``_ETA``
    covers underflow. inf outside 2^-400 <= M <= 2^400, where the products,
    with Gaussian draws below 16, could overflow.
    """
    if not 2.0**-400 <= scale <= 2.0**400:
        return math.inf
    per_trial = cocycle / (scale * scale) + (2 * n + 17) * _EPS / 8 * (1 + 1 / scale)  # 2 (2n + 17) u
    return math.sqrt(n) * per_trial * (1 + 8 * (n + 2) * _EPS) + _ETA


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

    Each condition is read rung by rung (``_decide``). ``rank_one`` and
    ``spectrum_0_n`` read at rung 0 the c = 0 form, where the ratio test
    accepted through its pivot split, if it passes them (either way on a
    clean split, where it is the support form), and their O(n^2) lower
    bounds (a 2-by-2 minor, and tr(A^2) against n^2) if those fail them; at
    rung 1 the support form (the low-rank form on a few lines of E from
    n = 24 on); at rung 2 the SVD or the eigensolver. ``product_sampling``
    reads ``_sampling_bound`` at rung 0 and samples where that leaves it
    open, its verdict then being a sampled one. A passing condition reports
    its span's upper end, a certified upper bound on what the O(n^3) code
    would report, or that code's own value. On the accept path that rests
    on LAPACK's error model (``_lapack``) alone: no QR runs there. A failing
    condition reports what failed it: a bound, a certified lower bound on
    LAPACK's residual under the same model; a form's value, within its span
    of LAPACK's; or LAPACK's residual. ``product_sampling`` costs two
    matrix-vector products per trial; where it samples and its draws do not
    fit in memory, ResourceLimitError is raised.

    The conditions are ``_MULTIPLICATIVE``'s: ``cocycle`` and
    ``unit_diagonal`` are the ratio test's results, the ratio bound is
    ``product_sampling``'s c = 0 form, and each condition's ``route`` tells
    what decided it.
    """
    m = as_matrix(a)
    n = require_square(m)
    tol = tol or DEFAULT_TOL
    if trials < 1:
        raise PreconditionError("trials must be positive")
    _require_seed(seed)
    facts = _facts(m, tol)
    facts.require_nonzero()
    bound = _sampling_bound(facts.split.bound if facts.split else math.inf, facts.scale, n)
    parts = {
        "cocycle": facts.cocycle,
        "unit_diagonal": facts.unit_diagonal,
        "rank_one": facts.part(facts.read_rank_one, facts.lapack_rank_one, lambda: facts.rank_one_bound),
        "spectrum": facts.part(facts.read_spectrum, facts.lapack_spectrum, lambda: facts.spectrum_bound),
        # the ratio bound is the c = 0 form, read as it is; the sampling the O(n^3) code
        "sampling": _Part(
            _Span(bound, -math.inf, bound),
            None,
            _Span._make,
            functools.partial(_product_sampling_residual, m.data, trials, seed),
        ),
    }
    conditions = _decide(_MULTIPLICATIVE, {"one": tol.threshold(1.0), "n": tol.threshold(float(n))}, parts)
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
        herm = _hermitian_part(rotated)
        try:
            support = float(np.linalg.eigvalsh(herm)[-1])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"support computation failed: {exc}") from exc
        out.append((float(theta), support))
    return out
