"""Dense complex matrices and the spectral primitives every other module consumes.

Storage is 0-based numpy; anything user-facing (witnesses, error positions)
is reported 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, ZeroEntryError

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "ComplexMatrix",
    "as_matrix",
    "identity",
    "all_ones",
    "matrix_unit",
    "schur_product",
    "schur_inverse",
    "eigenvalues",
    "numerical_rank",
    "operator_norm",
    "multiset_distance",
]


@dataclass(frozen=True)
class Tolerance:
    """Relative/absolute tolerance pair used by every numerical predicate.

    ``threshold(scale)`` gives the acceptance threshold for a residual whose
    natural magnitude is ``scale``: ``max(rel * scale, abs)``.
    """

    rel: float = 1e-10
    abs: float = 1e-12

    def __post_init__(self):
        if not (np.isfinite(self.rel) and np.isfinite(self.abs)):
            raise ValueError("tolerance components must be finite")
        if self.rel < 0 or self.abs < 0:
            raise ValueError("tolerance components must be nonnegative")
        if self.rel == 0 and self.abs == 0:
            raise ValueError("at least one tolerance component must be positive")

    def threshold(self, scale: float = 1.0) -> float:
        return max(self.rel * float(scale), self.abs)

    def to_dict(self) -> dict:
        return {"rel": self.rel, "abs": self.abs}


DEFAULT_TOL = Tolerance()


class ComplexMatrix:
    """Immutable dense rectangular matrix of finite complex128 scalars.

    A thin wrapper over a read-only ndarray; use ``.data`` for numpy access.
    """

    __slots__ = ("_data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.complex128, copy=True)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionError(
                f"expected a nonempty two-dimensional array, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite (no NaN/Inf components)")
        arr.setflags(write=False)
        self._data = arr

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def conj_transpose(self) -> "ComplexMatrix":
        return ComplexMatrix(self._data.conj().T)

    def __matmul__(self, other) -> "ComplexMatrix":
        other = as_matrix(other)
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply shapes {self.shape} and {other.shape}"
            )
        return ComplexMatrix(self._data @ other._data)

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self._data.copy()
        return self._data.astype(dtype)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._data, other._data))

    def __repr__(self) -> str:
        return f"ComplexMatrix({self._data.tolist()!r})"


def as_matrix(value) -> ComplexMatrix:
    """Coerce an array-like into a ComplexMatrix (no copy if already one)."""
    if isinstance(value, ComplexMatrix):
        return value
    return ComplexMatrix(value)


def identity(n: int) -> ComplexMatrix:
    return ComplexMatrix(np.eye(n, dtype=np.complex128))


def all_ones(n: int) -> ComplexMatrix:
    """The n-by-n matrix of ones: the identity element for the Schur product."""
    return ComplexMatrix(np.ones((n, n), dtype=np.complex128))


def matrix_unit(n: int, row: int, col: int) -> ComplexMatrix:
    """Standard basis matrix with a single 1 at (row, col), 0-based."""
    data = np.zeros((n, n), dtype=np.complex128)
    data[row, col] = 1.0
    return ComplexMatrix(data)


def require_square(matrix: ComplexMatrix) -> int:
    if not matrix.is_square:
        raise DimensionError(f"square matrix required, got shape {matrix.shape}")
    return matrix.rows


def schur_product(a, b) -> ComplexMatrix:
    """Entrywise product of two equally shaped matrices."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    return ComplexMatrix(ma.data * mb.data)


def schur_inverse(a, tol: Tolerance | None = None) -> ComplexMatrix:
    """Entrywise reciprocal; requires every entry above the absolute floor."""
    m = as_matrix(a)
    tol = tol or DEFAULT_TOL
    mags = np.abs(m.data)
    if np.any(mags <= tol.abs):
        i, j = (int(v) for v in np.unravel_index(int(np.argmin(mags)), m.shape))
        raise ZeroEntryError(
            f"entry ({i + 1},{j + 1}) has modulus {mags[i, j]:.3e}, "
            f"at or below the floor {tol.abs:.3e}",
            position=(i + 1, j + 1),
        )
    return ComplexMatrix(1.0 / m.data)


def eigenvalues(a, tol: Tolerance | None = None) -> np.ndarray:
    """All eigenvalues with algebraic multiplicity, sorted by descending (real, imag).

    Inputs that are Hermitian to tolerance are routed to the symmetric solver,
    which returns exactly real values.
    """
    m = as_matrix(a)
    require_square(m)
    tol = tol or DEFAULT_TOL
    data = m.data
    scale = float(np.abs(data).max())
    try:
        if float(np.abs(data - data.conj().T).max()) <= tol.threshold(scale):
            vals = np.linalg.eigvalsh((data + data.conj().T) / 2.0).astype(np.complex128)
        else:
            vals = np.linalg.eigvals(data)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))[::-1]
    return vals[order]


def _singular_values(data: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.svd(data, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular value iteration failed: {exc}") from exc


def _spectral_norm(data: np.ndarray) -> float:
    """Largest singular value; inf for an operand with a non-finite entry (one
    that overflowed), where the SVD would not converge."""
    if not np.isfinite(data).all():
        return np.inf
    return float(_singular_values(data)[0])


def _rank(s: np.ndarray, size: int, tol: Tolerance) -> int:
    """Count of singular values ``s`` above ``rel * sigma_max * size``, floored by ``abs``."""
    return int(np.count_nonzero(s > max(tol.rel * float(s[0]) * size, tol.abs)))


def numerical_rank(a, tol: Tolerance | None = None) -> int:
    """Count of singular values above ``rel * sigma_max * max(rows, cols)``, floored by ``abs``."""
    m = as_matrix(a)
    return _rank(_singular_values(m.data), max(m.rows, m.cols), tol or DEFAULT_TOL)


def operator_norm(a) -> float:
    """Largest singular value."""
    return _spectral_norm(as_matrix(a).data)


def multiset_distance(left, right) -> float:
    """Largest pairing distance between two equal-size complex multisets.

    Greedy nearest-unused matching after sorting both sides by (real, imag);
    adequate at desk scale, not a minimum-cost assignment.
    """
    key = lambda z: (z.real, z.imag)
    xs = sorted((complex(v) for v in np.asarray(left, dtype=np.complex128).ravel()), key=key)
    ys = sorted((complex(v) for v in np.asarray(right, dtype=np.complex128).ravel()), key=key)
    if len(xs) != len(ys):
        raise DimensionError(f"multisets differ in size: {len(xs)} vs {len(ys)}")
    used = [False] * len(ys)
    worst = 0.0
    for x in xs:
        best_j, best_d = -1, np.inf
        for j, y in enumerate(ys):
            if used[j]:
                continue
            d = abs(x - y)
            if d < best_d:
                best_j, best_d = j, d
        used[best_j] = True
        worst = max(worst, best_d)
    return float(worst)
