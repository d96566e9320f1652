"""The abelian group of multiplicative coefficient matrices under the Schur product.

Includes the Toeplitz one-parameter subgroup, the torus parametrization of the
positive complex members, and exhaustive enumeration of the real positive
members (all entries in {+1, -1}, fixed binary-counter order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, ComplexMatrix, Tolerance, as_matrix, schur_product
from .errors import DimensionError, PreconditionError, ResourceLimitError
from .multiplicative import _require_multiplicative

__all__ = [
    "SignMatrix",
    "toeplitz_member",
    "group_product",
    "torus_param",
    "enumerate_real_positive",
    "ENUMERATION_LIMIT",
]

ENUMERATION_LIMIT = 24


@dataclass(frozen=True)
class SignMatrix:
    """Sign pattern of a real positive member, determined by its first row.

    The induced matrix is a_ij = s_i * s_j with s_1 = 1 and the remaining
    signs given by ``first_row_signs``: rank one, symmetric, unit diagonal,
    entries in {+1, -1}.
    """

    n: int
    first_row_signs: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise DimensionError("n must be positive")
        if len(self.first_row_signs) != self.n - 1:
            raise DimensionError(
                f"expected {self.n - 1} signs, got {len(self.first_row_signs)}"
            )
        if any(s not in (-1, 1) for s in self.first_row_signs):
            raise ValueError("signs must be +1 or -1")

    @classmethod
    def from_index(cls, n: int, index: int) -> "SignMatrix":
        """Big-endian binary counter: bit 0 means +1, the leftmost sign is the
        most significant bit, so index 0 is the all-ones pattern."""
        width = n - 1
        if not 0 <= index < (1 << width if width else 1):
            raise ValueError(f"index {index} out of range for n={n}")
        signs = tuple(
            -1 if (index >> (width - 1 - k)) & 1 else 1 for k in range(width)
        )
        return cls(n, signs)

    @property
    def index(self) -> int:
        width = self.n - 1
        out = 0
        for k, s in enumerate(self.first_row_signs):
            if s == -1:
                out |= 1 << (width - 1 - k)
        return out

    def to_matrix(self) -> ComplexMatrix:
        # real arithmetic first: complex sign products would leave -0.0
        # imaginary parts behind and break canonical serialization
        s = np.array((1,) + self.first_row_signs, dtype=np.float64)
        return ComplexMatrix(np.outer(s, s).astype(np.complex128))


def toeplitz_member(lam: complex, n: int) -> ComplexMatrix:
    """The Toeplitz member a_ij = lam^(j-i); lam must be nonzero."""
    from .truncation import corner, toeplitz_generator  # enumerate needs neither

    gen = toeplitz_generator(lam)
    if n < 1:
        raise DimensionError("n must be positive")
    return corner(gen, n)


def group_product(a, b, tol: Tolerance | None = None) -> ComplexMatrix:
    """Schur product of two multiplicative members; closed by construction,
    but refused with PreconditionError when an entry overflows a double."""
    tol = tol or DEFAULT_TOL
    ma, mb = as_matrix(a), as_matrix(b)
    for name, m in (("left", ma), ("right", mb)):
        _require_multiplicative(
            m, tol, f"{name} factor fails the ratio identity (residual {{residual:.3e}})"
        )
    if ma.shape == mb.shape:  # else schur_product names the mismatch
        with np.errstate(all="ignore"):
            overflow = np.argwhere(~np.isfinite(ma.data * mb.data))
        if overflow.size:
            i, j = overflow[0] + 1
            raise PreconditionError(f"product entry ({i},{j}) cannot be represented as a double")
    return schur_product(ma, mb)


def torus_param(z, tol: Tolerance | None = None) -> ComplexMatrix:
    """The unique positive member with first row (1, z_1, ..., z_{n-1}).

    Entries must be unimodular; builds a_ij = conj(r_i) r_j with r = (1, z),
    a rank-one correlation matrix.
    """
    tol = tol or DEFAULT_TOL
    zs = np.asarray(z, dtype=np.complex128).ravel()
    dev = np.abs(np.abs(zs) - 1.0)
    if zs.size and float(dev.max()) > tol.threshold(1.0):
        k = int(np.argmax(dev))
        raise PreconditionError(
            f"torus coordinate {k + 1} has modulus {abs(zs[k]):.12g}, not unimodular"
        )
    r = np.concatenate([np.ones(1, dtype=np.complex128), zs])
    return ComplexMatrix(np.outer(r.conj(), r))


def enumerate_real_positive(n: int) -> list[ComplexMatrix]:
    """All 2^(n-1) real positive members, in binary-counter order (all +1 first)."""
    if n < 1:
        raise DimensionError("n must be positive")
    if n > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"n={n} would enumerate 2^{n - 1} matrices; limit is n={ENUMERATION_LIMIT}"
        )
    count = 1 << (n - 1)
    return [SignMatrix.from_index(n, idx).to_matrix() for idx in range(count)]
