"""The abelian group of multiplicative coefficient matrices under the Schur product.

Includes the Toeplitz one-parameter subgroup, the torus parametrization of the
positive complex members, and exhaustive enumeration of the real positive
members (all entries in {+1, -1}, fixed binary-counter order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, ComplexMatrix, Tolerance, as_matrix
from .errors import DimensionError, PreconditionError, ResourceLimitError

__all__ = [
    "SignMatrix",
    "toeplitz_member",
    "group_product",
    "torus_param",
    "enumerate_real_positive",
    "ENUMERATION_LIMIT",
]

# The list holds 2^(n-1) n x n complex128 matrices, and either output format
# holds one line at a time. Within a 1 GB budget for peak RSS, n = 18 is
# served (about 0.71 GB in both formats); n = 19 holds 1.5 GB of entries alone.
ENUMERATION_LIMIT = 18


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
    from .multiplicative import _passing_facts  # enumerate does not need it

    tol = tol or DEFAULT_TOL
    ma, mb = as_matrix(a), as_matrix(b)
    for name, m in (("left", ma), ("right", mb)):
        _passing_facts(m, tol, f"{name} factor fails the ratio identity (residual {{residual:.3e}})")
    if ma.shape != mb.shape:
        raise DimensionError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    with np.errstate(all="ignore"):
        product = ma.data * mb.data
    overflow = np.argwhere(~np.isfinite(product))
    if overflow.size:
        i, j = overflow[0] + 1
        raise PreconditionError(f"product entry ({i},{j}) cannot be represented as a double")
    return ComplexMatrix(product)


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
    """All 2^(n-1) real positive members, in binary-counter order (all +1 first).

    The list is built in memory; n above ``ENUMERATION_LIMIT`` raises
    ResourceLimitError. Members come 1024 at a time from one read-only
    (k, n, n) block, checked once; each member is a C-contiguous view of its
    block, not a copy.
    """
    if n < 1:
        raise DimensionError("n must be positive")
    if n > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"n={n} would enumerate 2^{n - 1} matrices; limit is n={ENUMERATION_LIMIT}"
        )
    # Row k of ``signs`` is SignMatrix.from_index(n, k)'s s: s_1 = 1, and bit j
    # of k, counted from the top, negates s_(j+2). Built a block of indices at a
    # time, so the peak stays at the list's own size; real arithmetic keeps
    # every imaginary part +0.0.
    count, block = 1 << (n - 1), 1024
    shifts = np.arange(n - 2, -1, -1)
    members = []
    for start in range(0, count, block):
        bits = (np.arange(start, min(start + block, count))[:, None] >> shifts) & 1
        signs = np.hstack([np.ones((len(bits), 1)), 1.0 - 2 * bits])
        outer = (signs[:, :, None] * signs[:, None, :]).astype(np.complex128)  # outer(s, s)
        members.extend(ComplexMatrix._block(outer))
    return members
