"""Completing a multiplicative coefficient matrix from partial data.

Specified entries define ratio constraints f(i)/f(j) = a_ij on a graph over
the indices. A spanning tree fixes f by propagation, every redundant entry is
checked against the propagated values, and the fundamental cycle of any
violated constraint is reported. Working with the ratios directly keeps the
solve branch-free; the additive logarithmic coordinates exist only for
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .core import DEFAULT_TOL, ComplexMatrix, Tolerance, as_matrix
from .errors import DimensionError, PreconditionError, ZeroEntryError

__all__ = [
    "PartialMatrix",
    "Violation",
    "CompletionReport",
    "COMPLETED",
    "INCONSISTENT",
    "UNDERDETERMINED",
    "complete_partial",
    "log_coordinates",
]

COMPLETED = "completed"
INCONSISTENT = "inconsistent"
UNDERDETERMINED = "underdetermined"


@dataclass(frozen=True)
class PartialMatrix:
    """Square complex entries plus a specified/unspecified mask.

    Specified entries must be finite and nonzero; the diagonal may be left
    unspecified (a completion forces it to 1). Values at unspecified
    positions are ignored.
    """

    entries: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=np.complex128, copy=True)
        mask = np.array(self.mask, dtype=bool, copy=True)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.shape[0] < 1:
            raise DimensionError(f"square entries required, got shape {entries.shape}")
        if mask.shape != entries.shape:
            raise DimensionError(
                f"mask shape {mask.shape} does not match entries shape {entries.shape}"
            )
        spec = entries[mask]
        if spec.size and not np.isfinite(spec).all():
            raise ValueError("specified entries must be finite")
        zero = mask & (np.abs(entries) == 0.0)
        if zero.any():
            i, j = np.argwhere(zero)[0]
            raise ZeroEntryError(
                f"specified entry ({i + 1},{j + 1}) is zero",
                position=(int(i) + 1, int(j) + 1),
            )
        entries.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "mask", mask)

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])

    def specified_items(self) -> Iterator[tuple[int, int, complex]]:
        """Yield (i, j, value) for every specified position, 0-based."""
        for i, j in np.argwhere(self.mask):
            yield int(i), int(j), complex(self.entries[i, j])


class Violation(NamedTuple):
    cycle: tuple[int, ...]  # 1-based vertex sequence, closing edge implied
    residual: float


@dataclass
class CompletionReport:
    status: str
    matrix: ComplexMatrix | None
    violations: list[Violation]
    components: list[list[int]]  # 1-based, each sorted, ordered by smallest vertex

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "violations": [
                {"cycle": list(v.cycle), "residual": v.residual} for v in self.violations
            ],
            "components": self.components,
        }


def _dfs_forest(linked: np.ndarray):
    """Depth-first spanning forest of the graph with boolean adjacency matrix
    ``linked``, roots and neighbors taken in ascending order (a chain of
    specified entries stays a chain).

    Returns the components (each sorted, ordered by smallest vertex), the
    parent and depth of every vertex, and the visiting order.
    """
    n = len(linked)
    rows, cols = np.nonzero(linked)  # the neighbors of v are cols[bounds[v]:bounds[v + 1]]
    bounds, cols = np.searchsorted(rows, np.arange(n + 1)).tolist(), cols.tolist()
    parent, depth, order, components = [-1] * n, [0] * n, [], []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        start = len(order)
        stack = [(root, -1)]
        while stack:
            v, p = stack.pop()
            if seen[v]:
                continue
            seen[v] = True
            order.append(v)
            if p >= 0:
                parent[v], depth[v] = p, depth[p] + 1
            stack += [(w, v) for w in reversed(cols[bounds[v]:bounds[v + 1]]) if not seen[w]]
        components.append(sorted(order[start:]))
    return components, parent, depth, order


def _tree_path(parent: list[int], depth: list[int], i: int, j: int) -> list[int]:
    """Vertex path from i to j along the spanning tree, endpoints included."""
    up_i, up_j = [i], [j]
    a, b = i, j
    while depth[a] > depth[b]:
        a = parent[a]
        up_i.append(a)
    while depth[b] > depth[a]:
        b = parent[b]
        up_j.append(b)
    while a != b:
        a, b = parent[a], parent[b]
        up_i.append(a)
        up_j.append(b)
    # up_i ends at the meeting vertex, shared with up_j
    return up_i + up_j[-2::-1]


def complete_partial(
    partial: PartialMatrix,
    tol: Tolerance | None = None,
    star_preserving: bool = False,
) -> CompletionReport:
    """Fill in a multiplicative matrix from its specified entries.

    Connected and consistent data completes to the unique matrix
    a_ij = f(i)/f(j) agreeing with every specified entry; inconsistencies are
    reported with the fundamental cycle of the violated constraint; a
    disconnected constraint graph is underdetermined and the components are
    returned so the caller can supply more data. In star-preserving mode the
    specified entries must be unimodular and each one also implies its
    reciprocal at the transposed position.
    """
    tol = tol or DEFAULT_TOL
    unit_thr = tol.threshold(1.0)
    entries, mask = partial.entries, partial.mask
    off = mask & ~np.eye(partial.n, dtype=bool)
    with np.errstate(all="ignore"):  # a modulus past the double range reads inf
        if star_preserving:
            bad = np.argwhere(off & (np.abs(_modulus(entries) - 1.0) > unit_thr))
            if bad.size:
                i, j = bad[0]
                raise PreconditionError(
                    f"star-preserving completion requires unimodular data; "
                    f"entry ({i + 1},{j + 1}) has modulus {_modulus(entries[i, j]):.12g}"
                )
        diag_dev = _modulus(np.diagonal(entries) - 1.0)
    diag_violations = [
        Violation((i + 1,), float(diag_dev[i]))
        for i in np.flatnonzero(np.diagonal(mask) & (diag_dev > unit_thr)).tolist()
    ]

    # A specified diagonal entry becomes a self-loop, which the walk skips.
    components, parent, depth, order = _dfs_forest(mask | mask.T)

    if diag_violations:
        return CompletionReport(INCONSISTENT, None, diag_violations, _one_based(components))

    if len(components) > 1:
        return CompletionReport(UNDERDETERMINED, None, [], _one_based(components))

    # ratios[i, j] = a_ij = f(i)/f(j) where ``given``. In star mode a_ji also
    # implies 1/a_ji at (i, j); a specified entry wins over an implied one.
    ratios, given = entries.copy(), off
    if star_preserving:
        for i, j in np.argwhere(off.T & ~off).tolist():
            ratios[i, j] = 1.0 / complex(entries[j, i])
        given = off | off.T
    f = np.ones(partial.n, dtype=np.complex128)
    with np.errstate(all="ignore"):
        for v in order[1:]:  # parents come first in visiting order
            p = parent[v]
            f[v] = f[p] / ratios[p, v] if given[p, v] else f[p] * ratios[v, p]
        completed = np.outer(f, 1.0 / f)
        residual = _modulus(ratios - np.divide.outer(f, f))
        # a modulus past the double range counts as the largest double, so the
        # threshold stays finite and an entry that far off fails its check
        scale = np.minimum(_modulus(ratios), np.finfo(np.float64).max)
        violated = given & (residual > np.maximum(tol.rel * scale, tol.abs))
    finite = np.isfinite(completed)  # an entry that underflows to 0 has an infinite transpose
    if not finite.all():
        i, j = (int(v) + 1 for v in np.argwhere(~finite)[0])
        raise PreconditionError(f"completed entry ({i},{j}) cannot be represented as a double")
    if violated.any():
        violations = [
            Violation(tuple(v + 1 for v in _tree_path(parent, depth, i, j)), float(residual[i, j]))
            for i, j in np.argwhere(violated).tolist()
        ]
        return CompletionReport(INCONSISTENT, None, violations, _one_based(components))
    np.fill_diagonal(completed, 1.0)  # forced exactly by the unit-diagonal law
    return CompletionReport(COMPLETED, ComplexMatrix(completed), [], _one_based(components))


def _modulus(z) -> np.ndarray:
    """|z| entrywise, through hypot.

    hypot rounds as Python's abs(complex) does on every SIMD level; np.abs on
    a complex array may take a SIMD path that differs in the last bit, which
    would move a residual that sits at the tolerance across it.
    """
    return np.hypot(z.real, z.imag)


def _one_based(components: list[list[int]]) -> list[list[int]]:
    return [[v + 1 for v in comp] for comp in components]


def log_coordinates(a) -> np.ndarray:
    """Transform entries by x -> log(x) / (2 pi i), principal branch.

    The real part (the argument over 2 pi) is reduced to [0, 1); the
    imaginary part carries -ln|x| / (2 pi). Multiplicative matrices satisfy
    b_ii = 0 and b_ij = b_ik + b_kj modulo 1 in the real part. Diagnostic
    only; the completion itself never takes logarithms.
    """
    m = as_matrix(a)
    data = m.data
    mags = np.abs(data)
    if (mags == 0.0).any():
        i, j = np.argwhere(mags == 0.0)[0]
        raise ZeroEntryError(
            f"entry ({i + 1},{j + 1}) is zero, logarithmic coordinates undefined",
            position=(int(i) + 1, int(j) + 1),
        )
    real_part = np.mod(np.angle(data) / (2.0 * np.pi), 1.0)
    imag_part = -np.log(mags) / (2.0 * np.pi)
    return real_part + 1j * imag_part
