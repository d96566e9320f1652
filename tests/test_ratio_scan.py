"""The ratio scan pruned by the pivot split returns what the full O(n^3)
scan returns, bit for bit: the same residual and the same witness, the first
worst triple in (k // block, i, j, k) order."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlab import Tolerance, ZeroEntryError, build_from_scaling, multiplicative

KINDS = ("random", "one_entry", "pivot_row", "mixed", "noise", "diagonal", "integer", "signs",
         "repeated", "overflow")


def make_input(kind: str, n: int, seed: int) -> np.ndarray:
    """An n-by-n input of the named kind.

    ``random`` has Gaussian entries; ``noise`` perturbs every entry of a
    unimodular multiplicative matrix; ``one_entry``, ``mixed`` (|f| in
    e^+-3) and ``diagonal`` perturb one entry of one, and ``pivot_row`` one
    entry in the row of its ``_pivot`` column. ``integer``, ``signs``
    and ``repeated`` are tie-heavy: integer entries on the all-ones matrix,
    a +-1 rank-one matrix with a symmetric pair of signs flipped, and one
    factor applied to several entries. ``overflow`` is the all-ones matrix
    with a_ik = a_kj near 2^300, whose deviation at (i, j, k) squares to inf.
    """
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "overflow":
        a = np.ones((n, n), dtype=complex)
        i, j, k = rng.integers(n, size=3)
        a[i, k] = a[k, j] = 2.0 ** rng.uniform(250, 300)
        return a
    if kind == "integer":
        a = np.ones((n, n), dtype=complex)
        for _ in range(rng.integers(1, 4)):
            a[rng.integers(n), rng.integers(n)] = rng.choice([-3, -2, -1, 2, 3])
        return a
    if kind == "signs":
        s = rng.choice([-1.0, 1.0], n)
        a = np.outer(s, s).astype(complex)
        i, j = rng.integers(n, size=2)
        a[i, j] *= -1
        a[j, i] *= -1
        return a
    log_mod = rng.uniform(-3, 3, n) if kind == "mixed" else np.zeros(n)
    a = build_from_scaling(np.exp(log_mod + 2j * np.pi * rng.random(n))).data.copy()
    np.fill_diagonal(a, 1.0)
    eps = 10.0 ** rng.uniform(-9, -2)
    if kind == "noise":
        return a * (1 + eps * rng.standard_normal((n, n)))
    if kind == "diagonal":
        k = rng.integers(n)
        a[k, k] += eps
        return a
    if kind == "pivot_row":
        p = multiplicative._pivot(a, Tolerance())
        a[p, (p + 1 + rng.integers(n - 1)) % n] *= 1 + eps
        return a
    for _ in range(rng.integers(2, 5) if kind == "repeated" else 1):
        i, j = rng.integers(n, size=2)
        a[i, j] *= 1 + (0.5 if kind == "repeated" else eps * np.exp(2j * np.pi * rng.random()))
    return a


def prune(a: np.ndarray) -> tuple:
    """The pruning arguments ``_ratio_test`` passes to ``_cocycle_parts``:
    ``_scan_bound``'s (|E|, m, K) from the pivot split's E, or () without one."""
    scale = float(np.abs(a).max())
    diag = float(np.abs(np.diagonal(a) - 1.0).max())
    try:
        e = multiplicative._split(a, multiplicative._pivot(a, Tolerance()))[1]
    except ZeroEntryError:
        e = None
    return multiplicative._scan_bound(e, scale, diag)[1]


def bits(result) -> tuple[bytes, tuple]:
    residual, witness = result
    return struct.pack("<d", residual), witness


@np.errstate(over="ignore")  # the overflow kind squares to inf, as the callers allow
def assert_pruning_is_exact(kind: str, n: int, seed: int):
    a = make_input(kind, n, seed)
    args = prune(a)
    full = bits(multiplicative._cocycle_parts(a))
    assert bits(multiplicative._cocycle_parts(a, *args)) == full
    if args:  # also below the size where _cocycle_parts prunes
        block = min(n, max(1, multiplicative._SLAB // (n * n)))
        pruned = multiplicative._pruned_scan(a, *args, block)
        assert pruned is None or bits(pruned) == full


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(KINDS), st.integers(2, 128), st.integers(0, 2**32 - 1))
def test_pruned_scan_is_the_one_block_scan(kind, n, seed):
    assert_pruning_is_exact(kind, n, seed)


@settings(max_examples=16, deadline=None, derandomize=True)
@given(st.sampled_from(KINDS), st.integers(129, 200), st.integers(0, 2**32 - 1))
def test_pruned_scan_is_the_multi_block_scan(kind, n, seed):
    # past n = 128 the full scan runs in several k-blocks, and the witness
    # is the first worst triple of the first block that holds one
    assert_pruning_is_exact(kind, n, seed)


@pytest.mark.parametrize(
    "di, dj",  # offsets of the perturbed entry from (p, p)
    [(3, 5), (5, 0), (5, 5)],
    ids=["off_pivot", "pivot_column", "diagonal"],
)
def test_one_entry_perturbation_never_builds_the_slab(di, dj):
    # off the pivot row: a perturbed entry in row p spreads over a column
    # of E, so every row of E reaches max|E| and the full scan runs
    n = 256
    rng = np.random.default_rng(7)
    a = build_from_scaling(np.exp(2j * np.pi * rng.random(n))).data.copy()
    np.fill_diagonal(a, 1.0)
    p = multiplicative._pivot(a, Tolerance())
    a[(p + di) % n, (p + dj) % n] *= 1 + 1e-4
    args = prune(a)
    block = multiplicative._SLAB // (n * n)
    slab = n * n * block * 16  # the full scan's complex slab alone
    tracemalloc.start()
    try:
        pruned = multiplicative._cocycle_parts(a, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n * n * 8 < peak < slab  # numpy's buffers are traced, and none is the slab
    assert bits(pruned) == bits(multiplicative._cocycle_parts(a))


def test_ties_across_blocks_follow_the_full_scan_order():
    # all ones but a_{100,120} = a_{120,100} = -1, at n = 140 (k-blocks of
    # 106): deviations of 2 tie in both blocks. The witness is the first
    # worst triple of the first block, (1, 120, 100), not the least (i, j, k)
    # overall, (1, 100, 120), whose k lies in the second block.
    n = 140
    a = np.ones((n, n), dtype=complex)
    a[99, 119] = a[119, 99] = -1.0
    args = prune(a)
    assert multiplicative._pruned_scan(a, *args, 106) == (2.0, (1, 120, 100))
    assert multiplicative._cocycle_parts(a, *args) == multiplicative._cocycle_parts(a)


@pytest.mark.parametrize("kind", ["noise", "random", "pivot_row"])
def test_spread_residual_gives_up_before_the_pair_bound(kind):
    # every row of E reaches near max|E|, so most pairs stay: the sorted
    # row maxima tell so before the n-by-n bound (8 n^2 bytes) is built
    n = 256
    a = make_input(kind, n, 0)
    args = prune(a)
    tracemalloc.start()
    try:
        assert multiplicative._pruned_scan(a, *args, 32) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n
