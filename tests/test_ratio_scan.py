"""The ratio test rejects through the pivot slice.

E_ij = a_ij - a_ip a_pj is the k = p slice of the O(n^3) ratio scan. Where
its largest entry exceeds the threshold by more than its rounding, ``cocycle``
fails in O(n^2) with the triple (i, j, p) as its witness and the scan's own
value there as its residual; elsewhere the scan decides. The verdict is the
scan's either way, and a slice residual never exceeds the scan's."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlab import Tolerance, build_from_scaling, check_cocycle, multiplicative

TOLERANCES = (Tolerance(), Tolerance(rel=1e-15), Tolerance(rel=1e-6, abs=1e-9))

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


def scan_value(a: np.ndarray, i: int, j: int, k: int) -> float:
    """The full scan's value at the 0-based triple (i, j, k), from the slab
    that holds k, formed as ``_cocycle_parts`` forms it."""
    n = a.shape[0]
    block = min(n, max(1, multiplicative._SLAB // (n * n)))
    k0 = k // block * block
    k1 = min(k0 + block, n)
    dev = np.multiply(a[:, None, k0:k1], a.T[None, :, k0:k1])
    np.subtract(a[:, :, None], dev, out=dev)
    mag2 = np.square(dev.real)
    mag2 += np.square(dev.imag)
    return float(np.sqrt(mag2[i, j, k - k0]))


@np.errstate(over="ignore", invalid="ignore")  # the overflow kind squares to inf, as the callers allow
def ratio_test(a: np.ndarray, tol: Tolerance) -> tuple:
    """``_ratio_test``'s cocycle condition and split, whether it ran the
    scan, and the 0-based slice triple (i, j, p) it would reject through."""
    scale = float(np.abs(a).max())
    with mock.patch.object(multiplicative, "_cocycle_parts", wraps=multiplicative._cocycle_parts) as scan:
        cocycle, unit_diagonal, witness, split = multiplicative._ratio_test(a, scale, tol)
    at = None
    if split is not None:
        e = multiplicative._split(a, split.p)[1]
        at = multiplicative._scan_bound(e, scale, 0.0)[3]
    triple = at and (*at, split.p)
    return cocycle, unit_diagonal, witness, scan.called, triple


@np.errstate(over="ignore", invalid="ignore")
def assert_slice_is_the_scan(kind: str, n: int, seed: int, tol: Tolerance):
    a = make_input(kind, n, seed)
    cocycle, unit_diagonal, witness, scanned, triple = ratio_test(a, tol)
    full, full_witness = multiplicative._cocycle_parts(a)
    scale = float(np.abs(a).max())
    assert cocycle.passed == (full <= tol.threshold(scale * scale))
    if cocycle.passed:
        return
    ours = full_witness if scanned else tuple(x + 1 for x in triple)
    if scanned:
        assert cocycle.residual == full or math.isnan(full)
    else:  # the scan's own value at the witness triple, never above its worst
        assert cocycle.residual == scan_value(a, *triple)
        assert cocycle.residual <= full
    if unit_diagonal.passed or cocycle.residual > unit_diagonal.residual:
        assert witness == ours


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(KINDS), st.integers(2, 128), st.integers(0, 2**32 - 1), st.sampled_from(TOLERANCES))
def test_ratio_test_is_the_one_block_scan(kind, n, seed, tol):
    assert_slice_is_the_scan(kind, n, seed, tol)


@settings(max_examples=16, deadline=None, derandomize=True)
@given(st.sampled_from(KINDS), st.integers(129, 200), st.integers(0, 2**32 - 1), st.sampled_from(TOLERANCES))
def test_ratio_test_is_the_multi_block_scan(kind, n, seed, tol):
    # past n = 128 the full scan runs in several k-blocks, and its value at
    # the slice's triple comes from the block that holds p
    assert_slice_is_the_scan(kind, n, seed, tol)


def exact(z) -> tuple[Fraction, Fraction]:
    return Fraction(z.real), Fraction(z.imag)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_slice_witness_violates_the_identity_exactly(kind, n):
    # in exact rational arithmetic on the input's doubles, the witness
    # triple's violation |a_ij - a_ip a_pj| exceeds the threshold
    rejected = 0
    for seed in range(12):
        a = make_input(kind, n, seed)
        for tol in TOLERANCES:
            cocycle, _, _, scanned, triple = ratio_test(a, tol)
            if cocycle.passed or scanned:
                continue
            rejected += 1
            i, j, p = triple
            (xr, xi), (yr, yi), (zr, zi) = exact(a[i, j]), exact(a[i, p]), exact(a[p, j])
            re, im = xr - (yr * zr - yi * zi), xi - (yr * zi + yi * zr)
            threshold = Fraction(tol.threshold(float(np.abs(a).max()) ** 2))
            assert re * re + im * im > threshold * threshold
    assert rejected or (kind, n) == ("signs", 2)  # two flipped signs at n = 2 stay multiplicative


OFFSETS = {"off_pivot": (3, 5), "pivot_row": (0, 5), "pivot_column": (5, 0), "diagonal": (5, 5)}


def perturbed(kind: str, n: int) -> np.ndarray:
    """A clear rejection: a random matrix, or a unimodular a_ij = f(i)/f(j)
    with every entry perturbed by 1e-6 relative (``noise``) or one entry by
    1e-4, at ``OFFSETS[kind]`` from (p, p) for the pivot column p."""
    if kind == "random":
        return make_input("random", n, 0)
    rng = np.random.default_rng(n)
    a = build_from_scaling(np.exp(2j * np.pi * rng.random(n))).data.copy()
    np.fill_diagonal(a, 1.0)
    if kind == "noise":
        return a * (1 + 1e-6 * rng.standard_normal((n, n)))
    p = multiplicative._pivot(a, Tolerance())
    di, dj = OFFSETS[kind]
    a[(p + di) % n, (p + dj) % n] *= 1 + 1e-4
    return a


@pytest.mark.parametrize("kind", ["random", "noise", "off_pivot", "pivot_row", "pivot_column"])
def test_clear_rejections_run_no_scan(kind):
    a = perturbed(kind, 256)
    cocycle, _, witness, scanned, triple = ratio_test(a, Tolerance())
    assert not cocycle.passed and not scanned
    assert witness[2] is None or witness == tuple(x + 1 for x in triple)
    assert cocycle.residual == scan_value(a, *triple)


@pytest.mark.parametrize("kind", ["off_pivot", "pivot_column", "diagonal"])
def test_one_entry_perturbation_never_builds_the_slab(kind):
    n = 256
    a = perturbed(kind, n)
    block = multiplicative._SLAB // (n * n)
    slab = n * n * block * 16  # the full scan's complex slab alone
    tracemalloc.start()
    try:
        result = check_cocycle(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n * n * 8 < peak < slab  # numpy's buffers are traced, and none is the slab
    assert not result.passed
    assert result.residual <= multiplicative._cocycle_parts(a)[0]


@pytest.mark.parametrize("factor", [0.7, 0.4], ids=["fails", "passes"])
def test_band_input_takes_the_full_scan(factor):
    # a_ik and a_kj off the pivot's lines, each moved by eps = factor times
    # the threshold: the slice's largest entry is about eps, below the
    # threshold, while the pivot bound is about 4 eps, above half of it. The
    # worst triple (i, j, k) deviates by about 2 eps, and the full scan
    # decides: it fails at 0.7 and passes at 0.4, with its exact value.
    n = 64
    rng = np.random.default_rng(1)
    a = build_from_scaling(np.exp(2j * np.pi * rng.random(n))).data.copy()
    np.fill_diagonal(a, 1.0)
    tol = Tolerance()
    p = multiplicative._pivot(a, tol)
    i, k, j = ((p + d) % n for d in (3, 5, 7))
    eps = factor * tol.threshold(1.0)
    a[i, k] *= 1 + eps
    a[k, j] *= 1 + eps
    cocycle, _, witness, scanned, _ = ratio_test(a, tol)
    full, full_witness = multiplicative._cocycle_parts(a)
    assert scanned
    assert cocycle.residual == full
    assert cocycle.passed == (factor < 0.5)
    assert witness == (None if cocycle.passed else full_witness)
    if not cocycle.passed:
        assert full_witness == (i + 1, j + 1, k + 1)


@pytest.mark.parametrize("n", [3, 8, 64])
def test_slice_within_its_rounding_of_the_threshold_takes_the_full_scan(n):
    # one entry off the pivot's lines, moved in its real part until the
    # slice's value there first exceeds the threshold: by an ulp or so, less
    # than the slice's rounding allowance, so it proves nothing and the full
    # scan decides
    rng = np.random.default_rng(n)
    a = build_from_scaling(np.exp(2j * np.pi * rng.random(n))).data.copy()
    np.fill_diagonal(a, 1.0)
    tol = Tolerance()
    threshold = tol.threshold(1.0)
    p = multiplicative._pivot(a, tol)
    q, r = (p + 1) % n, (p + 2) % n
    product = np.outer(a[:, p], a[p])[q, r]  # the pivot product as the split forms it
    for ulps in range(64):
        a[q, r] = complex(product.real + threshold + ulps * 2.0**-52, product.imag)
        if scan_value(a, q, r, p) > threshold:
            break
    cocycle, _, _, scanned, triple = ratio_test(a, tol)
    full = multiplicative._cocycle_parts(a)[0]
    assert triple == (q, r, p) and scan_value(a, q, r, p) > threshold
    assert scanned
    assert cocycle.residual == full
    assert cocycle.passed == (full <= tol.threshold(float(np.abs(a).max()) ** 2))


def test_ties_across_blocks_follow_the_full_scan_order():
    # all ones but a_{100,120} = a_{120,100} = -1, at n = 140 (k-blocks of
    # 106): deviations of 2 tie in both blocks. The witness is the first
    # worst triple of the first block, (1, 120, 100), not the least (i, j, k)
    # overall, (1, 100, 120), whose k lies in the second block.
    n = 140
    a = np.ones((n, n), dtype=complex)
    a[99, 119] = a[119, 99] = -1.0
    assert multiplicative._cocycle_parts(a) == (2.0, (1, 120, 100))
