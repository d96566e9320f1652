"""The O(n^2) lower bounds that fail a part before any support form or LAPACK.

Each bound is a certified lower bound on the value LAPACK computes for its
part, under LAPACK's error model (``multiplicative._lapack``): a 2-by-2
minor for ``rank_one``, tr(A^2) against n^2 for the spectrum, a skew entry
for the Hermitian and PSD tests, and two rows of A A* - A* A for normality.
These tests pin that every bound lies at or below LAPACK's value and that a
bound that decides gives LAPACK's verdict, check the minor and trace
deviations against exact rational arithmetic, hold the spectrum and
commutator floors against the ends of LAPACK's error model, and spy that
rejected perturbed inputs run no SVD or eigensolve in either battery.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlab import (
    ComplexMatrix,
    Tolerance,
    certify_multiplicative,
    certify_star_multiplicative,
    multiplicative,
    star,
)

TOLERANCES = (Tolerance(), Tolerance(rel=1e-15), Tolerance(rel=1e-6, abs=1e-9))
KINDS = ("random", "noise", "off_pivot", "pivot_row", "pivot_column", "mixed", "conjugate", "ties")


def make_input(kind: str, n: int, seed: int, log_eps: float) -> np.ndarray:
    """A unit-diagonal input of ``kind``: a complex Gaussian (``random``); a
    unimodular a_ij = f(i)/f(j) with relative noise in every entry
    (``noise``) or one entry moved off the pivot's lines, in its row or in
    its column; one of mixed modulus with one entry moved; an exactly
    Hermitian f(i) conj(f(j)) with one entry, and not its mirror, moved
    (``conjugate``: ||A - A*||_2 is that entry's skew, so the skew bound is
    tight); or entries drawn from {1, -1, i, -i, 2} (``ties``), whose moduli
    and products tie."""
    rng = np.random.default_rng(seed)
    eps = 10.0**log_eps
    if kind == "random":
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    elif kind == "ties":
        a = rng.choice(np.array([1, -1, 1j, -1j, 2]), size=(n, n))
    else:
        log_mod = rng.uniform(-1, 1, n) if kind == "mixed" else np.zeros(n)
        f = np.exp(log_mod + 2j * np.pi * rng.random(n))
        a = np.outer(f, f.conj() if kind == "conjugate" else 1.0 / f)
        p = multiplicative._pivot(a, Tolerance())
        others = [k for k in range(n) if k != p] or [p]
        i, j = rng.choice(others, size=2, replace=len(others) < 2)
        if kind == "noise":
            a = a * (1 + eps * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))))
        else:
            a[{"pivot_row": p}.get(kind, i), {"pivot_column": p}.get(kind, j)] *= 1 + eps
    a = np.array(a, dtype=complex)
    np.fill_diagonal(a, 1.0)
    return a


def decides(bound, threshold: float) -> bool:
    """Whether a bound reader's output fails its part, as ``multiplicative._rung`` reads it."""
    if bound is None:
        return False
    passed, value = multiplicative._judged(bound, threshold)
    return not passed and np.isfinite(value)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(KINDS),
    st.integers(2, 32),
    st.integers(0, 2**32 - 1),
    st.floats(-14, -1),
    st.sampled_from(TOLERANCES),
)
def test_bounds_lie_below_lapack_and_give_its_verdicts(kind, n, seed, log_eps, tol):
    a = make_input(kind, n, seed, log_eps)
    facts = multiplicative._Facts(ComplexMatrix(a), tol)
    one, commutator = tol.threshold(1.0), max(star.COMMUTATOR_REL, tol.rel)
    pairs = [  # (bound, O(n^3) value or verdict, threshold)
        (facts.rank_one_bound, facts.lapack_rank_one(), one),
        (facts.spectrum_bound, facts.lapack_spectrum(), tol.threshold(float(n))),
        (facts.spectrum_bound / n, facts.lapack_spectrum(per=n), one),
        (facts.hermitian_bound(), star._hermitian_lapack(facts), one),
        (facts.psd_bound(tol), star._psd_lapack(facts), one),
        (facts.normal_bound(), star._normal_lapack(facts), commutator),
    ]
    if np.abs(a).min() > tol.abs:
        inv = 1.0 / a
        pairs.append((facts.forms_of(inv).psd_bound(tol), star._psd_residual(inv, tol), one))
    lo, hi = facts.skew_bounds  # the ends themselves, before any ratio slackens them
    assert lo <= star._skew_norm(a) and hi >= facts.singular_values[0]
    for bound, lapack, threshold in pairs:
        if bound is None:
            continue
        got = bound if isinstance(bound, float) else bound[1]
        want = lapack if isinstance(lapack, float) else lapack[1]
        assert got <= want, (bound, lapack)
        if decides(bound, threshold):
            assert not multiplicative._judged(lapack, threshold)[0], (bound, lapack)


def exact(z) -> tuple[Fraction, Fraction]:
    return Fraction(float(z.real)), Fraction(float(z.imag))


def times(x, y) -> tuple[Fraction, Fraction]:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(KINDS),
    st.integers(2, 8),
    st.integers(0, 2**32 - 1),
    st.floats(-14, -1),
)
def test_minor_and_trace_floors_hold_in_exact_arithmetic(kind, n, seed, log_eps):
    # the rounding allowances of the minor's sigma_2 and of |tr(A^2) - n^2|
    # against their exact rational values for the stored entries
    a = make_input(kind, n, seed, log_eps)
    rng = np.random.default_rng(seed)
    i, j, p = rng.integers(n, size=3)
    cells = [complex(a[r, k]) for r, k in ((i, j), (i, p), (p, j), (p, p))]
    floor = multiplicative._minor_floor(*cells)
    if floor > 0:
        ad, bc = times(exact(cells[0]), exact(cells[3])), times(exact(cells[1]), exact(cells[2]))
        det2 = (ad[0] - bc[0]) ** 2 + (ad[1] - bc[1]) ** 2
        fro2 = sum(re * re + im * im for re, im in map(exact, cells))
        assert Fraction(floor) ** 2 * fro2 <= det2
    gap = multiplicative._trace_gap(a, multiplicative._fro(a))
    if gap > 0:
        terms = [times(exact(a[r, k]), exact(a[k, r])) for r in range(n) for k in range(n)]
        re = sum(t[0] for t in terms) - n * n
        im = sum(t[1] for t in terms)
        assert Fraction(gap) ** 2 <= re * re + im * im


def unit_rank_one(n: int, seed: int) -> np.ndarray:
    """u_i / u_j with u_i in {1, -1, i, -i}: every entry exact, and the
    spectrum exactly {n, 0^(n-1)}."""
    u = np.random.default_rng(seed).choice(np.array([1, -1, 1j, -1j]), size=n)
    return np.outer(u, 1 / u)


@pytest.mark.parametrize("n", [2, 3, 8, 16, 32])
def test_spectrum_floor_allows_for_lapack_within_its_model(n):
    # x = s y, y rank one with spectrum {n, 0^(n-1)}, and y - x within
    # LAPACK's allowance of x: LAPACK may compute y's spectrum for x, so the
    # floor must show nothing, although |tr(x^2) - n^2| clears its own rounding
    y = unit_rank_one(n, seed=n)
    s = 1 - 0.9 * multiplicative._lapack(n, float(n)) / n
    x = s * y
    fro = multiplicative._fro(x)
    assert (1 - Fraction(s)) * n <= Fraction(multiplicative._lapack(n, fro))  # ||y - x||_F, exactly
    assert multiplicative._trace_gap(x, fro) > 0
    assert multiplicative._spectrum_floor(x, fro) == 0.0


def up(q: Fraction) -> float:
    """The least float at or above the rational q."""
    f = float(q)
    return f if Fraction(f) >= q else math.nextafter(f, math.inf)


@pytest.mark.parametrize("n", [2, 3, 8, 16, 64])
@pytest.mark.parametrize("k_form, k_svd", [(0, 0), (1, 0.5), (2, 2), (1e3, 1e3)])
def test_commutator_floor_holds_at_the_ends_of_its_model(n, k_form, k_svd):
    # ||C||_2 = c, C = x x* - x* x, from zero up, in units of the allowances
    # LAPACK's value takes for forming C and for its SVD, and the largest row
    # norm the bound's own rounding may compute from a row of C of norm c: the
    # floor lies at or below the least value LAPACK may report, exactly
    eps = Fraction(multiplicative._EPS)
    fro = float(n)  # a unimodular x
    f2 = Fraction(fro) ** 2
    form, svd = 2 * (n + 4) * eps * f2, Fraction(multiplicative._lapack(n, 2 * fro * fro))
    c = Fraction(k_form) * form + Fraction(k_svd) * svd
    top = up((c + form) * (1 + n * eps))  # the bound's own row is formed as LAPACK forms C
    norm = Fraction(fro) + Fraction(multiplicative._lapack(n, fro))  # the most LAPACK reports for ||x||_2
    least = max(c - form - svd, Fraction(0)) / max(norm * norm, Fraction(1))
    assert Fraction(multiplicative._commutator_floor(n, fro, top)) <= least


@pytest.mark.parametrize("n", [3, 8, 16, 23])
@pytest.mark.parametrize("kind", ["off_pivot", "pivot_row", "pivot_column", "mixed", "random"])
def test_rejected_inputs_run_no_lapack(monkeypatch, kind, n):
    # below n = 24 a perturbed split has no support form, so before the
    # bounds every failing condition of both batteries ran LAPACK
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK ran on a rejected input")

    for name in ("svd", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for seed in range(4):
        for log_eps in (-3.0, -6.0):
            a = make_input(kind, n, 100 * n + seed, log_eps)
            cert = certify_multiplicative(a)
            star_cert = certify_star_multiplicative(a)
            assert not cert.verdict and not star_cert.verdict
            for result in (*cert.conditions.values(), *star_cert.conditions.values()):
                assert result.passed or result.route in ("known", "bound", "lapack"), result
