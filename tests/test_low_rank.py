"""Failing conditions from the pivot split: the low-rank evaluator.

A near-multiplicative A is u v^T plus a few lines of E, so the batteries
read its singular values, spectrum, skew part, Hermitian parts and
commutator off problems of size at most 2(|R| + |C| + 1). These tests pin
that every such value comes with a span that holds what LAPACK computes,
that verdicts equal LAPACK's, that inputs with no low-rank form or with a
value too near its threshold fall back to LAPACK, and that the perturbed
n = 256 ``check --star --json`` request runs no SVD, eigensolve or n-by-n
product at all. A part whose O(n^2) bound fails it reads no form.
"""

import functools
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_accept_bounds import exact_only, reference, same_verdicts_exact_failures

from schurlab import (
    ComplexMatrix,
    PreconditionError,
    Tolerance,
    certify_multiplicative,
    certify_star_multiplicative,
    cli,
    core,
    io,
    multiplicative,
    star,
)

SIZES = (3, 26, 64, 256)
KINDS = ("off_pivot", "pivot_row", "pivot_column", "two_columns", "mixed")
WIDE = 2 * (multiplicative._LOW_RANK_CAP + 1)  # the widest small problem


def make_input(kind: str, n: int, seed: int, delta: float = 1e-3) -> np.ndarray:
    """A unit-diagonal a_ij = f(i)/f(j) (|f| in e^+-1 for ``mixed``,
    unimodular otherwise) with ``kind``'s entries multiplied by 1 + delta."""
    rng = np.random.default_rng(seed)
    log_mod = rng.uniform(-1, 1, n) if kind == "mixed" else np.zeros(n)
    f = np.exp(log_mod + 2j * np.pi * rng.random(n))
    a = np.outer(f, 1.0 / f)
    np.fill_diagonal(a, 1.0)
    p = multiplicative._pivot(a, Tolerance())
    others = [k for k in range(n) if k != p]
    i, j = rng.choice(others, size=2, replace=False)
    if kind == "off_pivot":
        a[i, j] *= 1 + delta
    elif kind == "pivot_row":
        a[p, j] *= 1 + delta
    elif kind == "pivot_column":
        a[i, p] *= 1 + delta
    elif kind == "two_columns":
        a[i, j] *= 1 + delta
        a[j, i] *= 1 + 2 * delta
    return a


def both_batteries(m: ComplexMatrix):
    cert = certify_multiplicative(m)
    try:
        return cert, certify_star_multiplicative(m)
    except PreconditionError:
        return cert, None


def inside(span, value: float) -> bool:
    return span.lo <= value <= span.hi


def assert_spans_hold_lapack(a: np.ndarray, lr) -> None:
    """Every span of the low-rank form holds the value LAPACK computes."""
    n = a.shape[0]
    s = core._singular_values(a)
    assert inside(lr.norm(), s[0])
    assert np.all(np.abs(np.concatenate([lr.sigma, np.zeros(n - lr.sigma.size)]) - s) <= lr.sigma_err)
    assert inside(lr.skew(), star._skew_norm(a))
    assert inside(lr.lam_min(), float(np.linalg.eigvalsh((a + a.conj().T) / 2)[0]))
    assert inside(lr.commutator(), star._commutator_norm(a))
    span = lr.spectrum()
    if span is not None:
        dist = multiplicative._rank_one_spectrum_distance(np.linalg.eigvals(a))
        assert inside(span, dist)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", KINDS)
def test_low_rank_values_match_lapack(kind, n):
    a = make_input(kind, n, seed=n)
    m = ComplexMatrix(a)
    cert, star_cert = both_batteries(m)
    facts = multiplicative._facts(m, Tolerance())
    lr = facts.support
    if n < multiplicative._LOW_RANK_MIN_N and kind != "mixed":
        assert lr is None  # LAPACK decides; a clean split's c = 0 form decides at every n
    else:
        assert lr is not None
        assert_spans_hold_lapack(a, lr)
        rows, cols = facts.split.support
        assert len(rows) + len(cols) == {"two_columns": 2, "mixed": 0}.get(kind, 1)
        assert all(isinstance(line, int) for line in rows + cols)
    match_lapack(a, cert, star_cert)


def match_lapack(a: np.ndarray, cert, star_cert) -> None:
    """Both certificates against LAPACK's: the same verdicts, each failing
    residual a form reports within 1e-3 of LAPACK's, and each passing star
    residual too."""
    with exact_only():
        ref, star_ref = both_batteries(ComplexMatrix(a))
    assert cert.inconsistent == ref.inconsistent
    assert cert.witness == ref.witness
    same_verdicts_exact_failures(cert, ref, 1e-3)
    assert (star_cert is None) == (star_ref is None)
    if star_cert is not None:
        same_verdicts_exact_failures(star_cert, star_ref, 1e-3)
        want = reference(star_ref)
        for name, got in star_cert.conditions.items():
            if got.passed:
                assert got.residual == pytest.approx(want[name][1], rel=1e-3, abs=1e-12), name


@pytest.mark.parametrize(
    "kind, n, delta",
    [("off_pivot", 24, 1e-7), ("pivot_row", 24, 1e-7), ("pivot_column", 24, 1e-7),
     ("two_columns", 32, 3e-9), ("two_columns", 32, 1e-7), ("two_columns", 100, 1e-8)],
)
def test_support_failures_match_lapack(kind, n, delta):
    # perturbations below what the O(n^2) bounds decide: a condition fails
    # on its low-rank form, whose value lies within 1e-3 of LAPACK's
    a = make_input(kind, n, seed=n, delta=delta)
    m = ComplexMatrix(a)
    cert, star_cert = both_batteries(m)
    failing = [c for c in (*cert.conditions.values(), *star_cert.conditions.values()) if not c.passed]
    assert any(c.route == "support" for c in failing)
    match_lapack(a, cert, star_cert)


def count_lapack(monkeypatch) -> dict:
    """Count the n-by-n SVDs, eigensolves and commutator products from here on."""
    calls = {}
    for name in ("svd", "eig", "eigvals", "eigvalsh"):
        original = getattr(np.linalg, name)

        def spy(x, *args, _name=name, _original=original, **kwargs):
            if max(np.shape(x)) > WIDE:
                calls[_name] = calls.get(_name, 0) + 1
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    original = star._commutator_norm

    def spy_commutator(data):
        calls["_commutator_norm"] = calls.get("_commutator_norm", 0) + 1
        return original(data)

    monkeypatch.setattr(star, "_commutator_norm", spy_commutator)
    return calls


def test_perturbed_check_star_json_runs_no_cubic_code(monkeypatch, tmp_path, capsys):
    a = make_input("off_pivot", 256, seed=256)
    path = tmp_path / "p256.json"
    path.write_text(io.dumps_document(io.matrix_to_document(a)))
    calls = count_lapack(monkeypatch)
    assert cli.main(["check", str(path), "--star", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["multiplicative"]["verdict"] is False
    assert report["star"]["verdict"] is False
    assert calls == {}


def count_form_values(monkeypatch) -> Counter:
    """Count the computations of each form value from here on, by (name,
    form instance): the low-rank form's ``_skew``, ``_low``, ``_comm`` and
    ``_eig``, and every form's spectrum span by route."""
    calls = Counter()
    for name in ("_skew", "_low", "_comm", "_eig"):
        original = vars(multiplicative._LowRank)[name].func

        @functools.wraps(original)
        def spy(self, _name=name, _original=original):
            calls[_name, id(self)] += 1
            return _original(self)

        monkeypatch.setattr(multiplicative._LowRank, name, multiplicative._cached(spy))
    spectrum = multiplicative._Form._spectrum

    def spy_spectrum(self, hermitian):
        calls[f"_spectrum {hermitian}", id(self)] += 1
        return spectrum(self, hermitian)

    monkeypatch.setattr(multiplicative._Form, "_spectrum", spy_spectrum)
    return calls


@pytest.mark.parametrize("delta", [3e-9, 0.0], ids=["off_pivot", "unperturbed"])
def test_check_star_computes_each_form_value_once(monkeypatch, tmp_path, capsys, delta):
    # both batteries read the same forms: the skew part, for example, for the
    # route, the spectrum, the Hermitian test and the PSD test of each. The
    # entry is moved by 3e-9, below what the O(n^2) bounds decide, so the
    # parts that pass read the low-rank forms
    n = 64
    a = make_input("off_pivot", n, seed=n, delta=delta)
    path = tmp_path / "m.json"
    path.write_text(io.dumps_document(io.matrix_to_document(a)))
    calls = count_form_values(monkeypatch)
    assert cli.main(["check", str(path), "--star", "--json"]) == (1 if delta else 0)
    capsys.readouterr()
    assert calls and set(calls.values()) == {1}
    names = {name for name, _ in calls}
    if delta:  # the low-rank forms of A and of its Schur inverse
        assert {"_skew", "_low", "_comm", "_eig"} <= names
        assert len({form for name, form in calls if name == "_skew"}) == 2
    else:  # the c = 0 forms compute their values once, as they are built
        assert names == {"_spectrum True"}
        closed = multiplicative._last_facts.closed
        assert {"_skew", "_low", "_comm", "_eig"} <= set(vars(closed))


def noisy(eps: float) -> ComplexMatrix:
    """A mixed-modulus n = 64 input with relative noise ``eps`` in every entry off the diagonal."""
    rng = np.random.default_rng(7)
    a = make_input("mixed", 64, seed=7) * (1 + eps * rng.standard_normal((64, 64)))
    np.fill_diagonal(a, 1.0)
    return ComplexMatrix(a)


def test_noise_in_every_entry_falls_back(monkeypatch):
    # no low-rank form holds noise in every entry; the O(n^2) bounds fail
    # rank one and the spectrum without LAPACK
    m = noisy(1e-6)
    calls = count_lapack(monkeypatch)
    cert = certify_multiplicative(m)
    assert multiplicative._facts(m, Tolerance()).split.support is None
    assert not cert.verdict
    assert calls == {}
    assert {name: c.route for name, c in cert.conditions.items() if not c.passed} == {
        "cocycle": "known", "rank_one": "bound", "spectrum_0_n": "bound", "product_sampling": "lapack"
    }


def test_an_undecided_bound_reports_lapack(monkeypatch):
    # at 1e-7 the 2-by-2 minor's sigma_2 lies below the rank cut that
    # sigma_2(A) clears: the bound leaves rank one to the SVD, which reports
    # its own residual
    m = noisy(1e-7)
    calls = count_lapack(monkeypatch)
    cert = certify_multiplicative(m)
    assert multiplicative._facts(m, Tolerance()).rank_one_bound is None
    assert calls == {"svd": 1}
    got = cert.conditions["rank_one"]
    assert not got.passed and got.route == "lapack"
    assert cert.conditions["spectrum_0_n"].route == "bound"
    with exact_only():
        ref = certify_multiplicative(ComplexMatrix(m.data))
    assert got == ref.conditions["rank_one"]


def spectrum_threshold_crossing(n: int) -> float:
    """delta at which the low-rank spectrum distance of an off-pivot
    perturbation crosses the spectrum_0_n threshold rel * n, by bisection."""
    threshold = Tolerance().threshold(float(n))
    lo, hi = 1e-8, 1e-2
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        facts = multiplicative._Facts(ComplexMatrix(make_input("off_pivot", n, 5, mid)), Tolerance())
        if facts.support.spectrum().value < threshold:
            lo = mid
        else:
            hi = mid
    return hi


def test_near_threshold_spectrum_falls_back(monkeypatch):
    n = 64
    a = make_input("off_pivot", n, 5, spectrum_threshold_crossing(n))
    m = ComplexMatrix(a)
    facts = multiplicative._facts(m, Tolerance())
    assert facts.support is not None
    span = facts.support.spectrum()
    assert span is None or span.verdict(Tolerance().threshold(float(n))) is None
    calls = count_lapack(monkeypatch)
    cert = certify_multiplicative(m)
    assert calls.get("eigvals") == 1
    with exact_only():
        ref = certify_multiplicative(ComplexMatrix(a))
    assert cert.conditions["spectrum_0_n"] == ref.conditions["spectrum_0_n"]


def test_star_refuses_a_non_unital_map_before_the_ratio_scan(monkeypatch):
    # 2 f(i)/f(j): the unit-diagonal refusal is O(n) and comes first
    calls = []
    for name in ("_cocycle_parts", "_split"):
        original = getattr(multiplicative, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(multiplicative, name, spy)
    a = 2 * make_input("mixed", 64, seed=3, delta=0.0)
    with pytest.raises(
        PreconditionError,
        match=r"^unit diagonal required for the star battery, worst deviation 1\.000e\+00$",
    ):
        certify_star_multiplicative(a)
    assert calls == []


def sampling_input(kind: str, n: int, seed: int, log_eps: float) -> np.ndarray:
    """Scaled (|f| in e^+-3), perturbed or exact a_ij = f(i)/f(j)."""
    rng = np.random.default_rng(seed)
    f = np.exp(rng.uniform(-3, 3, n) + 2j * np.pi * rng.random(n))
    a = np.outer(f, 1.0 / f)
    if kind == "perturbed":
        a = a * (1 + 10.0**log_eps * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))))
    elif kind == "entry":
        a[rng.integers(n), rng.integers(n)] *= 1 + 10.0**log_eps
    return a


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(("exact", "perturbed", "entry")),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
    st.floats(-16, -1),
    st.integers(0, 2**16),
)
def test_sampling_residual_is_within_its_bound(kind, n, seed, log_eps, trial_seed):
    a = sampling_input(kind, n, seed, log_eps)
    scale = float(np.abs(a).max())
    diag = float(np.abs(np.diagonal(a) - 1.0).max())
    p = multiplicative._pivot(a, Tolerance())
    cocycle = multiplicative._scan_bound(multiplicative._split(a, p)[1], scale, diag)[0]
    bound = multiplicative._sampling_bound(cocycle, scale, n)
    assert multiplicative._product_sampling_residual(a, 4, trial_seed) <= bound
