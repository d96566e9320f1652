"""The O(n^2) accept path: the c = 0 form in place of the O(n^3) code.

When the ratio test accepts through the pivot bound, the batteries read
each condition off the closed-form c = 0 case of the low-rank form (and
``product_sampling`` off the ratio bound) and run the SVD, the
eigensolvers, the product sampling and the star battery's extras only for
a condition no span or O(n^2) bound decides. These tests pin that: no
O(n^3) call on accepted inputs, the same verdicts as the O(n^3) code
everywhere, every span holding the value the O(n^3) code computes, every
passing residual at least that value, and on every failing condition a
residual at most the worst the O(n^3) code computes over its parts, exactly
one of its failing parts' values where no form or bound decides it. A clean
split, with no entry of E above rounding (a multiplicative input of mixed
modulus, say), is decided by its c = 0 form at every n, failing conditions
included, with no LAPACK call. They also check the closed form itself
against numpy on T and its rounding against exact rational arithmetic.
"""

import contextlib
import math
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlab import (
    DEFAULT_TOL,
    ComplexMatrix,
    PreconditionError,
    Tolerance,
    build_from_scaling,
    certify_multiplicative,
    certify_star_multiplicative,
    cli,
    core,
    io,
    multiplicative,
    star,
)

TOLERANCES = (Tolerance(), Tolerance(rel=1e-15), Tolerance(rel=0, abs=1e-12))

CUBIC = (
    (core, "_singular_values"),
    (multiplicative, "_singular_values"),
    (np.linalg, "eigvals"),
    (np.linalg, "eigvalsh"),
    (multiplicative, "_product_sampling_residual"),
    (multiplicative, "_cocycle_parts"),
)


def count_cubic_calls(monkeypatch, n: int = 0) -> dict:
    """Count the calls of every O(n^3) routine from here on, by name, on an
    operand at least ``n`` wide: the low-rank form's small problems are not."""
    calls = {}
    for module, name in CUBIC:
        original = getattr(module, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            if max(np.shape(args[0])) >= n:
                calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


# every part of a star condition as a condition of its own, at its condition's threshold
STAR_PARTS = {p: (key, p) for key, *names in star._STAR.values() for p in names}

# the O(n^2) bounds, each replaced by one that decides nothing: the kept
# rank-one verdict by None, the spectrum floor by 0, the readers by None


def NO_READER(*args, **kwargs):
    return None


BOUNDS = (
    (multiplicative._Facts, "rank_one_bound", property(NO_READER)),
    (multiplicative._Facts, "spectrum_bound", property(lambda facts: 0.0)),
    (multiplicative._Facts, "hermitian_bound", NO_READER),
    (multiplicative._Forms, "psd_bound", NO_READER),
    (multiplicative._Facts, "normal_bound", NO_READER),
)


@contextmanager
def exact_only():
    """Run the batteries without forms, c = 0 or support, without the O(n^2)
    bounds and without the sampling bound: every part from the O(n^3) code.
    The star battery reports each part of its conditions as a condition of
    its own (``STAR_PARTS``); ``reference`` puts them together.

    The shared facts slot starts empty inside the block and is restored after
    it, so no facts cross its boundary in either direction.
    """
    with contextlib.ExitStack() as stack:
        for target, name, value in (
            (multiplicative, "_closed", lambda *args: None),
            (multiplicative, "_low_rank", lambda *args: None),
            (multiplicative, "_sampling_bound", lambda *args: math.inf),
            (multiplicative, "_last_facts", None),
            (star, "_STAR", STAR_PARTS),
            *BOUNDS,
        ):
            stack.enter_context(mock.patch.object(target, name, value))
        yield


def reference(ref) -> dict[str, tuple[bool, float, list[float]]]:
    """Each condition of a battery run under ``exact_only``: its verdict, the
    worst residual over all its parts, and the residuals of its failing
    parts, each part from the O(n^3) code."""
    if isinstance(ref, multiplicative.MultiplicativityCertificate):
        return {name: (r.passed, r.residual, [] if r.passed else [r.residual])
                for name, r in ref.conditions.items()}
    out = {}
    for name, (_, *names) in star._STAR.items():
        results = [ref.conditions[p] for p in names]
        residual = core._nanmax(*(r.residual for r in results))
        passed = all(r.passed for r in results) and math.isfinite(residual)
        out[name] = passed, residual, [r.residual for r in results if not r.passed]
    return out


def scaled(n: int, spread: float, seed: int) -> np.ndarray:
    """a_ij = f(i)/f(j) with log|f| uniform on [-spread, spread], unit diagonal."""
    rng = np.random.default_rng(seed)
    f = np.exp(rng.uniform(-spread, spread, n) + 2j * np.pi * rng.random(n))
    a = np.outer(f, 1.0 / f)
    np.fill_diagonal(a, 1.0)
    return a


# How far a residual read off a support form (a clean split's c = 0 form at
# every n, the low-rank form from _LOW_RANK_MIN_N on) may lie from the O(n^3)
# code's, relative: the allowance tests/test_low_rank.py checks the forms
# against.
FORM_REL = 1e-3


def same_verdicts_exact_failures(cert, ref, rel: float = 0.0) -> None:
    """Equal verdicts against ``reference(ref)``. A passing condition reports
    a residual at least the exact one; a failing one at most the worst over
    its parts, and a failing part's value where no O(n^2) bound decided it:
    exactly from known parts or the O(n^3) code, and within ``rel`` (and
    1e-12 absolute) from a support form, where ``rel`` > 0."""

    def close(got: float, want: float) -> bool:
        if got == want or (math.isnan(got) and math.isnan(want)):
            return True
        return rel > 0 and got == pytest.approx(want, rel=rel, abs=1e-12)

    want_all = reference(ref)
    assert cert.verdict == all(passed for passed, _, _ in want_all.values())
    for name, got in cert.conditions.items():
        passed, worst, failing = want_all[name]
        assert got.passed == passed, name
        if got.passed:
            assert got.residual >= worst or close(got.residual, worst), name
        else:
            assert got.residual <= worst or close(got.residual, worst), name
            if got.route != "bound":
                assert any(close(got.residual, want) for want in failing), name


def routes(cert) -> dict[str, str]:
    """What decided each condition of ``cert``: ``ConditionResult.route``."""
    return {name: result.route for name, result in cert.conditions.items()}


def certify_both(a, tol: Tolerance):
    """Both certificates, the star one None where its precondition fails."""
    cert = certify_multiplicative(a, tol)
    try:
        star_cert = certify_star_multiplicative(a, tol)
    except PreconditionError:
        star_cert = None
    return cert, star_cert


def form_rel(a, tol: Tolerance) -> float:
    """``FORM_REL`` where a failing condition may report a form's value: on a
    clean split (no entry of E above rounding, so the c = 0 form) at every
    n, and on the low-rank form from n = 24 on; else 0, LAPACK's residual."""
    split = multiplicative._facts(ComplexMatrix(a), tol).split
    clean = split is not None and split.support == ((), ())
    return FORM_REL if clean or a.shape[0] >= multiplicative._LOW_RANK_MIN_N else 0.0


def assert_matches_exact(a, tol: Tolerance) -> None:
    cert, star_cert = certify_both(a, tol)
    rel = form_rel(a, tol)
    with exact_only():
        ref, star_ref = certify_both(a, tol)
    same_verdicts_exact_failures(cert, ref, rel)
    assert cert.inconsistent == ref.inconsistent
    assert cert.witness == ref.witness
    assert (star_cert is None) == (star_ref is None)
    if star_cert is not None:
        same_verdicts_exact_failures(star_cert, star_ref, rel)


@pytest.mark.parametrize("n", [3, 64])
@pytest.mark.parametrize("spread", [0.0, 1.0], ids=["unimodular", "mixed"])
def test_accepted_inputs_run_no_cubic_code(monkeypatch, n, spread):
    a = scaled(n, spread, seed=n)
    calls = count_cubic_calls(monkeypatch)
    cert = certify_multiplicative(a)
    assert cert.verdict and not cert.inconsistent
    assert calls == {}
    assert routes(cert) == {**dict.fromkeys(multiplicative.MULTIPLICATIVE_CONDITIONS, "closed"),
                            "cocycle": "known", "unit_diagonal": "known"}
    if spread == 0.0:
        star_cert = certify_star_multiplicative(a)
        assert star_cert.verdict
        assert calls == {}
        assert set(routes(star_cert).values()) == {"closed"}


def one_ulp_off(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` with the real part of a_12 moved by one unit in the last place."""
    b = a.copy()
    b[0, 1] = complex(np.nextafter(b[0, 1].real, math.inf), b[0, 1].imag)
    return b


@pytest.mark.parametrize("n", [3, 64])
def test_rejected_inputs_run_every_fallback(monkeypatch, n):
    # one perturbed entry: the O(n^2) bounds fail every failing part, at
    # n = 3 as at n = 64, before any support form, SVD or eigensolve; only
    # the product sampling, whose verdict is a sampled one, still samples
    a = scaled(n, 0.0, seed=n)
    a[0, 1] *= 1 + 1e-3
    calls = count_cubic_calls(monkeypatch, n)
    cert = certify_multiplicative(a)
    assert not cert.verdict
    assert calls == {"_product_sampling_residual": 1}  # the pivot slice rejects: no ratio scan
    assert routes(cert) == {"cocycle": "known", "unit_diagonal": "known", "rank_one": "bound",
                            "spectrum_0_n": "bound", "product_sampling": "lapack"}
    assert multiplicative._last_facts.__dict__.get("support") is None  # no support form was built
    calls.clear()
    star_cert = certify_star_multiplicative(a)
    assert not star_cert.verdict
    assert set(routes(star_cert).values()) == {"bound"}
    assert calls == {}
    calls.clear()
    assert not certify_star_multiplicative(one_ulp_off(a)).verdict
    # distinct content, one ulp away, shares nothing, and runs no LAPACK either
    assert calls == {}


@pytest.mark.parametrize("n", [2, 3, 8, 16, 23])
def test_mixed_modulus_star_battery_runs_no_lapack(monkeypatch, n):
    # a multiplicative input of mixed modulus splits cleanly: every star
    # condition fails, and the c = 0 forms of A and of its Schur inverse decide
    # them all, below n = 24 as from there on
    a = scaled(n, 1.0, seed=n)
    calls = count_cubic_calls(monkeypatch)
    cert = certify_star_multiplicative(a)
    assert not cert.verdict
    assert not any(c.passed for c in cert.conditions.values())
    assert calls == {}
    # the support form, the c = 0 form again, fails each condition but one,
    # whose known unimodular part fails it, so its rank-one part is not read
    assert routes(cert) == {**dict.fromkeys(star.STAR_CONDITIONS, "support"),
                            "rank_one_unimodular_unit_diag": "known"}
    assert multiplicative._last_facts.split.support == ((), ())
    assert certify_multiplicative(a).verdict
    assert calls == {}


def test_a_part_its_c_0_form_passed_is_not_read_again(monkeypatch):
    # f = (1, 2) with a_12 moved by 1e-9, at rel 2: the c = 0 form passes
    # hermitian in star_and_multiplicative; selfadjoint_spectrum_norm reads
    # it again beside a spectrum part that goes to LAPACK, and takes its
    # verdict from the memo, so ||A - A*||_2 is never computed
    a = np.array([[1, 0.5 + 1e-9], [2, 1]], dtype=complex)
    computed = []
    for module in (multiplicative, star):
        original = module._skew_norm
        monkeypatch.setattr(module, "_skew_norm", lambda x, _f=original: computed.append(x.shape) or _f(x))
    cert = certify_star_multiplicative(a, Tolerance(rel=2.0))
    assert computed == []
    got = {name: (c.passed, c.residual, c.route) for name, c in cert.conditions.items()}
    herm = pytest.approx(0.6000000014400426, rel=1e-12)
    rank = pytest.approx(3.199999233598599e-10, rel=1e-6)
    assert got == {
        "star_and_multiplicative": (True, herm, "closed"),
        "cp_isomorphism_proxy": (True, herm, "closed"),
        "rank_one_normal_unit_diag": (False, rank, "lapack"),
        "rank_one_unimodular_unit_diag": (False, rank, "lapack"),
        "selfadjoint_spectrum_norm": (True, 1.0, "lapack"),
        "schur_pair_positive": (True, herm, "closed"),
    }


def test_check_star_computes_each_fact_once(monkeypatch, tmp_path, capsys):
    # both batteries read one ratio test, which rejects through the pivot
    # slice without the scan, and the O(n^2) bounds decide every failing
    # condition: no SVD or eigensolve at n = 3 or 64; the facts the bounds
    # read are computed once for A and once for its Schur inverse
    for n in (3, 64):
        a = scaled(n, 0.0, seed=n)
        a[0, 1] *= 1 + 1e-3
        path = tmp_path / f"m{n}.json"
        path.write_text(io.dumps_document(io.matrix_to_document(a)))
        calls = count_cubic_calls(monkeypatch, n)
        computed = []
        for name in ("skew_rows", "fro"):
            reader = getattr(multiplicative._Forms, name)

            def spy(forms, _original=reader.func, _name=name):
                computed.append(_name)
                return _original(forms)

            monkeypatch.setattr(reader, "func", spy)
        assert cli.main(["check", str(path), "--star", "--json"]) == 1
        capsys.readouterr()
        assert calls == {"_product_sampling_residual": 1}
        assert sorted(computed) == ["fro", "fro", "skew_rows", "skew_rows"]
        monkeypatch.undo()


def test_accepted_check_forms_no_skew_matrix(monkeypatch, tmp_path, capsys):
    # the accept path reads the symmetric-solver route off the split, so a
    # unimodular check --star at n = 512 forms no n-by-n A - A*
    f = np.exp(2j * np.pi * np.random.default_rng(512).random(512))
    path = tmp_path / "m512.json"
    path.write_text(io.dumps_document(io.matrix_to_document(np.outer(f, 1 / f))))

    def refuse(*args, **kwargs):
        raise AssertionError("an n-by-n A - A* was formed")

    for module, name in ((core, "_hermitian_route"), (core, "_half_skew"), (multiplicative, "_half_skew"),
                         (star, "_skew_norm"), (multiplicative, "_skew_norm")):
        monkeypatch.setattr(module, name, refuse)
    assert cli.main(["check", str(path), "--star", "--json"]) == 0
    capsys.readouterr()


def test_check_star_bounds_the_skew_once(monkeypatch, tmp_path, capsys):
    # both batteries read the solver route, through the split's skew bound,
    # and the bound is computed once per matrix
    computed = []
    skew_max = multiplicative._Split.skew_max
    original = skew_max.func

    def spy(split):
        computed.append(split.x.shape)
        return original(split)

    monkeypatch.setattr(skew_max, "func", spy)
    for spread, code in ((0.0, 0), (1.0, 1)):
        path = tmp_path / f"s{spread}.json"
        path.write_text(io.dumps_document(io.matrix_to_document(scaled(8, spread, seed=8))))
        computed.clear()
        assert cli.main(["check", str(path), "--star", "--json"]) == code
        capsys.readouterr()
        assert computed == [(8, 8)]


def certificates(m: ComplexMatrix, tol: Tolerance) -> tuple:
    cert, star_cert = certify_both(m, tol)
    return cert.to_dict(), star_cert.to_dict() if star_cert is not None else None


def fresh_certificates(m: ComplexMatrix, tol: Tolerance) -> tuple:
    """``certificates`` from facts computed anew, on an equal copy of ``m``."""
    return certificates(ComplexMatrix(m.data), tol)


def test_shared_facts_are_keyed_by_matrix_bits_and_tolerance():
    a = scaled(6, 0.0, seed=6)
    b = a.copy()
    b[0, 1] *= 1 + 1e-6  # fails at the default tolerance, passes at rel=1e-3
    ma, mb, loose = ComplexMatrix(a), ComplexMatrix(b), Tolerance(rel=1e-3)

    facts = multiplicative._facts(mb, DEFAULT_TOL)
    assert multiplicative._facts(mb, Tolerance()) is facts  # an equal tolerance
    assert multiplicative._facts(ComplexMatrix(b), DEFAULT_TOL) is facts  # an equal copy
    assert multiplicative._facts(mb, loose).tol is loose
    near = ComplexMatrix(one_ulp_off(b))
    assert multiplicative._facts(near, loose).m is near  # one ulp away: facts of its own

    strict = certificates(mb, DEFAULT_TOL)
    assert not strict[0]["verdict"]
    assert certificates(mb, loose)[0]["verdict"]
    assert certificates(mb, loose) == fresh_certificates(mb, loose)
    assert certificates(mb, DEFAULT_TOL) == strict == fresh_certificates(mb, DEFAULT_TOL)
    for m in (ma, mb, ma, mb):
        assert certificates(m, DEFAULT_TOL) == fresh_certificates(m, DEFAULT_TOL)


def test_exact_only_never_sees_facts_built_outside_it():
    m = ComplexMatrix(scaled(6, 0.0, seed=6))
    outside = multiplicative._facts(m, DEFAULT_TOL)
    assert outside.closed is not None  # the c = 0 form of the accepted split
    with exact_only():
        inside = multiplicative._facts(m, DEFAULT_TOL)
        assert inside is not outside
        assert inside.closed is None
        assert inside.support is None
    assert multiplicative._facts(m, DEFAULT_TOL) is outside


def conjugate_asymmetric(n: int, dev: float, seed: int) -> np.ndarray:
    """An exactly Hermitian unimodular a_ij = f(i) conj(f(j)) with one entry,
    and not its mirror, moved by ``dev`` (0: by one unit in the last place)."""
    rng = np.random.default_rng(seed)
    f = np.exp(2j * np.pi * rng.random(n))
    a = np.outer(f, f.conj())
    np.fill_diagonal(a, 1.0)
    i, j = rng.choice(n, size=2, replace=False)
    if dev == 0.0:
        a[i, j] = complex(np.nextafter(a[i, j].real, 2.0), a[i, j].imag)
    else:
        a[i, j] += dev * a[i, j]
    return a


PARTIAL = [
    *(("mixed", n, spread) for n in (2, 6, 32) for spread in (3e-11, 1e-10, 1e-9, 1e-6, 1.0)),
    *(("conjugate", n, dev) for n in (2, 6, 32) for dev in (0.0, 1e-14, 1e-12, 3e-11)),
]


@pytest.mark.parametrize("kind, n, size", PARTIAL)
def test_partial_fallback_reports_exact_failures(kind, n, size):
    # inputs the ratio test accepts but that fail some star conditions
    a = scaled(n, size, seed=n) if kind == "mixed" else conjugate_asymmetric(n, size, seed=n)
    for tol in TOLERANCES:
        assert_matches_exact(a, tol)


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("eps", [1e-13, 1e-12, 1e-11])
def test_weyl_bounds_where_the_pivot_column_grows(n, eps):
    # one pivot-column entry of J grown by eps: ||u|| ||v|| is n + eps but
    # sigma_1 only about n + eps/n, so the norm's lower end needs ||F||_F
    a = np.ones((n, n), dtype=complex)
    a[1, multiplicative._pivot(a, Tolerance())] *= 1 + eps
    closed = multiplicative._Facts(ComplexMatrix(a), Tolerance()).closed
    assert closed is not None
    s = core._singular_values(a)
    assert closed.norm().lo <= s[0] <= closed.norm().hi
    passed, upper = closed.rank_one(Tolerance())
    assert passed and upper >= s[1] / s[0]
    assert_matches_exact(a, Tolerance())


LOOSE = (Tolerance(rel=0.5), Tolerance(abs=100.0), Tolerance(rel=4.0), Tolerance(rel=0.3, abs=0.5))


@pytest.mark.parametrize("tol", LOOSE, ids=[str(t.to_dict()) for t in LOOSE])
@pytest.mark.parametrize("seed", range(4))
def test_loose_tolerances_keep_exact_verdicts(tol, seed):
    # thresholds so loose that sigma_1 falls below the rank cut, or that the
    # ratio test accepts a matrix far from rank one; the forms must then
    # leave the verdicts to the O(n^3) code
    rng = np.random.default_rng(seed)
    n = 2 + seed
    for a in (
        scaled(n, 0.0, seed),
        scaled(n, 0.5, seed) * (1 + 0.2 * rng.standard_normal((n, n))),
        np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))),
    ):
        np.fill_diagonal(a, 1.0)
        assert_matches_exact(a, tol)


def test_partial_fallback_mixes_bounds_and_exact_residuals(monkeypatch):
    # one certificate with a condition passed by its span's upper end and a
    # failing one whose residual is exact: rank one is certified, the
    # unimodular test fails. The split is clean, so the c = 0 form reads the
    # rest, and no LAPACK runs
    a = scaled(6, 1e-9, seed=6)
    calls = count_cubic_calls(monkeypatch)
    cert = certify_star_multiplicative(a)
    assert cert.conditions["rank_one_normal_unit_diag"].passed
    assert not cert.conditions["rank_one_unimodular_unit_diag"].passed
    assert calls == {}
    with exact_only():
        ref = certify_star_multiplicative(a)
    same_verdicts_exact_failures(cert, ref, form_rel(a, DEFAULT_TOL))
    want = reference(ref)
    name = "rank_one_unimodular_unit_diag"
    assert cert.conditions[name].residual == want[name][1]
    assert cert.conditions["rank_one_normal_unit_diag"].residual > want["rank_one_normal_unit_diag"][1]


def perturbed(polar, log_eps, seed, perturb, tol) -> np.ndarray:
    """a_ij = f(i)/f(j) for f from ``polar`` (log10 modulus, phase), moved
    by a relative ``10**log_eps`` as ``perturb`` names."""
    f = np.array([10.0**r * np.exp(1j * t) for r, t in polar])
    n = f.size
    eps = 10.0**log_eps
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = build_from_scaling(f).data
    if perturb == "unimodular":
        a = build_from_scaling(f / np.abs(f)).data
    elif perturb == "conjugate" and n > 1:
        a = conjugate_asymmetric(n, eps, seed)
    elif perturb == "diagonal":
        k = rng.integers(n)
        a = np.outer(f, (1 + eps * noise[0] * (np.arange(n) == k)) / f)
    elif perturb == "pivot_outer":
        p = multiplicative._pivot(a, tol)
        a = np.outer(a[:, p], a[p])
    elif perturb == "pivot_column":
        p = multiplicative._pivot(a, tol)
        a = a.copy()
        a[rng.integers(n), p] *= 1 + eps
    elif perturb in ("entries", "off_diagonal"):
        if perturb == "off_diagonal":
            np.fill_diagonal(noise, 0.0)
        a = a * (1 + eps * noise)
    return a


def inside(span, value: float) -> bool:
    return span.lo <= value <= span.hi


def assert_form_holds_lapack(x: np.ndarray, form, tol: Tolerance) -> None:
    """Every span of ``form`` holds what the O(n^3) code computes on x, and
    every verdict the form decides is the O(n^3) code's, a pass with an upper
    end at least the computed residual."""
    n = x.shape[0]
    s = core._singular_values(x)
    assert form.fro >= np.linalg.norm(x)
    assert inside(form.norm(), s[0])
    padded = np.concatenate([form.sigma, np.zeros(n - form.sigma.size)])
    assert np.all(np.abs(padded - s) <= form.sigma_err)
    assert inside(form.skew(), star._skew_norm(x))
    assert inside(form.lam_min(), float(np.linalg.eigvalsh(core._hermitian_part(x))[0]))
    assert inside(form.commutator(), star._commutator_norm(x))
    span = form.spectrum(core._hermitian_route(x, float(np.abs(x).max()), tol))
    if span is not None:
        eigs = core.eigenvalues(ComplexMatrix(x), tol)
        assert inside(span, multiplicative._rank_one_spectrum_distance(eigs))
    for decided, (passed, residual) in (
        (form.rank_one(tol), (core._rank(s, n, tol) == 1, s[1] / s[0])),
        (star._psd_form(form, tol), star._psd_residual(x, tol)),
    ):
        if decided is not None:
            assert decided[0] == passed
            assert not passed or decided[1] >= residual


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.floats(-4, 4), st.floats(0, 6.3)), min_size=1, max_size=6),
    st.floats(-18, -2),
    st.integers(0, 2**32 - 1),
    st.sampled_from(
        (
            "exact", "unimodular", "conjugate", "entries", "off_diagonal", "diagonal",
            "pivot_outer", "pivot_column",
        )
    ),
    st.sampled_from(TOLERANCES),
)
def test_bounds_cover_the_cubic_code(polar, log_eps, seed, perturb, tol):
    # every span of the c = 0 forms of A and of its Schur inverse holds what
    # the O(n^3) code computes (rounding included), the sampling bound is at
    # least every sampled residual, and every condition's verdict is the
    # O(n^3) code's
    a = perturbed(polar, log_eps, seed, perturb, tol)
    n = a.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        facts = multiplicative._Facts(ComplexMatrix(a), tol)
        route = core._hermitian_route(a, facts.scale, tol)
        if facts.split is not None:
            assert facts.split.skew_max >= np.abs(a - a.conj().T).max()
        for form in (facts.closed, facts.support):
            assert form is None or facts.route(form) == route
        closed = facts.closed
        if closed is not None:
            assert_form_holds_lapack(a, closed, tol)
            bound = multiplicative._sampling_bound(facts.split.bound, facts.scale, n)
            for trial_seed in (0, seed):
                assert not bound < multiplicative._product_sampling_residual(a, 2, trial_seed)
            if np.abs(a).min() > tol.abs:
                inv = 1.0 / a
                inv_closed = facts.forms_of(inv).closed
                if inv_closed is not None:
                    assert_form_holds_lapack(inv, inv_closed, tol)
    assert_matches_exact(a, tol)


def exact_sum_of_squares(x: np.ndarray) -> Fraction:
    """sum |x_ij|^2 in exact rational arithmetic."""
    return sum(
        (Fraction(float(v)) ** 2 for z in x.ravel() for v in (z.real, z.imag)), Fraction(0)
    )


def exact_pivot_rest_squares(x: np.ndarray, p: int) -> Fraction:
    """||x - x_:p x_p:||_F^2 for the exact outer product of the stored pivot
    column and row, in exact rational arithmetic."""
    total = Fraction(0)
    for i, j in np.ndindex(*x.shape):
        (ar, ai), (cr, ci), (rr, ri) = (
            (Fraction(float(z.real)), Fraction(float(z.imag))) for z in (x[i, j], x[i, p], x[p, j])
        )
        total += (ar - (cr * rr - ci * ri)) ** 2 + (ai - (cr * ri + ci * rr)) ** 2
    return total


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.floats(-4, 4), st.floats(0, 6.3)), min_size=1, max_size=6),
    st.floats(-18, -2),
    st.integers(0, 2**32 - 1),
    st.sampled_from(("exact", "entries", "pivot_outer")),
)
def test_frobenius_bounds_cover_exact_arithmetic(polar, log_eps, seed, perturb):
    # the rounding allowances of ``_fro`` and ``_Split.rest`` against the
    # exact rational values: a rounded outer product has a computed pivot
    # residual of 0 but an exact one of a few units in the last place
    tol = Tolerance()
    a = perturbed(polar, log_eps, seed, perturb, tol)
    assert Fraction(multiplicative._fro(a)) ** 2 >= exact_sum_of_squares(a)
    p = multiplicative._pivot(a, tol)
    rest = multiplicative._split(a, p)[0].rest
    assert Fraction(rest) ** 2 >= exact_pivot_rest_squares(a, p)


def exact_complex(z) -> tuple[Fraction, Fraction]:
    return Fraction(float(z.real)), Fraction(float(z.imag))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.floats(-4, 4), st.floats(0, 6.3)), min_size=2, max_size=8),
    st.floats(-18, -2),
    st.integers(0, 2**32 - 1),
    st.sampled_from(("exact", "unimodular", "conjugate", "entries", "pivot_column")),
)
def test_closed_form_matches_t_and_exact_rounding(polar, log_eps, seed, perturb):
    # the closed form's values against numpy's solvers on T built from a QR
    # of [u, conj v] (u v^T = Q (r_0 r_1^H) Q^H, unitarily similar to the
    # closed form's T), and its computed lam and beta against their exact
    # rational values: eta must cover the split's rest plus both roundings
    tol = Tolerance()
    a = perturbed(polar, log_eps, seed, perturb, tol)
    split = multiplicative._split(a, multiplicative._pivot(a, tol))[0]
    closed = multiplicative._closed(split)
    assert closed is not None
    u, v = split.u, split.v
    n = u.size
    r = np.linalg.qr(np.stack([u, v.conj()], axis=1), mode="r")
    t = np.outer(r[:, 0], r[:, 1].conj())
    size = closed.t_fro
    err = 64 * n * 2.0**-53 * size

    assert abs(closed.sigma[0] - np.linalg.svd(t, compute_uv=False)[0]) <= err
    vals, right = np.linalg.eig(t)
    i = int(np.argmin(np.abs(vals - closed.lam)))
    assert abs(vals[i] - closed.lam) <= err
    assert abs(closed._skew[0] - np.linalg.svd(t - t.conj().T, compute_uv=False)[0]) <= err
    assert abs(closed._low[0] - np.linalg.eigvalsh(core._hermitian_part(t))[0]) <= err
    comm = t @ t.conj().T - t.conj().T @ t
    assert abs(closed._comm[0] - np.linalg.svd(comm, compute_uv=False)[0]) <= err * size
    if abs(closed.lam) > 1e-3 * size:  # the eigenvectors are well conditioned
        conj_vals, left = np.linalg.eig(t.conj().T)
        j = int(np.argmin(np.abs(conj_vals - closed.lam.conjugate())))
        x, y = right[:, i], left[:, j] / np.linalg.norm(left[:, j])
        cos = closed._eig[2] + 4 * multiplicative._EPS
        assert cos == pytest.approx(abs(np.vdot(y, x)), abs=1e-9)

    lam = [sum(p) for p in zip(*(
        (vr * ur - vi * ui, vr * ui + vi * ur)
        for (ur, ui), (vr, vi) in ((exact_complex(x), exact_complex(y)) for x, y in zip(u, v))
    ))]
    beta2 = exact_sum_of_squares(u) * exact_sum_of_squares(v) - lam[0] ** 2 - lam[1] ** 2
    eps = Fraction(multiplicative._EPS)
    half = (Fraction(closed.eta) / (1 + eps) - Fraction(split.rest)) / 2  # per rounding
    got_re, got_im = exact_complex(closed.lam)
    assert (got_re - lam[0]) ** 2 + (got_im - lam[1]) ** 2 <= half**2
    beta = Fraction(closed.beta)
    assert max(beta - half, Fraction(0)) ** 2 <= beta2 <= (beta + half) ** 2


def test_hermitian_beta_is_not_formed_by_cancellation(monkeypatch):
    # a_ij = f(i) conj(f(j)) with |f| = 1 is Hermitian, so conj v is parallel
    # to u and beta is 0 up to rounding. sqrt(||u||^2 ||v||^2 - |lam|^2)
    # would cancel to about sqrt(2^-53) n: a skew part far above the
    # star battery's threshold, which LAPACK would then have to decide
    n = 64
    f = np.exp(2j * np.pi * np.random.default_rng(n).random(n))
    a = np.outer(f, f.conj())
    np.fill_diagonal(a, 1.0)
    closed = multiplicative._Facts(ComplexMatrix(a), Tolerance()).closed
    assert closed.beta <= 1e-13 * closed.t_fro
    calls = count_cubic_calls(monkeypatch)
    cert = certify_star_multiplicative(a)
    assert cert.verdict and calls == {}
    assert cert.conditions["star_and_multiplicative"].residual < 1e-11
