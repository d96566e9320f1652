"""One set of facts per matrix for every multiplicativity decision.

``check_cocycle``, ``factor_scaling``, ``schur_map_norm``, the truncation
probes, ``group_product`` and both batteries read the ratio test, its split
and the scaling from ``multiplicative._facts``; calls on one matrix, or on
bitwise-equal ones (the same shape and complex128 bits), at an equal
tolerance share them. Pinned here: the paths where the facts refuse (an
input that passes the ratio test with no pivot column above the floor, and
the zero map), and that sharing never changes a result, even between
bitwise near-twins: a zero of the other sign, an entry one ulp away, or the
caller's own array changed in place between two calls.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlab import (
    ComplexMatrix,
    NotMultiplicativeError,
    PreconditionError,
    Tolerance,
    ZeroEntryError,
    build_from_scaling,
    certify_multiplicative,
    certify_star_multiplicative,
    check_cocycle,
    factor_scaling,
    group_product,
    io,
    multiplicative,
    schur_map_norm,
    table_generator,
    unboundedness_witness,
)
from schurlab.cli import main

# passes the ratio test at rel = 2, yet every column holds an entry at or
# below the floor, so no split exists to read f off
BELOW_FLOOR = [[1, 1e-13, 1e13], [1e13, 1, 1e-13], [1e-13, 1e13, 1]]
LOOSE = Tolerance(rel=2)
REASON = "pivot column 1 contains a below-floor entry at (3,1)"


def document(a) -> str:
    return io.dumps_document(io.matrix_to_document(ComplexMatrix(a)))


def test_below_floor_input_passes_the_ratio_test():
    assert check_cocycle(BELOW_FLOOR, LOOSE).passed


@pytest.mark.parametrize(
    "call",
    [
        factor_scaling,
        schur_map_norm,
        lambda a, tol: unboundedness_witness(table_generator(np.array(a, complex)), 3, tol),
        lambda a, tol: group_product(a, a, tol),
    ],
    ids=["factor_scaling", "schur_map_norm", "unboundedness_witness", "group_product"],
)
def test_below_floor_input_is_refused_with_the_pivot_reason(call):
    with pytest.raises(ZeroEntryError, match=f"^{re.escape(REASON)}$"):
        call(BELOW_FLOOR, LOOSE)


def test_factor_refuses_the_below_floor_input(tmp_path, capsys):
    path = tmp_path / "below.json"
    path.write_text(document(BELOW_FLOOR))
    assert main(["factor", str(path), "--tol", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"not multiplicative ({REASON})\n"


def test_norm_reports_the_below_floor_reason(tmp_path, capsys):
    path = tmp_path / "below.json"
    path.write_text(document(BELOW_FLOOR))
    assert main(["norm", str(path), "--tol", "2"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == f"schur_map_norm: n/a ({REASON})"
    assert err == ""


def test_zero_map():
    zero = np.zeros((3, 3))
    assert check_cocycle(zero) == (False, 1.0, (1, 1, None))
    with pytest.raises(PreconditionError, match="zero Schur map"):
        certify_multiplicative(zero)
    with pytest.raises(PreconditionError, match=r"worst deviation 1\.000e\+00$"):
        certify_star_multiplicative(zero)
    # at rel >= 1 the zero map has a unit diagonal to tolerance; the star
    # battery then refuses it as the zero map
    with pytest.raises(PreconditionError, match="zero Schur map"):
        certify_star_multiplicative(zero, Tolerance(rel=2))


def test_check_json_reports_both_batteries_inapplicable_on_the_zero_map(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(document(np.zeros((3, 3))))
    assert main(["check", str(path), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["multiplicative"]["applicable"] is False
    assert report["star"]["applicable"] is False
    assert report["star"]["reason"].endswith("worst deviation 1.000e+00")


def test_every_call_on_one_matrix_shares_one_ratio_test(monkeypatch):
    calls = {"_pivot": 0}
    splits = []
    pivot, init = multiplicative._pivot, multiplicative._Split.__init__

    def spy_pivot(*args):
        calls["_pivot"] += 1
        return pivot(*args)

    def spy_init(self, *args):
        splits.append(self)
        init(self, *args)

    monkeypatch.setattr(multiplicative, "_pivot", spy_pivot)
    monkeypatch.setattr(multiplicative._Split, "__init__", spy_init)
    m = ComplexMatrix(build_from_scaling(np.exp(1j * np.arange(6))).data)

    factor_scaling(m)
    assert "forms" not in vars(multiplicative._last_facts)  # factor reads no form
    schur_map_norm(m)
    assert check_cocycle(m).passed
    assert certify_multiplicative(m).verdict
    assert certify_star_multiplicative(m).verdict
    assert calls["_pivot"] == 1
    assert len(splits) == 2  # A's, and its Schur inverse's
    # no split holds an array of its own: |E| stays inside the ratio test
    for split in splits:
        for value in vars(split).values():
            if isinstance(value, np.ndarray):
                assert np.shares_memory(value, split.x)
    assert np.shares_memory(splits[0].x, m.data)


def test_factor_then_norm_on_one_array_run_one_ratio_test(monkeypatch):
    # each call wraps the array in a new ComplexMatrix; equal bits share the facts
    calls = []
    ratio_test = multiplicative._ratio_test

    def spy(*args):
        calls.append(args[0].shape)
        return ratio_test(*args)

    monkeypatch.setattr(multiplicative, "_ratio_test", spy)
    a = build_from_scaling(np.exp(np.linspace(-1, 1, 5) + 1j * np.arange(5))).data.copy()
    factor_scaling(a)
    schur_map_norm(a)
    assert calls == [(5, 5)]
    schur_map_norm(a.conj())  # other bits: a ratio test of its own
    assert calls == [(5, 5), (5, 5)]


def base_matrix(kind: str, n: int, seed: int) -> np.ndarray:
    """A multiplicative input: unimodular, of mixed modulus, real (every
    imaginary part +0.0), or one of those with an entry perturbed."""
    rng = np.random.default_rng(seed)
    if kind == "real":
        f = np.exp(rng.uniform(-1, 1, n)) * rng.choice([-1.0, 1.0], n)
        return np.outer(f, 1 / f).astype(complex)
    f = np.exp(rng.uniform(-1, 1, n) * (kind != "unimodular") + 2j * np.pi * rng.random(n))
    a = np.outer(f, 1 / f)
    np.fill_diagonal(a, 1.0)
    if kind == "perturbed" and n > 1:
        a[0, n - 1] *= 1 + 1e-3
    return a


def near_twin(a: np.ndarray, twin: str, i: int, j: int) -> np.ndarray:
    """A copy of ``a``, bitwise equal or one bit pattern away at (i, j)."""
    b = a.copy()
    if twin == "zero_sign":
        b[i, j] = complex(b[i, j].real, -b[i, j].imag)  # a real input's +0.0 becomes -0.0
    elif twin == "ulp":
        b[i, j] = complex(np.nextafter(b[i, j].real, math.inf), b[i, j].imag)
    return b


def outcome(call: str, a):
    """What ``call`` returns on ``a``, down to the bits: verdicts, residuals,
    witness and the scaling's bytes, or the error it raises."""
    try:
        if call == "certify":
            cert = certify_multiplicative(a)
            scaling = None if cert.scaling is None else cert.scaling.values.tobytes()
            conditions = [(k, c.passed, repr(c.residual)) for k, c in cert.conditions.items()]
            return cert.verdict, cert.inconsistent, cert.witness, conditions, scaling
        if call == "star":
            cert = certify_star_multiplicative(a)
            return cert.verdict, [(k, c.passed, repr(c.residual)) for k, c in cert.conditions.items()]
        f = factor_scaling(a)
        return f.values.tobytes(), repr(schur_map_norm(a)), repr(check_cocycle(a))
    except (NotMultiplicativeError, PreconditionError, ZeroEntryError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["unimodular", "mixed", "real", "perturbed"]),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    twin=st.sampled_from(["equal", "zero_sign", "ulp", "in_place"]),
    call=st.sampled_from(["certify", "star", "factor"]),
    first=st.sampled_from(["certify", "star", "factor"]),
    at=st.tuples(st.integers(0, 5), st.integers(0, 5)),
)
def test_sharing_never_changes_a_result(kind, n, seed, twin, call, first, at):
    # ``call`` on b right after ``first`` on a gives what a fresh call on b gives
    a = base_matrix(kind if twin != "zero_sign" else "real", n, seed)
    i, j = at[0] % n, at[1] % n
    outcome(first, a)
    if twin == "in_place":
        a[i, j] = complex(np.nextafter(a[i, j].real, math.inf), a[i, j].imag)
        b = a
    else:
        b = near_twin(a, twin, i, j)
    shared = outcome(call, b)
    multiplicative._last_facts = None
    assert shared == outcome(call, b)
