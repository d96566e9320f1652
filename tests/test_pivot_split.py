"""One pivot split per matrix.

The ratio test searches for the pivot column once and builds one ``_Split``
of A = u v^T + E; the scaling, the c = 0 form and the slice rejection all
read that split. The star battery builds one more split, of the Schur
inverse, for that inverse's c = 0 form.
"""

import math

import numpy as np
import pytest

from schurlab import (
    NotMultiplicativeError,
    build_from_scaling,
    certify_multiplicative,
    certify_star_multiplicative,
    check_cocycle,
    cli,
    factor_scaling,
    group_product,
    io,
    multiplicative,
    schur_map_norm,
    table_generator,
    toeplitz_generator,
    unboundedness_witness,
)


def count_splits(monkeypatch) -> dict:
    """Count the ``_pivot`` searches and ``_Split`` constructions from here on."""
    calls = {"_pivot": 0, "_Split": 0}
    pivot = multiplicative._pivot
    init = multiplicative._Split.__init__

    def spy_pivot(*args):
        calls["_pivot"] += 1
        return pivot(*args)

    def spy_init(self, *args):
        calls["_Split"] += 1
        init(self, *args)

    monkeypatch.setattr(multiplicative, "_pivot", spy_pivot)
    monkeypatch.setattr(multiplicative._Split, "__init__", spy_init)
    return calls


def accepted(n: int = 6) -> np.ndarray:
    return build_from_scaling(np.exp(1j * np.arange(n))).data.copy()


def rejected(n: int = 6) -> np.ndarray:
    a = accepted(n)
    a[1, 3] *= 1 + 1e-3
    return a


def expect_refusal(call):
    def run(a):
        with pytest.raises(NotMultiplicativeError):
            call(a)

    return run


CALLS = {
    "check_cocycle": (check_cocycle, check_cocycle),
    "factor_scaling": (factor_scaling, expect_refusal(factor_scaling)),
    "schur_map_norm": (schur_map_norm, expect_refusal(schur_map_norm)),
    "certify_multiplicative": (certify_multiplicative, certify_multiplicative),
    "unboundedness_witness": (
        lambda a: unboundedness_witness(table_generator(a), a.shape[0]),
        expect_refusal(lambda a: unboundedness_witness(table_generator(a), a.shape[0])),
    ),
}


@pytest.mark.parametrize("name", CALLS)
@pytest.mark.parametrize("verdict", ["accepted", "rejected"])
def test_one_pivot_search_and_one_split_per_matrix(monkeypatch, name, verdict):
    run = CALLS[name][verdict == "rejected"]
    a = accepted() if verdict == "accepted" else rejected()
    calls = count_splits(monkeypatch)
    run(a)
    assert calls == {"_pivot": 1, "_Split": 1}
    run(a.copy())  # equal content shares the split
    assert calls == {"_pivot": 1, "_Split": 1}
    run(a.conj())  # distinct content takes its own
    assert calls == {"_pivot": 2, "_Split": 2}


def test_star_battery_splits_a_and_its_schur_inverse_once(monkeypatch):
    calls = count_splits(monkeypatch)
    assert certify_star_multiplicative(accepted()).verdict
    assert calls == {"_pivot": 1, "_Split": 2}
    calls.update(_pivot=0, _Split=0)
    assert not certify_star_multiplicative(rejected()).verdict
    assert calls == {"_pivot": 1, "_Split": 1}  # no bound is read on a rejection


def test_group_product_splits_each_factor_once(monkeypatch):
    calls = count_splits(monkeypatch)
    group_product(accepted(), accepted())
    assert calls == {"_pivot": 1, "_Split": 1}  # equal factors share one split
    calls.update(_pivot=0, _Split=0)
    group_product(accepted().conj(), accepted())
    assert calls == {"_pivot": 2, "_Split": 2}  # distinct factors: one split each


def test_group_product_reads_no_scaling(monkeypatch):
    # the product needs the rule's verdict only, not f
    def refuse(self):
        raise AssertionError("group_product read f off a split")

    monkeypatch.setattr(multiplicative._Split, "scaling", refuse)
    a = accepted()
    assert np.array_equal(group_product(a, a.conj()).data, a * a.conj())
    with pytest.raises(NotMultiplicativeError, match=r"^right factor fails the ratio identity"):
        group_product(a, rejected())


def test_check_star_json_splits_once(monkeypatch, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(io.dumps_document(io.matrix_to_document(accepted())))
    calls = count_splits(monkeypatch)
    assert cli.main(["check", str(path), "--star", "--json"]) == 0
    capsys.readouterr()
    assert calls == {"_pivot": 1, "_Split": 2}


def test_witness_on_a_toeplitz_corner_splits_once(monkeypatch):
    calls = count_splits(monkeypatch)
    unboundedness_witness(toeplitz_generator(1j), 5)
    assert calls == {"_pivot": 1, "_Split": 1}


@pytest.mark.parametrize("n", [3, 64])
def test_kept_facts_hold_no_residual_array(n):
    # |E| lives only while the ratio test runs: the split kept for the
    # batteries holds views of the matrix and no n-by-n array of its own
    a = accepted(n)
    certify_multiplicative(a)
    facts = multiplicative._last_facts
    split = facts.split
    assert split is not None and math.isfinite(split.bound)  # accepted through it
    assert not hasattr(split, "mod")
    for value in vars(split).values():
        if isinstance(value, np.ndarray):
            assert np.shares_memory(value, facts.m.data)


@pytest.mark.parametrize("n", [1, 3, 64])
@pytest.mark.parametrize("spread", [0.0, 1.0, 150.0], ids=["unimodular", "mixed", "wide"])
def test_split_scaling_is_the_checked_scaling_bit_for_bit(n, spread):
    # the split builds its scaling without the public constructor's copy and
    # checks: the values are bitwise the checked ones, and read-only
    rng = np.random.default_rng(n)
    f = np.exp(rng.uniform(-spread, spread, n) + 2j * np.pi * rng.random(n))
    a = np.outer(f, 1 / f)
    split = multiplicative._split(a, multiplicative._pivot(a, multiplicative.DEFAULT_TOL))[0]
    checked = multiplicative.ScalingVector(split.u / split.u[0]).values
    if not (np.isfinite(checked).all() and (checked != 0).all()):
        pytest.skip("the quotient left binary64's range")
    values = split.scaling().values
    assert values.dtype == checked.dtype and values.shape == checked.shape
    assert values.tobytes() == checked.tobytes()
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[0] = 2.0


def test_split_scaling_refuses_a_quotient_out_of_range():
    # u = (2^-1000, 2^600): u_2 / u_1 overflows, and the public constructor refuses it
    u = np.array([2.0**-1000, 2.0**600], dtype=complex)
    with np.errstate(over="ignore"):  # the split's norm bounds overflow
        split = multiplicative._split(np.outer(u, np.ones(2)), 1)[0]
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        split.scaling()
