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
    all_ones,
    build_from_scaling,
    certify_multiplicative,
    check_cocycle,
    eigenvalues,
    factor_scaling,
    group_product,
    multiset_distance,
    numerical_range_samples,
    operator_norm,
    schur_inverse,
    schur_map_norm,
    schur_product,
)
from tests.conftest import random_scaling_values


class TestCheckCocycle:
    def test_unit_circle_passes_exactly(self, unit_circle_2x2):
        result = check_cocycle(unit_circle_2x2)
        assert result.passed
        assert result.residual == 0.0
        assert result.witness is None

    def test_all_ones_passes(self):
        assert check_cocycle(all_ones(3)).passed

    def test_diagonal_violation_witness(self):
        result = check_cocycle([[1, 1], [1, -1]])
        assert not result.passed
        assert result.witness == (2, 2, None)
        assert result.residual == pytest.approx(2.0)

    def test_off_diagonal_violation_witness(self):
        a = build_from_scaling([1, 2, 4]).data.copy()
        a[0, 2] *= 1.5
        result = check_cocycle(a)
        assert not result.passed
        i, j, k = result.witness
        assert k is not None
        # the witness names the maximizer of |a_ij - a_ik a_kj|
        assert abs(a[i - 1, j - 1] - a[i - 1, k - 1] * a[k - 1, j - 1]) == pytest.approx(
            result.residual
        )


class TestFactorScaling:
    def test_real_reciprocal_pair(self):
        f = factor_scaling([[1, 0.5], [2, 1]])
        assert np.allclose(f.values, [1, 2])

    def test_unit_circle(self, unit_circle_2x2):
        f = factor_scaling(unit_circle_2x2)
        assert np.allclose(f.values, [1, -1j])

    def test_all_ones(self):
        f = factor_scaling(all_ones(4))
        assert np.allclose(f.values, np.ones(4))

    def test_not_multiplicative_raises(self):
        with pytest.raises(NotMultiplicativeError):
            factor_scaling([[1, 1], [1, -1]])

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_roundtrip_reproduces_ratios(self, n):
        rng = np.random.default_rng(40 + n)
        f = random_scaling_values(rng, n)
        g = factor_scaling(build_from_scaling(f)).values
        want = np.outer(f, 1 / f)
        got = np.outer(g, 1 / g)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


class TestBuildFromScaling:
    def test_constant_scaling_gives_ones(self):
        assert build_from_scaling([1, 1, 1]) == all_ones(3)

    def test_unit_circle_reconstruction(self, unit_circle_2x2):
        assert np.allclose(build_from_scaling([1, -1j]).data, unit_circle_2x2.data)

    def test_direct_division(self):
        assert build_from_scaling([1, 2]) == ComplexMatrix([[1, 0.5], [2, 1]])

    def test_zero_value_rejected(self):
        with pytest.raises(ZeroEntryError):
            build_from_scaling([1, 0, 2])

    def test_result_passes_cocycle(self):
        rng = np.random.default_rng(77)
        f = random_scaling_values(rng, 8)
        assert check_cocycle(build_from_scaling(f)).passed


class TestCertifyMultiplicative:
    def test_unit_circle_all_conditions(self, unit_circle_2x2):
        cert = certify_multiplicative(unit_circle_2x2)
        assert cert.verdict
        assert all(r.passed for r in cert.conditions.values())
        assert cert.witness is None
        assert cert.scaling is not None
        assert not cert.inconsistent

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_all_ones_is_identity_map(self, n):
        assert certify_multiplicative(all_ones(n)).verdict

    def test_zero_entry_fails_everything(self):
        cert = certify_multiplicative([[1, 1], [0, 1]])
        assert not cert.verdict
        assert not cert.conditions["cocycle"].passed
        assert not cert.conditions["rank_one"].passed
        comp = cert.composite_conditions()
        assert not any(comp.values())
        assert not cert.inconsistent

    def test_zero_matrix_rejected(self):
        with pytest.raises(PreconditionError):
            certify_multiplicative(np.zeros((2, 2)))

    def test_condition_labels_fixed(self, unit_circle_2x2):
        cert = certify_multiplicative(unit_circle_2x2)
        assert tuple(cert.conditions) == (
            "cocycle",
            "unit_diagonal",
            "rank_one",
            "spectrum_0_n",
            "product_sampling",
        )

    def test_reproducible_with_seed(self):
        rng = np.random.default_rng(9)
        a = build_from_scaling(random_scaling_values(rng, 5))
        c1 = certify_multiplicative(a, trials=6, seed=123)
        c2 = certify_multiplicative(a, trials=6, seed=123)
        assert c1.conditions["product_sampling"].residual == c2.conditions["product_sampling"].residual

    def test_perturbed_instance_fails_unanimously(self):
        rng = np.random.default_rng(21)
        a = build_from_scaling(random_scaling_values(rng, 6)).data.copy()
        a[1, 3] *= 1 + 1e-3
        cert = certify_multiplicative(a)
        assert not cert.verdict
        assert not any(cert.composite_conditions().values())
        assert not cert.inconsistent

    def test_to_dict_is_json_ready(self, unit_circle_2x2):
        import json

        payload = certify_multiplicative(unit_circle_2x2).to_dict()
        text = json.dumps(payload)
        assert json.loads(text)["verdict"] is True


class TestSchurMapNorm:
    def test_unit_circle_is_isometric(self, unit_circle_2x2):
        assert schur_map_norm(unit_circle_2x2) == pytest.approx(1.0, abs=1e-14)

    def test_modulus_two_scaling_brute_force(self):
        # independent oracle: maximize ||diag(f) B diag(f)^-1|| over random
        # unit-norm B, plus the matrix units where the supremum is attained
        f = np.array([1.0, 2.0])
        a = build_from_scaling(f)
        lam = np.diag(f)
        lam_inv = np.diag(1 / f)
        rng = np.random.default_rng(0)
        best = 0.0
        for _ in range(10_000):
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b /= operator_norm(b)
            best = max(best, operator_norm(lam @ b @ lam_inv))
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2))
                e[i, j] = 1.0
                best = max(best, operator_norm(lam @ e @ lam_inv))
        assert best == pytest.approx(2.0, abs=1e-9)
        assert schur_map_norm(a) == pytest.approx(best, abs=1e-9)

    def test_identity_map(self):
        assert schur_map_norm(all_ones(5)) == 1.0

    def test_requires_multiplicative(self):
        with pytest.raises(NotMultiplicativeError):
            schur_map_norm([[1, 1], [1, -1]])


class TestNumericalRangeSamples:
    def test_diagonal_01_support_at_zero_angle(self):
        samples = numerical_range_samples(np.diag([0.0, 1.0]), 8)
        angle, support = samples[0]
        assert angle == 0.0
        assert support == pytest.approx(1.0, abs=1e-14)

    def test_zero_matrix_all_zero(self):
        samples = numerical_range_samples(np.zeros((3, 3)), 16)
        assert max(abs(s) for _, s in samples) == 0.0

    def test_hermitian_multiplicative_preserves_supports(self):
        # direct comparison at 64 angles: the map is a unitary similarity
        rng = np.random.default_rng(14)
        f = np.exp(2j * np.pi * rng.random(3))
        a = build_from_scaling(f)
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        before = numerical_range_samples(b, 64)
        after = numerical_range_samples(schur_product(a, b), 64)
        assert max(abs(x[1] - y[1]) for x, y in zip(before, after)) < 1e-8


class TestMultiplicativeConsequences:
    @pytest.mark.parametrize("seed", range(6))
    def test_adjoint_equals_conjugate_reciprocal(self, seed):
        rng = np.random.default_rng(seed)
        a = build_from_scaling(random_scaling_values(rng, 6))
        lhs = a.conj_transpose().data
        rhs = schur_inverse(a).data.conj()
        assert np.abs(lhs - rhs).max() <= 1e-10 * operator_norm(a)

    @pytest.mark.parametrize("seed", range(6))
    def test_norm_at_least_n(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        a = build_from_scaling(random_scaling_values(rng, n))
        assert operator_norm(a) >= n - 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_hermitian_case_norm_equals_n(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        a = build_from_scaling(random_scaling_values(rng, n, unimodular=True))
        assert abs(operator_norm(a) - n) <= 1e-8 * n

    @pytest.mark.parametrize("seed", range(4))
    def test_spectrum_preserved_by_multiplicative_maps(self, seed):
        rng = np.random.default_rng(seed)
        n = 7
        a = build_from_scaling(random_scaling_values(rng, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        dist = multiset_distance(eigenvalues(b), eigenvalues(schur_product(a, b)))
        assert dist < 1e-7

    def test_diagonalizable_scaling_diagonalizes(self):
        # S_A(B) = diag(f) B diag(f)^{-1} reproduces A o B entry by entry
        rng = np.random.default_rng(2)
        f = random_scaling_values(rng, 4)
        a = build_from_scaling(f)
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        via_similarity = np.diag(f) @ b @ np.diag(1 / f)
        assert np.allclose(schur_product(a, b).data, via_similarity, atol=1e-12)


def test_tolerance_scales_cocycle_pass():
    # magnitude invariance: scaling all entries leaves pass/fail unchanged
    base = build_from_scaling([1, 2, 4]).data
    noisy = base * (1 + 3e-11)  # relative wobble within tolerance
    assert check_cocycle(noisy, Tolerance(rel=1e-9, abs=1e-15)).passed
    assert not check_cocycle(noisy, Tolerance(rel=1e-13, abs=1e-16)).passed


def test_each_call_runs_the_ratio_scan_once(monkeypatch):
    from schurlab import (
        certify_star_multiplicative,
        multiplicative,
        toeplitz_generator,
        unboundedness_witness,
    )

    calls = []
    scan = multiplicative._cocycle_parts

    def spy(data):
        calls.append(data.shape)
        return scan(data)

    monkeypatch.setattr(multiplicative, "_cocycle_parts", spy)
    a = build_from_scaling(np.exp(1j * np.arange(5)))
    for run in (
        lambda: certify_multiplicative(a),
        lambda: certify_star_multiplicative(a),
        lambda: unboundedness_witness(toeplitz_generator(1j), 5),
    ):
        calls.clear()
        run()
        assert calls == [(5, 5)]


def test_overflowed_ratio_residual_fails():
    # a_12 * a_21 = 1e400 overflows; the old scan compared inf against an
    # infinite threshold (max|a|^2) and passed
    a = [[1, 1e200], [1e200, 1]]
    result = check_cocycle(a)
    assert not result.passed
    assert result.residual == np.inf
    assert not certify_multiplicative(a).conditions["cocycle"].passed
    with pytest.raises(NotMultiplicativeError):
        schur_map_norm(a)


def off_unit_diagonal(f, k, dev):
    """a_ij = f(i)/f(j) with a_kk moved to 1 + dev."""
    a = build_from_scaling(f).data.copy()
    a[k, k] += dev
    return a


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.floats(-6, 6), st.floats(0, 6.3)), min_size=1, max_size=5),
    st.integers(0, 4),
    st.floats(-14, -2),
)
def test_check_cocycle_is_the_certificate_ratio_test(polar, k, log_dev):
    # one rule: the ratio identity against tol*max|a|^2 and the diagonal
    # against tol, both required, wherever the ratio test is applied
    f = [10.0**r * np.exp(1j * t) for r, t in polar]
    a = off_unit_diagonal(f, k % len(f), 10.0**log_dev)
    conditions = certify_multiplicative(a).conditions
    expected = conditions["cocycle"].passed and conditions["unit_diagonal"].passed
    assert check_cocycle(a).passed == expected


def test_diagonal_off_by_more_than_tol_is_not_multiplicative():
    # the ratio residual 1e-8 passes its threshold 1e-10 * 1000^2; the
    # diagonal deviation 1e-8 fails its threshold 1e-10
    a = off_unit_diagonal([1.0, 1000.0, 1.0], 0, 1e-8)
    result = check_cocycle(a)
    assert not result.passed
    assert result.witness is not None
    for call in (factor_scaling, schur_map_norm, lambda m: group_product(m, m)):
        with pytest.raises(NotMultiplicativeError):
            call(a)
