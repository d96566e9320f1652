import numpy as np
import pytest

from schurlab import (
    PreconditionError,
    Tolerance,
    build_from_scaling,
    certify_multiplicative,
    certify_star_multiplicative,
    identity,
    all_ones,
    is_positive_semidefinite,
    is_unimodular,
    operator_norm,
    projection_check,
    schur_map_norm,
)
from tests.conftest import random_scaling_values


class TestPositiveSemidefinite:
    def test_identity(self):
        assert is_positive_semidefinite(identity(3))

    def test_unit_circle(self, unit_circle_2x2):
        assert is_positive_semidefinite(unit_circle_2x2)

    def test_nonhermitian_rejected(self):
        assert not is_positive_semidefinite([[0, 1], [0, 0]])

    def test_indefinite_rejected(self):
        assert not is_positive_semidefinite([[1, 2], [2, 1]])

    def test_zero_matrix(self):
        assert is_positive_semidefinite(np.zeros((2, 2)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a, psd", [
        ([[1e308, 1e308], [1e308, 1e308]], True),  # eigenvalues 0 and 2e308
        ([[1e308, 1e308j], [-1e308j, 1e308]], True),
        ([[1.5e308, 1.5e308], [1.5e308, -1.5e308]], False),  # eigenvalues +-2.1e308
    ])
    def test_entries_whose_hermitian_part_overflows(self, a, psd):
        # (A + A*)/2 and ||A||_2 overflow, so the test is taken on A * 2^-1000
        assert is_positive_semidefinite(a) == psd


class TestUnimodular:
    def test_unit_circle(self, unit_circle_2x2):
        assert is_unimodular(unit_circle_2x2)

    def test_all_ones(self):
        assert is_unimodular(all_ones(3))

    def test_modulus_spread(self):
        assert not is_unimodular([[1, 2], [0.5, 1]])


class TestProjectionCheck:
    def test_all_ones_over_n(self):
        assert projection_check(all_ones(4))

    def test_unit_circle(self, unit_circle_2x2):
        # direct oracle: A^2 = 2A and A Hermitian
        a = unit_circle_2x2.data
        assert np.allclose(a @ a, 2 * a)
        assert np.allclose(a, a.conj().T)
        assert projection_check(unit_circle_2x2)

    def test_idempotent_but_not_hermitian(self):
        # A from f = (1, 2): (A/2)^2 = A/2 holds, (A/2)* differs
        a = build_from_scaling([1, 2]).data
        p = a / 2
        assert np.allclose(p @ p, p)
        assert not np.allclose(p, p.conj().T)
        assert not projection_check(a)


class TestCertifyStar:
    def test_unit_circle_all_six(self, unit_circle_2x2):
        cert = certify_star_multiplicative(unit_circle_2x2)
        assert cert.verdict
        assert all(r.passed for r in cert.conditions.values())
        assert max(r.residual for r in cert.conditions.values()) <= 1e-12

    def test_multiplicative_but_not_star(self):
        a = [[1, 0.5], [2, 1]]
        assert certify_multiplicative(a).verdict
        cert = certify_star_multiplicative(a)
        assert not cert.verdict
        assert not cert.conditions["rank_one_unimodular_unit_diag"].passed
        assert not cert.conditions["star_and_multiplicative"].passed

    def test_all_ones(self):
        assert certify_star_multiplicative(all_ones(3)).verdict

    def test_requires_unit_diagonal(self):
        with pytest.raises(PreconditionError):
            certify_star_multiplicative([[2, 1], [1, 1]])

    def test_zero_entry_fails_without_crashing(self):
        cert = certify_star_multiplicative([[1, 1], [0, 1]])
        assert not cert.verdict
        assert not cert.conditions["schur_pair_positive"].passed

    def test_pair_positivity_past_overflow(self):
        # the Hermitian part of A overflows; eigvalsh on it raised LinAlgError
        cert = certify_star_multiplicative(
            [[1, 1.5e308, 1e308], [1.5e308, 1, 1e308], [1e308, 1e308, 1]]
        )
        pair = cert.conditions["schur_pair_positive"]
        assert not cert.verdict and not pair.passed
        assert 0.5 < pair.residual <= 1.0  # lambda_min(A) / ||A||_2, about -0.64

    def test_condition_labels_fixed(self, unit_circle_2x2):
        cert = certify_star_multiplicative(unit_circle_2x2)
        assert tuple(cert.conditions) == (
            "star_and_multiplicative",
            "cp_isomorphism_proxy",
            "rank_one_normal_unit_diag",
            "rank_one_unimodular_unit_diag",
            "selfadjoint_spectrum_norm",
            "schur_pair_positive",
        )


class TestStarInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_unimodular_scalings_pass_unanimously(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        a = build_from_scaling(random_scaling_values(rng, n, unimodular=True))
        cert = certify_star_multiplicative(a)
        assert cert.verdict
        assert abs(operator_norm(a) - n) <= 1e-8 * n

    @pytest.mark.parametrize("seed", range(8))
    def test_modulus_spread_fails_together(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 9))
        values = random_scaling_values(rng, n, lo=1.5, hi=2.5)
        values[0] = 1.0  # guarantees a genuine modulus spread
        a = build_from_scaling(values)
        loose = Tolerance(rel=1e-8)
        herm = operator_norm(a.data - a.conj_transpose().data) <= loose.threshold(
            operator_norm(a)
        )
        quartet = {
            "star": herm,
            "norm_n": abs(operator_norm(a) - n) <= loose.threshold(n),
            "projection": projection_check(a, loose),
            "map_norm_1": abs(schur_map_norm(a) - 1) <= loose.threshold(1.0),
        }
        assert len(set(quartet.values())) == 1
        assert not quartet["star"]
        assert not certify_star_multiplicative(a).verdict
        assert certify_multiplicative(a).verdict
