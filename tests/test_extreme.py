import warnings

import numpy as np
import pytest

from schurlab import (
    all_ones,
    build_from_scaling,
    correlation_check,
    enumerate_real_positive,
    identity,
    isometry_check,
    projection_check,
    torus_param,
)
from tests.conftest import random_scaling_values


class TestCorrelationCheck:
    def test_unit_circle_is_extreme(self, unit_circle_2x2):
        verdict = correlation_check(unit_circle_2x2)
        assert verdict.is_correlation
        assert verdict.rank == 1
        assert verdict.rank_one_extreme

    def test_identity_is_correlation_but_not_extreme_by_rank(self):
        verdict = correlation_check(identity(3))
        assert verdict.is_correlation
        assert verdict.rank == 3
        assert not verdict.rank_one_extreme

    def test_indefinite_symmetric_rejected(self):
        verdict = correlation_check([[1, 2], [2, 1]])
        assert not verdict.is_correlation
        assert not verdict.rank_one_extreme

    def test_rank_one_without_unit_diagonal_rejected(self):
        verdict = correlation_check(np.full((3, 3), 0.5))
        assert verdict.rank == 1
        assert not verdict.is_correlation

    def test_rank_of_a_matrix_whose_norm_overflows(self):
        verdict = correlation_check(np.full((2, 2), 1e308))
        assert verdict.rank == 1
        assert not verdict.is_correlation

    def test_overflowing_norm_is_no_correlation_matrix(self):
        # unit diagonal and rank one, but ||A||_2 overflows: the PSD
        # threshold would be inf, and a correlation matrix has ||A||_2 <= n
        verdict = correlation_check(build_from_scaling([1e154, 1e154, 1e-154, 1e-154]))
        assert verdict.rank == 1
        assert not verdict.is_correlation
        assert not verdict.rank_one_extreme


class TestIsometryCheck:
    def test_identity_unitary(self):
        result = isometry_check(identity(4))
        assert result.isometry and result.coisometry
        assert result.scalar_multiple == pytest.approx(1.0)

    def test_permutation_unitary(self):
        result = isometry_check([[0, 1], [1, 0]])
        assert result.isometry and result.coisometry

    def test_shear_is_neither(self):
        a = np.array([[1, 1], [0, 1]], dtype=complex)
        gram = a.conj().T @ a
        assert np.allclose(gram, [[1, 1], [1, 2]])  # not a scalar matrix
        result = isometry_check(a)
        assert not result.isometry and not result.coisometry
        assert result.scalar_multiple is None

    def test_rectangular_isometry(self):
        # two orthonormal columns in C^3: isometry but not co-isometry
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 2)))
        result = isometry_check(q)
        assert result.isometry
        assert not result.coisometry
        assert result.scalar_multiple == pytest.approx(1.0)

    def test_scaled_unitary_detected(self):
        result = isometry_check(3 * identity(4).data)
        assert not result.isometry
        assert result.scalar_multiple == pytest.approx(3.0)

    @pytest.mark.parametrize("a", [[[1e200, 0], [0, 1]], [[1, 1e300], [1e-300, 1]]])
    def test_overflowing_gram_fails_closed(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = isometry_check(a)
        assert result == (False, False, None)


class TestExtremeFamilies:
    def test_every_enumerated_member_is_extreme(self):
        for n in (1, 2, 3, 4, 5):
            for m in enumerate_real_positive(n):
                assert correlation_check(m).rank_one_extreme

    @pytest.mark.parametrize("seed", range(6))
    def test_torus_images_are_extreme(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        a = torus_param(np.exp(2j * np.pi * rng.random(n - 1)))
        assert correlation_check(a).rank_one_extreme

    @pytest.mark.parametrize("seed", range(6))
    def test_midpoints_of_distinct_extremes_are_not_extreme(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 7))
        a = torus_param(np.exp(2j * np.pi * rng.random(n - 1)))
        b = torus_param(np.exp(2j * np.pi * rng.random(n - 1)))
        if np.abs(a.data - b.data).max() < 1e-6:
            pytest.skip("degenerate draw: coincident extreme points")
        mid = correlation_check((a.data + b.data) / 2)
        assert mid.rank >= 2
        assert not mid.rank_one_extreme

    @pytest.mark.parametrize("seed", range(4))
    def test_certified_coefficients_give_projections(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        a = build_from_scaling(random_scaling_values(rng, n, unimodular=True))
        assert projection_check(a)
        assert correlation_check(a).rank_one_extreme
