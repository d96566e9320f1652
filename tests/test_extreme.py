import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlab import (
    all_ones,
    build_from_scaling,
    correlation_check,
    enumerate_real_positive,
    extreme,
    identity,
    isometry_check,
    projection_check,
    torus_param,
)
from schurlab.core import DEFAULT_TOL, _spectral_norm
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


def _gram_reference(a, tol=DEFAULT_TOL):
    """isometry_check as two Gram products, each tested by the SVD of its
    deviation from a scalar matrix."""
    data = np.asarray(a, dtype=np.complex128)
    rows, cols = data.shape

    def scalar(gram):
        k = gram.shape[0]
        c2 = float(np.trace(gram).real) / k
        if not -tol.threshold(1.0) <= c2 < np.inf:
            return None
        if _spectral_norm(gram - c2 * np.eye(k)) <= tol.threshold(max(abs(c2), 1.0)):
            return float(np.sqrt(max(c2, 0.0)))
        return None

    with np.errstate(all="ignore"):
        right, left = data.conj().T @ data, data @ data.conj().T
        iso = _spectral_norm(right - np.eye(cols)) <= tol.threshold(1.0)
        coiso = _spectral_norm(left - np.eye(rows)) <= tol.threshold(1.0)
        c = scalar(right)
        return iso, coiso, scalar(left) if c is None else c


@st.composite
def _isometry_inputs(draw):
    """(A, kind): c Q for Q with orthonormal columns or rows, squared singular
    values moved off c^2 by 0.5 or 2 thresholds, or entries near 1e154 or
    1e308."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    k = min(rows, cols)
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, k)) + 1j * rng.standard_normal((cols, k)))
    kind = draw(st.sampled_from(["scaled", "near", "huge"]))
    c = draw(st.sampled_from([1.0, draw(st.floats(0.5, 2.0))]))
    s2 = np.full(k, c * c)
    if kind == "near":  # one threshold either side of 1e-10 on the worst s_i^2
        d = draw(st.sampled_from([0.5, 2.0])) * DEFAULT_TOL.threshold(max(c * c, 1.0))
        s2 = s2 + d * rng.uniform(-1.0, 1.0, k)
        s2[rng.integers(k)] = c * c + d * draw(st.sampled_from([-1.0, 1.0]))
    a = (u * np.sqrt(s2)) @ v.conj().T
    if kind == "huge":
        a = a / np.abs(a).max() * draw(st.sampled_from([1e154, 3e154, 1e307, 1e308]))
    return a, kind


class TestIsometryFromOneSvd:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_isometry_inputs())
    def test_matches_the_gram_matrix_reference(self, case):
        a, kind = case
        iso, coiso, scalar = isometry_check(a)
        want_iso, want_coiso, want_scalar = _gram_reference(a)
        assert (iso, coiso) == (want_iso, want_coiso)
        assert (scalar is None) == (want_scalar is None)
        if scalar is not None:
            assert scalar == pytest.approx(want_scalar, rel=1e-12)
        if kind == "huge":  # fails closed, and no scale survives an overflowed ||A||_F^2
            assert not iso and not coiso
            if np.abs(a).max() > 1e155:
                assert scalar is None

    def test_one_isometry_check_runs_one_svd(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def spy(x, *args, **kwargs):
            calls.append(np.shape(x))
            return svd(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        a = np.random.default_rng(3).standard_normal((5, 3))
        isometry_check(a)
        assert calls == [(5, 3)]

    def test_a_non_hermitian_input_runs_no_eigensolve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh ran on a non-Hermitian input")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        verdict = correlation_check([[1, 2], [0, 1]])
        assert not verdict.is_correlation and not verdict.rank_one_extreme
        # max|a_ij - conj(a_ji)| = 2 decides it: no SVD of A - A* either
        monkeypatch.setattr(extreme, "_skew_norm", refuse)
        assert correlation_check([[1, 2], [0, 1]]) == verdict


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
