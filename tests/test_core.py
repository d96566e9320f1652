import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlab import (
    ComplexMatrix,
    DimensionError,
    Tolerance,
    ZeroEntryError,
    all_ones,
    eigenvalues,
    identity,
    matrix_unit,
    multiset_distance,
    numerical_rank,
    operator_norm,
    schur_inverse,
    schur_product,
)
from tests.conftest import random_scaling_values


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.rel == 1e-10
        assert tol.abs == 1e-12

    def test_threshold_scaling(self):
        tol = Tolerance(rel=1e-8, abs=1e-12)
        assert tol.threshold(100.0) == 1e-6
        assert tol.threshold(0.0) == 1e-12

    @pytest.mark.parametrize("rel,abs_", [(-1.0, 1e-12), (0.0, 0.0), (np.nan, 1e-12)])
    def test_rejects_bad_components(self, rel, abs_):
        with pytest.raises(ValueError):
            Tolerance(rel=rel, abs=abs_)


class TestComplexMatrix:
    def test_shape_and_data(self):
        m = ComplexMatrix([[1, 2, 3], [4, 5, 6]])
        assert (m.rows, m.cols) == (2, 3)
        assert not m.is_square
        assert m.data[1, 2] == 6

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ComplexMatrix([[1.0, np.inf], [0.0, 1.0]])
        with pytest.raises(ValueError):
            ComplexMatrix([[complex(0, np.nan)]])

    def test_rejects_empty_and_1d(self):
        with pytest.raises(DimensionError):
            ComplexMatrix(np.zeros((0, 3)))
        with pytest.raises(DimensionError):
            ComplexMatrix([1, 2, 3])

    def test_data_is_readonly(self):
        m = identity(2)
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0

    def test_block_wraps_each_slice_without_a_copy(self):
        block = np.arange(12, dtype=np.complex128).reshape(3, 2, 2)
        members = ComplexMatrix._block(block)
        assert [m.data.tobytes() for m in members] == [x.tobytes() for x in block]
        assert all(np.shares_memory(m.data, block) for m in members)
        assert not block.flags.writeable

    @pytest.mark.parametrize("bad", [np.inf, complex(0, np.nan)])
    def test_block_rejects_a_nonfinite_block(self, bad):
        block = np.ones((4, 3, 3), dtype=np.complex128)
        block[2, 1, 0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            ComplexMatrix._block(block)

    def test_matmul(self):
        a = ComplexMatrix([[1, 1], [0, 1]])
        b = ComplexMatrix([[1, 0], [1, 1]])
        assert (a @ b) == ComplexMatrix([[2, 1], [1, 1]])


class TestSchurProduct:
    def test_ones_is_identity_element(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert schur_product(all_ones(2), b) == ComplexMatrix(b)

    def test_disjoint_matrix_units_vanish(self):
        result = schur_product(matrix_unit(2, 0, 0), matrix_unit(2, 0, 1))
        assert np.all(result.data == 0)

    def test_unit_circle_action(self, unit_circle_2x2):
        b = ComplexMatrix([[2, 3], [5, 7]])
        out = schur_product(unit_circle_2x2, b)
        assert out == ComplexMatrix([[2, 3j], [-5j, 7]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            schur_product(identity(2), identity(3))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_commutative_and_associative(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3))
        ab = schur_product(a, b)
        ba = schur_product(b, a)
        assert np.allclose(ab.data, ba.data, rtol=0, atol=1e-12)
        left = schur_product(ab, c)
        right = schur_product(a, schur_product(b, c))
        assert np.allclose(left.data, right.data, rtol=1e-12, atol=1e-12)


class TestSchurInverse:
    def test_ones(self):
        assert schur_inverse(all_ones(3)) == all_ones(3)

    def test_entrywise_reciprocal(self):
        out = schur_inverse([[1, 2], [0.5, 1]])
        assert out == ComplexMatrix([[1, 0.5], [2, 1]])

    def test_zero_entry_reports_position(self):
        with pytest.raises(ZeroEntryError) as err:
            schur_inverse([[1, 0], [1, 1]])
        assert err.value.position == (1, 2)

    def test_product_with_inverse_is_ones(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0.5, 2, (4, 4)) * np.exp(2j * np.pi * rng.random((4, 4)))
        out = schur_product(a, schur_inverse(a))
        assert np.abs(out.data - 1.0).max() < 1e-12


class TestEigenvalues:
    def test_all_ones_spectrum(self):
        vals = eigenvalues(all_ones(4))
        assert multiset_distance(vals, [4, 0, 0, 0]) < 1e-12

    def test_identity(self):
        vals = eigenvalues(identity(3))
        assert multiset_distance(vals, [1, 1, 1]) < 1e-14

    def test_unit_circle_spectrum(self, unit_circle_2x2):
        vals = eigenvalues(unit_circle_2x2)
        assert multiset_distance(vals, [2, 0]) < 1e-12

    def test_hermitian_inputs_give_real_values(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = g + g.conj().T
        assert np.abs(eigenvalues(h).imag).max() == 0.0

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            eigenvalues(np.ones((2, 3)))

    @pytest.mark.parametrize("n", [2, 5, 9, 16])
    def test_sum_matches_trace(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        vals = eigenvalues(a)
        bound = n * 1e-10 * max(operator_norm(a), 1.0)
        assert abs(vals.sum() - np.trace(a)) < bound


def test_hermitian_part_of_huge_entries_does_not_overflow():
    # (X + X*) / 2 overflowed to NaN eigenvalues; halving first gives the
    # eigenvalues of the exact Hermitian part, the larger one overflowing
    vals = eigenvalues(np.full((2, 2), 1e308))
    assert vals.tolist() == [complex(np.inf, 0.0), 0j]


def test_hermitian_route_of_huge_skew_entries_does_not_overflow():
    # the route test formed A - A*, whose 2e308 overflowed with a warning;
    # from halves it cannot, and this skew matrix still takes the general solver
    vals = eigenvalues([[0, 1e308], [-1e308, 0]])
    assert np.allclose(np.sort(vals.imag) / 1e308, [-1.0, 1.0], rtol=0, atol=1e-12)
    assert np.abs(vals.real).max() <= 1e-12 * 1e308


class TestNumericalRank:
    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_ones_is_rank_one(self):
        assert numerical_rank(all_ones(5)) == 1

    def test_identity_full_rank(self):
        assert numerical_rank(identity(4)) == 4

    @pytest.mark.parametrize("n", [2, 6, 12])
    def test_reciprocal_outer_products_are_rank_one(self, n):
        rng = np.random.default_rng(100 + n)
        f = random_scaling_values(rng, n)
        assert numerical_rank(np.outer(f, 1 / f)) == 1

    @pytest.mark.parametrize("tol", [Tolerance(), Tolerance(rel=0.0, abs=1e-12)])
    def test_rank_survives_an_overflowing_largest_singular_value(self, tol):
        # sigma_1 = 2e308 overflows, and LAPACK reports sigma_2 ~ 3e291; the
        # rank is read off the matrix scaled by 2^-1000, floor included
        assert numerical_rank(np.full((2, 2), 1e308), tol) == 1


class TestOperatorNorm:
    def test_all_ones_norm_is_n(self):
        assert operator_norm(all_ones(2)) == pytest.approx(2.0, abs=1e-12)

    def test_two_by_two_reciprocal_pair(self):
        # rank one f (x) g: the norm is ||f|| ||g|| = sqrt(1+1/4) * sqrt(1+4)
        assert operator_norm([[1, 2], [0.5, 1]]) == pytest.approx(2.5, abs=1e-12)

    def test_identity(self):
        assert operator_norm(identity(7)) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_dominates_spectral_radius(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rho = np.abs(eigenvalues(a)).max()
        assert operator_norm(a) >= rho - 1e-10


class TestMultisetDistance:
    def test_exact_match(self):
        assert multiset_distance([1, 2, 3], [3, 1, 2]) == 0.0

    def test_worst_pairing(self):
        assert multiset_distance([0, 1], [0, 2]) == pytest.approx(1.0)

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            multiset_distance([1], [1, 2])
