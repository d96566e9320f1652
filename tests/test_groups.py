import itertools
import warnings

import numpy as np
import pytest

from schurlab import (
    ENUMERATION_LIMIT,
    ComplexMatrix,
    DimensionError,
    NotMultiplicativeError,
    PreconditionError,
    ResourceLimitError,
    SignMatrix,
    ZeroEntryError,
    all_ones,
    build_from_scaling,
    certify_star_multiplicative,
    check_cocycle,
    enumerate_real_positive,
    factor_scaling,
    group_product,
    schur_inverse,
    schur_product,
    toeplitz_member,
    torus_param,
)
from schurlab.io import dumps_document, matrix_to_document
from tests.conftest import random_scaling_values

# the four 3x3 sign patterns of the real positive members
DISPLAYED_3X3 = [
    [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
    [[1, -1, -1], [-1, 1, 1], [-1, 1, 1]],
    [[1, -1, 1], [-1, 1, -1], [1, -1, 1]],
    [[1, 1, -1], [1, 1, -1], [-1, -1, 1]],
]


class TestToeplitzMember:
    def test_lambda_one_is_all_ones(self):
        assert toeplitz_member(1, 4) == all_ones(4)

    def test_alternating_signs(self):
        got = toeplitz_member(-1, 3)
        assert got == ComplexMatrix([[1, -1, 1], [-1, 1, -1], [1, -1, 1]])

    def test_imaginary_ratio(self, unit_circle_2x2):
        assert np.allclose(toeplitz_member(1j, 2).data, unit_circle_2x2.data)

    def test_zero_ratio_rejected(self):
        with pytest.raises(ZeroEntryError):
            toeplitz_member(0, 3)

    @pytest.mark.parametrize("lam", [2.0, 0.5 + 0.25j, -1j])
    def test_constant_diagonals_and_cocycle(self, lam):
        t = toeplitz_member(lam, 5).data
        assert np.abs(t[1:, 1:] - t[:-1, :-1]).max() == 0.0
        assert check_cocycle(t).passed


class TestGroupProduct:
    def test_overflowing_product_is_refused(self):
        a = [[1, 1e300], [1e-300, 1]]  # each factor passes the ratio test
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError) as err:
                group_product(a, a)
        assert str(err.value) == "product entry (1,2) cannot be represented as a double"

    def test_ones_is_identity(self):
        rng = np.random.default_rng(1)
        a = build_from_scaling(random_scaling_values(rng, 4))
        assert group_product(a, all_ones(4)) == a

    def test_inverse_element(self):
        rng = np.random.default_rng(2)
        a = build_from_scaling(random_scaling_values(rng, 4))
        out = group_product(a, schur_inverse(a))
        assert np.abs(out.data - 1).max() < 1e-12

    def test_three_by_three_factorization(self):
        # the general 3x3 member is the product of two one-parameter blocks
        z, w = 2.0 - 1.0j, 0.5 + 0.5j
        left = ComplexMatrix([[1, z, z], [1 / z, 1, 1], [1 / z, 1, 1]])
        right = ComplexMatrix([[1, 1, w], [1, 1, w], [1 / w, 1 / w, 1]])
        product = group_product(left, right)
        expected = ComplexMatrix(
            [[1, z, z * w], [1 / z, 1, w], [1 / (z * w), 1 / w, 1]]
        )
        assert np.abs(product.data - expected.data).max() < 1e-12
        assert check_cocycle(product).passed

    def test_rejects_non_member(self):
        with pytest.raises(NotMultiplicativeError):
            group_product([[1, 1], [1, -1]], all_ones(2))


class TestTorusParam:
    def test_single_coordinate_i(self, unit_circle_2x2):
        assert np.allclose(torus_param([1j]).data, unit_circle_2x2.data)

    def test_all_ones_coordinates(self):
        assert torus_param(np.ones(3)) == all_ones(4)

    def test_group_homomorphism(self):
        rng = np.random.default_rng(3)
        z = np.exp(2j * np.pi * rng.random(4))
        w = np.exp(2j * np.pi * rng.random(4))
        lhs = schur_product(torus_param(z), torus_param(w)).data
        rhs = torus_param(z * w).data
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_rejects_non_unimodular(self):
        with pytest.raises(PreconditionError):
            torus_param([1j, 2.0])

    def test_image_is_star_certified(self):
        rng = np.random.default_rng(4)
        a = torus_param(np.exp(2j * np.pi * rng.random(5)))
        assert certify_star_multiplicative(a).verdict


class TestEnumerate:
    def test_three_by_three_matches_display(self):
        members = enumerate_real_positive(3)
        got = {dumps_document(matrix_to_document(m)) for m in members}
        want = {
            dumps_document(matrix_to_document(ComplexMatrix(m))) for m in DISPLAYED_3X3
        }
        assert got == want

    def test_n_equals_one(self):
        assert enumerate_real_positive(1) == [ComplexMatrix([[1]])]

    def test_two_by_two_against_brute_force(self):
        # oracle: filter all 16 sign matrices for rank one and unit diagonal
        want = []
        for signs in itertools.product((1, -1), repeat=4):
            m = np.array(signs, dtype=float).reshape(2, 2)
            if m[0, 0] == m[1, 1] == 1 and abs(np.linalg.det(m)) < 1e-12:
                want.append(m.tolist())
        got = [m.data.real.tolist() for m in enumerate_real_positive(2)]
        assert sorted(got) == sorted(want)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_counts_and_distinctness(self, n):
        members = enumerate_real_positive(n)
        assert len(members) == 2 ** (n - 1)
        blobs = {dumps_document(matrix_to_document(m)) for m in members}
        assert len(blobs) == len(members)

    def test_counter_order(self):
        members = enumerate_real_positive(3)
        assert members[0] == all_ones(3)
        # index 1 flips only the last first-row sign
        assert members[1].data[0, 2] == -1 and members[1].data[0, 1] == 1

    def test_only_positive_member_is_all_ones(self):
        for n in (2, 4, 6):
            positive = [
                m for m in enumerate_real_positive(n) if np.all(m.data.real > 0)
            ]
            assert positive == [all_ones(n)]

    def test_every_member_star_certified(self):
        for m in enumerate_real_positive(4):
            assert certify_star_multiplicative(m).verdict

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            enumerate_real_positive(25)
        with pytest.raises(ResourceLimitError, match=f"limit is n={ENUMERATION_LIMIT}"):
            enumerate_real_positive(ENUMERATION_LIMIT + 1)

    def test_limit_is_the_largest_size_whose_entries_fit_in_a_gigabyte(self):
        # the list's complex128 entries, 2^(n-1) n^2 of them; either output
        # format adds one line of text
        entries = lambda n: 16 * n * n << (n - 1)
        assert entries(ENUMERATION_LIMIT) <= 1e9 < entries(ENUMERATION_LIMIT + 1)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_the_per_member_reference_bitwise(self, n):
        want = [SignMatrix.from_index(n, k).to_matrix() for k in range(2 ** (n - 1))]
        got = enumerate_real_positive(n)
        assert [m.shape for m in got] == [m.shape for m in want]
        # bytes, not values: the sign bit of every zero imaginary part counts
        assert [m.data.tobytes() for m in got] == [m.data.tobytes() for m in want]
        assert all(m.data.flags.c_contiguous and not m.data.flags.writeable for m in got)

    def test_two_by_two_members_are_toeplitz(self):
        # the n = 2 group is exactly the one-parameter Toeplitz family
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = build_from_scaling(random_scaling_values(rng, 2))
            t = toeplitz_member(complex(a.data[0, 1]), 2)
            assert np.abs(a.data - t.data).max() <= 1e-12 * np.abs(a.data).max()


class TestSignMatrix:
    def test_roundtrip_index(self):
        for idx in range(8):
            sm = SignMatrix.from_index(4, idx)
            assert sm.index == idx

    def test_induced_matrix_properties(self):
        sm = SignMatrix(3, (-1, 1))
        m = sm.to_matrix()
        assert np.all(np.diagonal(m.data) == 1)
        assert np.linalg.matrix_rank(m.data) == 1
        assert np.allclose(m.data, m.data.T)

    def test_validation(self):
        with pytest.raises(DimensionError):
            SignMatrix(3, (1,))
        with pytest.raises(ValueError):
            SignMatrix(2, (0,))

    def test_factor_of_sign_matrix_is_signs(self):
        sm = SignMatrix.from_index(4, 5)
        f = factor_scaling(sm.to_matrix())
        assert np.allclose(f.values, np.array((1,) + sm.first_row_signs))
