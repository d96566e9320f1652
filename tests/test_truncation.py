import numpy as np
import pytest

from schurlab import (
    CoefficientGenerator,
    ComplexMatrix,
    DimensionError,
    NotMultiplicativeError,
    PreconditionError,
    ZeroEntryError,
    all_ones,
    compact_bound_check,
    corner,
    factor_scaling,
    l2_multiplier_factor_check,
    scaling_generator,
    table_generator,
    toeplitz_generator,
    toeplitz_member,
    unboundedness_witness,
)


def loop_corner(rule, n):
    """The per-entry corner loop that ``corner`` replaced, kept as the reference."""
    data = np.empty((n, n), dtype=np.complex128)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            data[i - 1, j - 1] = rule(i, j)
    return data


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCorner:
    def test_toeplitz_one_is_ones(self):
        assert corner(toeplitz_generator(1), 3) == all_ones(3)

    def test_scaling_by_index(self):
        gen = scaling_generator(lambda i: float(i))
        assert np.allclose(corner(gen, 2).data, [[1, 0.5], [2, 1]])

    def test_toeplitz_i(self, unit_circle_2x2):
        assert np.allclose(corner(toeplitz_generator(1j), 2).data, unit_circle_2x2.data)

    def test_finite_scaling_bounds_corner_size(self):
        gen = scaling_generator([1.0, 2.0, 3.0])
        assert corner(gen, 3).rows == 3
        with pytest.raises(DimensionError):
            corner(gen, 4)

    def test_table_zero_extension(self):
        gen = table_generator([[1, 2], [3, 4]])
        block = corner(gen, 3).data
        assert block[2, 2] == 0
        assert block[1, 1] == 4


class TestCornerAgainstLoop:
    @pytest.mark.parametrize("seed", range(4))
    def test_scaling_array_is_bitwise_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        values = 10.0 ** rng.uniform(-5, 5, 60) * np.exp(2j * np.pi * rng.random(60))
        values[3] = -0.0 + 2j
        arr = np.asarray(values, dtype=np.complex128)
        for n in (1, 2, 17, 60):
            got = corner(scaling_generator(values), n).data
            assert same_bits(got, loop_corner(lambda i, j: complex(arr[i - 1] / arr[j - 1]), n))

    def test_table_is_bitwise_the_loop(self):
        rng = np.random.default_rng(7)
        table = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        table[1, 2] = complex(-0.0, -0.0)

        def rule(i, j):
            return complex(table[i - 1, j - 1]) if i <= 5 and j <= 3 else 0.0 + 0.0j

        gen = table_generator(table)
        for n in (1, 3, 5, 9):
            assert same_bits(corner(gen, n).data, loop_corner(rule, n))
            assert same_bits(corner(gen, n).data, loop_corner(gen.rule, n))  # plain ints

    @pytest.mark.parametrize("seed", range(5))
    def test_toeplitz_is_the_member_and_near_python_powers(self, seed):
        rng = np.random.default_rng(100 + seed)
        lam = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random()))
        for n in (1, 2, 7, 64):
            got = corner(toeplitz_generator(lam), n).data
            assert same_bits(got, toeplitz_member(lam, n).data)
            # the gathered powers the Toeplitz member was always built from
            offsets = np.subtract.outer(np.arange(n), np.arange(n))
            assert same_bits(got, (lam ** np.arange(-(n - 1), n))[n - 1 - offsets])
            ref = loop_corner(lambda i, j: lam ** (j - i), n)
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14

    def test_callable_scaling_matches_the_loop(self):
        def fn(i):
            return (1.5 + np.sin(i)) * np.exp(0.7j * i)

        got = corner(scaling_generator(fn), 40).data
        ref = loop_corner(lambda i, j: complex(fn(i)) / complex(fn(j)), 40)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-15

    def test_callable_is_called_once_per_index_with_python_ints(self):
        calls = []

        def fn(i):
            calls.append(i)
            return 2**i  # exact for a Python int; a 64-bit integer would wrap to 0

        n = 70
        block = corner(scaling_generator(fn), n).data
        assert len(calls) <= 2 * n
        assert all(type(i) is int for i in calls)
        expected = np.ldexp(1.0, np.subtract.outer(np.arange(n), np.arange(n)))
        assert same_bits(block, expected.astype(np.complex128))

    def test_rule_is_evaluated_once(self):
        calls = []
        inner = toeplitz_generator(1j).rule
        gen = CoefficientGenerator(rule=lambda i, j: calls.append(1) or inner(i, j))
        corner(gen, 12)
        assert len(calls) == 1

    def test_arithmetic_error_in_rule(self):
        gen = scaling_generator(lambda i: 1 / (i - 3))
        with pytest.raises(PreconditionError, match="cannot be computed"):
            corner(gen, 4)

    def test_non_finite_entry_is_named(self):
        with pytest.raises(PreconditionError, match=r"entry \(1,3\) is not finite"):
            corner(toeplitz_generator(1e200), 3)


class TestL2FactorCheck:
    def test_bounded_two_sided(self):
        gen = scaling_generator(lambda i: 2 + (-1) ** i)
        report = l2_multiplier_factor_check(gen, probe=40)
        assert report.multiplicative
        assert report.bounded and report.bounded_away
        assert report.ratio == pytest.approx(3.0)
        assert not report.trend_growing

    def test_harmonic_scaling_flags_growth(self):
        gen = scaling_generator(lambda i: 1.0 / i)
        report = l2_multiplier_factor_check(gen, probe=100)
        assert report.multiplicative
        assert report.ratio == pytest.approx(100.0)
        assert report.half_probe_ratio == pytest.approx(50.0)
        assert report.trend_growing

    def test_geometric_toeplitz_ratio(self):
        # oracle straight from the rule: f(i) = a_i1 = 2^(1-i)
        gen = toeplitz_generator(2.0)
        probe = 20
        expected = [2.0 ** (1 - i) for i in range(1, probe + 1)]
        report = l2_multiplier_factor_check(gen, probe=probe)
        assert np.allclose(report.f.values, expected)
        assert report.ratio == pytest.approx(2.0**19)
        assert report.trend_growing

    def test_probe_too_small(self):
        with pytest.raises(PreconditionError):
            l2_multiplier_factor_check(toeplitz_generator(1), probe=1)

    def test_non_multiplicative_corner(self):
        gen = table_generator([[1, 1], [1, -1]])
        with pytest.raises(NotMultiplicativeError):
            l2_multiplier_factor_check(gen, probe=2)

    @pytest.mark.parametrize("seed", range(4))
    def test_f_is_the_factor_scaling(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.1, 10.0, 12) * np.exp(2j * np.pi * rng.random(12))
        gen = scaling_generator(values)
        report = l2_multiplier_factor_check(gen, probe=12)
        assert same_bits(report.f.values, factor_scaling(corner(gen, 12)).values)


class TestCompactBoundCheck:
    def test_constant_coefficients(self):
        c = 0.75 - 0.25j
        gen = table_generator(np.full((6, 6), c))
        bound = compact_bound_check(gen, 6, trials=50)
        assert bound == pytest.approx(abs(c), abs=1e-12)

    def test_unimodular_toeplitz(self):
        bound = compact_bound_check(toeplitz_generator(1j), 5, trials=50)
        assert bound == pytest.approx(1.0, abs=1e-10)

    def test_random_table_never_exceeds_supremum(self):
        rng = np.random.default_rng(6)
        table = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        gen = table_generator(table)
        bound = compact_bound_check(gen, 8, trials=100, seed=4)
        assert bound <= np.abs(table).max() + 1e-10
        assert bound >= np.abs(table).max() - 1e-12  # matrix units attain it


class TestUnboundednessWitness:
    def test_alternating_toeplitz(self):
        result = unboundedness_witness(toeplitz_generator(-1), 4)
        assert result.lower_bound >= 4 * (1 - 1e-10)
        assert np.allclose(np.abs(result.x), 0.5)
        assert np.allclose(result.x[1:] / result.x[:-1], -1)

    def test_all_ones_generator(self):
        result = unboundedness_witness(toeplitz_generator(1), 10)
        assert result.lower_bound >= 10 * (1 - 1e-10)
        assert np.allclose(result.x, np.ones(10) / np.sqrt(10))

    def test_unimodular_scaling_generator(self):
        gen = scaling_generator(lambda i: np.exp(2j * np.pi * i / 7))
        result = unboundedness_witness(gen, 50)
        assert result.lower_bound >= 50 * (1 - 1e-10)
        assert np.linalg.norm(result.x) == pytest.approx(1.0)

    def test_non_multiplicative_corner_rejected(self):
        rng = np.random.default_rng(9)
        gen = table_generator(rng.standard_normal((4, 4)) + 2.0)
        with pytest.raises(NotMultiplicativeError):
            unboundedness_witness(gen, 4)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
    def test_lower_bounds_diverge(self, n):
        gen = toeplitz_generator(np.exp(2j * np.pi / 5))
        assert unboundedness_witness(gen, n).lower_bound >= n * (1 - 1e-10)


class TestCornerCoherence:
    @pytest.mark.parametrize("m", [2, 5, 9])
    def test_scaling_of_nested_corners_agree(self, m):
        rng = np.random.default_rng(m)
        values = rng.uniform(0.5, 2, 2 * m) * np.exp(2j * np.pi * rng.random(2 * m))
        gen = scaling_generator(values)
        g1 = factor_scaling(corner(gen, m)).values
        g2 = factor_scaling(corner(gen, 2 * m)).values
        ratio = g2[:m] / g1
        assert np.abs(ratio - ratio[0]).max() <= 1e-10 * abs(ratio[0])

    @pytest.mark.parametrize("m", [3, 6, 12])
    def test_hermitian_generators_are_unimodular(self, m):
        rng = np.random.default_rng(40 + m)
        values = np.exp(2j * np.pi * rng.random(m))
        block = corner(scaling_generator(values), m).data
        assert np.abs(block - block.conj().T).max() <= 1e-10
        assert np.abs(np.abs(block) - 1).max() <= 1e-10


class TestGeneratorConstruction:
    def test_toeplitz_zero_rejected(self):
        with pytest.raises(ZeroEntryError):
            toeplitz_generator(0)

    def test_scaling_zero_value_rejected(self):
        with pytest.raises(ZeroEntryError):
            scaling_generator([1.0, 0.0])

    def test_table_must_be_2d(self):
        with pytest.raises(DimensionError):
            table_generator([1, 2, 3])

    def test_declared_bound_on_table(self):
        gen = table_generator([[3, 4j]])
        assert gen.declared_bound == pytest.approx(4.0)

    def test_corner_requires_positive_size(self):
        with pytest.raises(DimensionError):
            corner(toeplitz_generator(1), 0)
