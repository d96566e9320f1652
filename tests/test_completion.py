import re
import warnings

import numpy as np
import pytest

from schurlab import (
    COMPLETED,
    INCONSISTENT,
    UNDERDETERMINED,
    PartialMatrix,
    PreconditionError,
    ZeroEntryError,
    all_ones,
    build_from_scaling,
    check_cocycle,
    complete_partial,
    log_coordinates,
)
from tests.conftest import random_scaling_values


def partial_from(n, items):
    """items: {(i, j) 1-based: value}"""
    entries = np.zeros((n, n), dtype=np.complex128)
    mask = np.zeros((n, n), dtype=bool)
    for (i, j), v in items.items():
        entries[i - 1, j - 1] = v
        mask[i - 1, j - 1] = True
    return PartialMatrix(entries=entries, mask=mask)


class TestCompletePartial:
    def test_chain_completes(self):
        report = complete_partial(partial_from(3, {(1, 2): 2, (2, 3): 3}))
        assert report.status == COMPLETED
        m = report.matrix.data
        assert m[0, 2] == pytest.approx(6)
        assert m[0, 1] == pytest.approx(2)
        assert m[1, 2] == pytest.approx(3)
        # brute-force oracle: all 27 ratio triples hold
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert m[i, j] == pytest.approx(m[i, k] * m[k, j], abs=1e-12)
        assert check_cocycle(report.matrix).passed

    def test_contradictory_cycle(self):
        report = complete_partial(partial_from(3, {(1, 2): 2, (2, 3): 3, (1, 3): 5}))
        assert report.status == INCONSISTENT
        assert report.matrix is None
        (violation,) = report.violations
        assert violation.cycle == (1, 2, 3)
        assert violation.residual == pytest.approx(1.0)

    def test_disconnected_components(self):
        report = complete_partial(partial_from(4, {(1, 2): 1j}))
        assert report.status == UNDERDETERMINED
        assert report.components == [[1, 2], [3], [4]]

    def test_zero_specified_entry_rejected_at_construction(self):
        with pytest.raises(ZeroEntryError) as err:
            partial_from(3, {(1, 2): 0.0})
        assert err.value.position == (1, 2)

    def test_specified_diagonal_must_be_one(self):
        report = complete_partial(partial_from(2, {(1, 1): 2.0, (1, 2): 1.0}))
        assert report.status == INCONSISTENT
        (violation,) = report.violations
        assert violation.cycle == (1,)
        assert violation.residual == pytest.approx(1.0)

    def test_reciprocal_pair_mismatch_is_two_cycle(self):
        report = complete_partial(partial_from(2, {(1, 2): 2.0, (2, 1): 3.0}))
        assert report.status == INCONSISTENT
        (violation,) = report.violations
        assert set(violation.cycle) == {1, 2}

    def test_star_mode_implies_reciprocal(self):
        report = complete_partial(partial_from(2, {(1, 2): 1j}), star_preserving=True)
        assert report.status == COMPLETED
        assert report.matrix.data[1, 0] == pytest.approx(-1j)

    def test_star_mode_checks_a_specified_transpose_as_given(self):
        # the specified a_21 = i is checked, not replaced by the implied 1/a_12 = -i
        report = complete_partial(partial_from(2, {(1, 2): 1j, (2, 1): 1j}), star_preserving=True)
        assert report.status == INCONSISTENT
        assert [(v.cycle, v.residual) for v in report.violations] == [((2, 1), 2.0)]
        # within tolerance, the tree edge carries the specified a_12, not 1/a_21
        near = {(1, 2): 1j, (2, 1): -1j * np.exp(1e-12j)}
        report = complete_partial(partial_from(2, near), star_preserving=True)
        assert report.matrix.data[0, 1] == 1j

    @pytest.mark.parametrize("seed", [0, 10, 14])
    def test_cycle_residual_rounds_as_python_abs(self, seed):
        # For these seeds np.abs of the complex residual array rounds the (1,3)
        # entry differently from abs(complex) on x86-64 at the AVX-512, AVX2 and
        # baseline dispatch levels.
        rng = np.random.default_rng(seed)
        a12, a23 = (complex(*rng.standard_normal(2)) for _ in range(2))
        f1 = np.complex128(1.0)
        f3 = f1 / a12 / a23  # f propagated along (1,2), (2,3)
        a13 = complex(f1 / f3) * (1 + 1e-3 * complex(*rng.standard_normal(2)))
        report = complete_partial(partial_from(3, {(1, 2): a12, (2, 3): a23, (1, 3): a13}))
        (violation,) = report.violations
        assert violation.cycle == (1, 2, 3)
        assert violation.residual == abs(a13 - complex(f1 / f3))

    def test_modulus_past_the_double_range(self):
        huge = 1.3e308 + 1.3e308j  # finite parts, modulus above the largest double
        chain = {(1, 2): 1e154, (2, 3): 1.3e154 + 1.3e154j}  # a_13 = f(1)/f(3) = huge
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match=re.escape("(1,2) has modulus inf")):
                complete_partial(partial_from(2, {(1, 2): huge}), star_preserving=True)
            diagonal = complete_partial(partial_from(2, {(1, 1): huge, (1, 2): 1.0}))
            consistent = complete_partial(partial_from(3, {**chain, (1, 3): huge}))
            chain[(2, 3)] = 0.5e154 + 1.3e154j  # f(1)/f(3) moves by 8e307 in its real part
            off = complete_partial(partial_from(3, {**chain, (1, 3): huge}))
        assert [(v.cycle, v.residual) for v in diagonal.violations] == [((1,), np.inf)]
        assert consistent.status == COMPLETED
        assert [v.cycle for v in off.violations] == [(1, 2, 3)]
        assert off.violations[0].residual == pytest.approx(8e307)

    def test_star_mode_requires_unimodular(self):
        with pytest.raises(PreconditionError):
            complete_partial(partial_from(2, {(1, 2): 2.0}), star_preserving=True)

    def test_single_vertex(self):
        report = complete_partial(partial_from(1, {}))
        assert report.status == COMPLETED
        assert report.matrix == all_ones(1)

    @pytest.mark.parametrize(
        "items, entry",
        [
            ({(1, 2): 1e200, (2, 3): 1e200}, "(1,3)"),  # f(3) underflows to 0
            ({(1, 2): 1e200, (1, 3): 1e-200}, "(3,2)"),  # f is finite, a_32 = 1e400 is not
        ],
    )
    def test_unrepresentable_completion_is_a_precondition_error(self, items, entry):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(PreconditionError, match=re.escape(f"entry {entry} cannot be")):
                complete_partial(partial_from(3, items))

    def test_completed_diagonal_is_exactly_one(self):
        report = complete_partial(partial_from(3, {(1, 2): 2.0 + 1j, (2, 3): 0.5j}))
        assert report.status == COMPLETED
        assert np.all(np.diagonal(report.matrix.data) == 1.0)


class TestCompletionInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_spanning_tree_recovery(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 13))
        a = build_from_scaling(random_scaling_values(rng, n))
        entries = np.zeros((n, n), dtype=np.complex128)
        mask = np.zeros((n, n), dtype=bool)
        order = rng.permutation(n)
        for k in range(1, n):
            u, v = int(order[int(rng.integers(k))]), int(order[k])
            if rng.random() < 0.5:
                u, v = v, u
            entries[u, v] = a.data[u, v]
            mask[u, v] = True
        report = complete_partial(PartialMatrix(entries=entries, mask=mask))
        assert report.status == COMPLETED
        err = np.abs(report.matrix.data - a.data).max()
        assert err <= 1e-9 * np.abs(a.data).max()

    @pytest.mark.parametrize("seed", range(4))
    def test_tree_choice_independence(self, seed):
        # relabeling the vertices changes the BFS tree; completions must agree
        rng = np.random.default_rng(50 + seed)
        n = 8
        a = build_from_scaling(random_scaling_values(rng, n))
        entries = np.zeros((n, n), dtype=np.complex128)
        mask = np.zeros((n, n), dtype=bool)
        for v in range(1, n):
            u = int(rng.integers(v))
            entries[u, v] = a.data[u, v]
            mask[u, v] = True
        base = complete_partial(PartialMatrix(entries=entries, mask=mask))
        perm = rng.permutation(n)
        relabeled = complete_partial(
            PartialMatrix(entries=entries[np.ix_(perm, perm)], mask=mask[np.ix_(perm, perm)])
        )
        assert base.status == relabeled.status == COMPLETED
        inv = np.argsort(perm)
        back = relabeled.matrix.data[np.ix_(inv, inv)]
        assert np.abs(back - base.matrix.data).max() <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_perturbed_redundant_edge_flags_its_cycle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 10))
        a = build_from_scaling(random_scaling_values(rng, n))
        entries = np.zeros((n, n), dtype=np.complex128)
        mask = np.zeros((n, n), dtype=bool)
        for v in range(1, n):
            u = int(rng.integers(v))
            entries[u, v] = a.data[u, v]
            mask[u, v] = True
        free = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and not mask[i, j] and not mask[j, i]
        ]
        pi, pj = free[int(rng.integers(len(free)))]
        entries[pi, pj] = a.data[pi, pj] * (1 + 1e-3)
        mask[pi, pj] = True
        report = complete_partial(PartialMatrix(entries=entries, mask=mask))
        assert report.status == INCONSISTENT
        assert report.violations
        for violation in report.violations:
            cyc = violation.cycle
            pairs = list(zip(cyc, cyc[1:])) + [(cyc[-1], cyc[0])]
            assert any({u, v} == {pi + 1, pj + 1} for u, v in pairs)


class TestLogCoordinates:
    def test_all_ones_maps_to_zero(self):
        assert np.all(log_coordinates(all_ones(3)) == 0)

    def test_quarter_turns(self, unit_circle_2x2):
        b = log_coordinates(unit_circle_2x2)
        assert b[0, 1] == pytest.approx(0.25)
        assert b[1, 0] == pytest.approx(0.75)

    def test_modulus_goes_to_imaginary_part(self):
        b = log_coordinates([[1, 2], [0.5, 1]])
        assert b[0, 1] == pytest.approx(-1j * np.log(2) / (2 * np.pi))

    def test_zero_entry_rejected(self):
        with pytest.raises(ZeroEntryError):
            log_coordinates([[1, 0], [1, 1]])

    def test_star_completion_is_symmetric_mod_one(self):
        rng = np.random.default_rng(7)
        n = 6
        a = build_from_scaling(random_scaling_values(rng, n, unimodular=True))
        entries = np.zeros((n, n), dtype=np.complex128)
        mask = np.zeros((n, n), dtype=bool)
        for v in range(1, n):
            entries[0, v] = a.data[0, v]
            mask[0, v] = True
        report = complete_partial(
            PartialMatrix(entries=entries, mask=mask), star_preserving=True
        )
        assert report.status == COMPLETED
        b = log_coordinates(report.matrix)
        assert np.abs(b.imag).max() <= 1e-12
        wrap = np.mod(b.real + b.real.T, 1.0)
        assert float(np.minimum(wrap, 1 - wrap).max()) <= 1e-9
