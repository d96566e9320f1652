import numpy as np
import pytest

from schurlab import ComplexMatrix


@pytest.fixture
def unit_circle_2x2() -> ComplexMatrix:
    """The 2x2 coefficient matrix [[1, i], [-i, 1]] used throughout."""
    return ComplexMatrix([[1, 1j], [-1j, 1]])


def random_scaling_values(rng, n, unimodular=False, lo=0.5, hi=2.0):
    phases = np.exp(2j * np.pi * rng.random(n))
    if unimodular:
        return phases
    return rng.uniform(lo, hi, n) * phases


@pytest.fixture(autouse=True)
def fresh_facts():
    """Start every test with no shared facts, so no count depends on the test before it."""
    from schurlab import multiplicative

    multiplicative._last_facts = None
