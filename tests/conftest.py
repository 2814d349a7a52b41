import numpy as np
import pytest

from mirrorqam.patterns import BitPattern, random_pattern_set


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)


def random_input(n, rng):
    return BitPattern.from_string("".join(str(x) for x in rng.integers(0, 2, n)))


def random_instance(rng, n_lo=3, n_hi=6, p_lo=2, p_hi=8, b_lo=1, b_hi=4):
    """A random (patterns, input, b) triple at desk scale."""
    n = int(rng.integers(n_lo, n_hi + 1))
    p = min(int(rng.integers(p_lo, p_hi + 1)), 2**n)
    b = int(rng.integers(b_lo, b_hi + 1))
    return random_pattern_set(n, p, rng), random_input(n, rng), b
