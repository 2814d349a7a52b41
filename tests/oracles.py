"""Independent oracle computations for the test suite.

Everything here re-derives expected values along a different route than
the library: per-pattern trig evaluated directly from distances, the
mirror branch through the agreement-count sine instead of the distance
cosine, and brute-force sums over basis states. The oracles never call
the code paths they check.
"""

import math

from mirrorqam.patterns import BitPattern, PatternSet


def string_distance(a: BitPattern, b: BitPattern) -> int:
    """Hamming distance counted on the two pattern strings, not on the words."""
    return sum(x != y for x, y in zip(str(a), str(b), strict=True))


def branch_joint_probability(
    input_pattern: BitPattern, stored: BitPattern, n: int, b: int, branch_weight: float
) -> float:
    """weight * (1/p-free) cos^{2b}(pi d / 2n); caller divides by p."""
    d = string_distance(input_pattern, stored)
    return branch_weight * math.cos(math.pi * d / (2 * n)) ** (2 * b)


def mirror_branch_conditional(
    input_pattern: BitPattern, patterns: PatternSet, b: int
) -> dict[BitPattern, float]:
    """Branch-1 conditional over mirror-corrected outputs, via the sine route.

    The raw branch-1 output for stored pattern q is mirror(q), weighted by
    sin^{2b}(pi * agreements / 2n) where agreements = n - d(input, q).
    Mirror correction maps the key back to q.
    """
    n = patterns.n
    weights = {}
    for q in patterns:
        agreements = n - string_distance(input_pattern, q)
        weights[q] = math.sin(math.pi * agreements / (2 * n)) ** (2 * b)
    total = sum(weights.values())
    return {q: w / total for q, w in weights.items()}


def tv_distance(p: dict, q: dict) -> float:
    support = set(p) | set(q)
    return 0.5 * sum(abs(p.get(x, 0.0) - q.get(x, 0.0)) for x in support)


def quadrature_cos_power_average(b: int) -> float:
    """(2/pi) * integral of cos^{2b} over [0, pi/2] by adaptive quadrature."""
    from scipy.integrate import quad

    value, _ = quad(lambda x: math.cos(x) ** (2 * b), 0.0, math.pi / 2)
    return 2.0 / math.pi * value


def probability_of_subspace(state, predicate) -> float:
    """Born probability of the basis states whose index satisfies predicate.

    A per-element Python sum over the state's (index, amplitude) pairs,
    independent of the engine's mask kernels.
    """
    return sum(abs(a) ** 2 for i, a in state.items() if predicate(i))


def encode(register, bits) -> int:
    """Pack register-local bits (first qubit first) into a basis-index value."""
    if len(bits) != register.width:
        raise ValueError(
            f"register {register.name!r} holds {register.width} qubits, got {len(bits)} bits"
        )
    return sum(1 << (register.offset + j) for j, b in enumerate(bits) if b)


def decode(register, index: int) -> tuple[int, ...]:
    """A register's bits (first qubit first) extracted from a basis index."""
    return tuple((index >> (register.offset + j)) & 1 for j in range(register.width))
