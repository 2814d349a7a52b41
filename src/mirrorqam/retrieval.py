"""Associative retrieval: circuit pipeline, analytic law, amplification, cost.

The pipeline prepares the two-branch initial state (memory branch with
ancilla 0, mirror branch with ancilla 1), rewrites the memory register
into per-bit agreement words against the classical input, rotates each
control qubit into a cosine/sine mixture of the counted distance, and
restores the memory register. Measuring the ancilla selects a branch;
amplitude amplification then boosts the branch's good control subspace
(all-0 for branch 0, all-1 for branch 1), after which the memory register
is measured. A branch-1 result is corrected by bitwise complement.

Within either branch, the probability of retrieving stored pattern q at
Hamming distance d from input i is (1/p) cos^{2b}(pi d / 2n) before
normalization over the good subspace. Reports carry both the
unnormalized weights and the normalized conditional distribution; the
two readings are labeled distinctly rather than merged.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InfeasibleCloningError, ZeroMassError
from .memory import memory_overlap, solve_efficiencies
from .patterns import BitPattern, PatternSet, hamming_distance
from .statevector import (
    RegisterLayout,
    StateVector,
    apply_hadamard,
    apply_hamming_phase,
    apply_not,
    collapse_qubit,
    measure_qubit,
    measure_register,
    reflect_about_state,
    reflect_good_subspace,
    subspace_mass,
)

_ESTIMATE_OFFSETS = (0, 1, -1, 2, -2)


@dataclass(frozen=True)
class GammaMode:
    """Branch-weight policy for the initial superposition.

    memory-only puts all weight on the memory branch (the default, usable
    on any pattern set); cloning takes the weights from the feasible
    cloning solution when one exists; fixed pins them explicitly.
    """

    kind: str
    gamma: float = 1.0
    gamma_bar: float = 0.0

    def __post_init__(self):
        if self.kind not in ("memory-only", "cloning", "fixed"):
            raise ValueError(f"unknown gamma mode {self.kind!r}")
        if self.kind == "fixed":
            if self.gamma < 0 or self.gamma_bar < 0:
                raise ValueError("fixed efficiencies must be nonnegative")
            if abs(self.gamma + self.gamma_bar - 1.0) > 1e-12:
                raise ValueError("fixed efficiencies must sum to 1")

    @classmethod
    def memory_only(cls) -> GammaMode:
        return cls("memory-only")

    @classmethod
    def cloning(cls) -> GammaMode:
        return cls("cloning")

    @classmethod
    def fixed(cls, gamma: float, gamma_bar: float | None = None) -> GammaMode:
        if gamma_bar is None:
            gamma_bar = 1.0 - gamma
        return cls("fixed", gamma, gamma_bar)

    @classmethod
    def parse(cls, text: str) -> GammaMode:
        if text == "memory-only":
            return cls.memory_only()
        if text == "cloning":
            return cls.cloning()
        if text.startswith("fixed:"):
            return cls.fixed(float(text.split(":", 1)[1]))
        raise ValueError(f"expected memory-only, cloning, or fixed:G, got {text!r}")

    def describe(self) -> str:
        if self.kind == "fixed":
            return f"fixed:{self.gamma!r}"
        return self.kind


@dataclass(frozen=True)
class AmplificationMode:
    """How many amplification rounds to run.

    exact reads the good-subspace probability from the simulator (a
    simulator privilege) and uses the floor-optimal count; estimate uses
    the uniform-distribution cost approximation, varying the count by up
    to 2 across retry rounds; fixed pins the count.
    """

    kind: str
    k: int = 0

    def __post_init__(self):
        if self.kind not in ("exact", "estimate", "fixed"):
            raise ValueError(f"unknown amplification mode {self.kind!r}")
        if self.kind == "fixed" and self.k < 0:
            raise ValueError("fixed iteration count must be nonnegative")

    @classmethod
    def exact(cls) -> AmplificationMode:
        return cls("exact")

    @classmethod
    def estimate(cls) -> AmplificationMode:
        return cls("estimate")

    @classmethod
    def fixed(cls, k: int) -> AmplificationMode:
        return cls("fixed", k)

    @classmethod
    def parse(cls, text: str) -> AmplificationMode:
        if text == "exact":
            return cls.exact()
        if text == "estimate":
            return cls.estimate()
        if text.startswith("fixed:"):
            return cls.fixed(int(text.split(":", 1)[1]))
        raise ValueError(f"expected exact, estimate, or fixed:K, got {text!r}")

    def describe(self) -> str:
        return f"fixed:{self.k}" if self.kind == "fixed" else self.kind


@dataclass(frozen=True)
class RetrievalConfig:
    """Knobs for a retrieval run; b is the accuracy parameter."""

    b: int
    gamma_mode: GammaMode = GammaMode("memory-only")
    amplification_mode: AmplificationMode = AmplificationMode("exact")
    shots: int = 1
    seed: int | None = None
    representation: str = "sparse"

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("b must be at least 1")
        if self.shots < 1:
            raise ValueError("shots must be at least 1")
        if self.representation not in ("sparse", "dense"):
            raise ValueError(f"unknown representation {self.representation!r}")


@dataclass(frozen=True)
class RetrievalOutcome:
    """Result of one retrieval round.

    A round fails when the control measurement misses the good subspace;
    the caller decides whether to repeat. On branch 1 the output pattern
    is the mirror-corrected raw pattern.
    """

    ancilla_branch: int
    amplification_iterations: int
    good_probability_before: float
    succeeded: bool
    raw_pattern: BitPattern | None
    output_pattern: BitPattern | None


@dataclass(frozen=True)
class RetrievalRun:
    """Outcome of repeated rounds under a retry budget."""

    outcome: RetrievalOutcome | None
    rounds: tuple[RetrievalOutcome, ...]
    failed_rounds: int


@dataclass(frozen=True)
class AnalyticDistribution:
    """Closed-form within-branch retrieval weights for one input.

    unnormalized holds the per-pattern good-subspace weights; conditional
    normalizes them over the good subspace; good_mass is their sum, the
    within-branch probability of landing in the good subspace.
    """

    unnormalized: dict[BitPattern, float]
    conditional: dict[BitPattern, float]
    good_mass: float


@dataclass(frozen=True)
class DistributionReport:
    """Analytic law versus sampled retrievals for one input."""

    analytic_unnormalized: dict[BitPattern, float]
    analytic_conditional: dict[BitPattern, float]
    empirical: dict[BitPattern, float]
    empirical_counts: dict[BitPattern, int]
    empirical_by_branch: dict[int, dict[BitPattern, float]]
    branch_shots: dict[int, int]
    successes_by_branch: dict[int, int]
    amplification_iterations: dict[int, int]
    total_variation_distance: float
    shots: int
    successes: int
    failed_rounds: int
    good_mass: float


def resolve_gamma(mode: GammaMode, patterns: PatternSet) -> tuple[float, float]:
    """Concrete (gamma, gamma_bar) for a pattern set under the given policy."""
    if mode.kind == "memory-only":
        return 1.0, 0.0
    if mode.kind == "fixed":
        return mode.gamma, mode.gamma_bar
    solution = solve_efficiencies(memory_overlap(patterns))
    if not solution.feasible:
        raise InfeasibleCloningError(
            f"cloning-derived weights unavailable: {solution.diagnostic}"
        )
    return solution.gamma, solution.gamma_bar


def prepare_initial(
    input_pattern: BitPattern,
    patterns: PatternSet,
    gamma: float,
    gamma_bar: float,
    layout: RegisterLayout,
    mode: str = "sparse",
) -> StateVector:
    """Two-branch initial state: memory branch with ancilla 0, mirror with 1.

    Controls start all-zero. The input register is classical and carried
    alongside, not simulated.
    """
    if input_pattern.n != patterns.n:
        raise DimensionError(
            f"input has {input_pattern.n} bits, patterns have {patterns.n}"
        )
    mem, anc = layout.memory, layout.ancilla
    if mem.width != patterns.n:
        raise DimensionError(
            f"memory register holds {mem.width} qubits, patterns have {patterns.n}"
        )
    if gamma < 0 or gamma_bar < 0:
        raise ValueError("branch weights must be nonnegative")
    if abs(gamma + gamma_bar - 1.0) > 1e-12:
        raise ValueError(f"gamma + gamma_bar must be 1, got {gamma + gamma_bar!r}")
    p = patterns.p
    words = np.array([mem.encode(q.bits) for q in patterns], dtype=np.int64)
    mirrored = (words ^ mem.mask) | (1 << anc.offset)
    # A zero branch weight gives zero amplitudes, which the constructor drops.
    amplitudes = np.repeat([math.sqrt(gamma / p), math.sqrt(gamma_bar / p)], p)
    return StateVector.from_arrays(
        layout, np.concatenate((words, mirrored)), amplitudes, mode=mode
    )


def apply_difference_encoding(
    state: StateVector, input_pattern: BitPattern
) -> StateVector:
    """Rewrite memory bits into agreement bits against the classical input.

    Memory bit k becomes 1 exactly when the stored bit equals input bit k.
    The input-controlled XOR followed by NOT reduces, with a classical
    input, to a NOT conditioned on the input bit being 0. Involution.
    """
    mem = state.layout.memory
    if input_pattern.n != mem.width:
        raise DimensionError(
            f"input has {input_pattern.n} bits, memory register {mem.width}"
        )
    out = state
    for j, bit in enumerate(input_pattern.bits):
        if bit == 0:
            out = apply_not(out, mem.offset + j)
    return out


def undo_difference_encoding(
    state: StateVector, input_pattern: BitPattern
) -> StateVector:
    """Exact inverse of apply_difference_encoding (the map is an involution)."""
    return apply_difference_encoding(state, input_pattern)


def apply_control_rotations(state: StateVector) -> StateVector:
    """Hadamard, distance phase, Hadamard on every control qubit.

    On a difference-encoded memory word with z zero bits, each control
    qubit ends in cos(pi z / 2n)|0> + i sin(pi z / 2n)|1>.
    """
    out = state
    for qubit in state.layout.control.bits():
        out = apply_hadamard(out, qubit)
        out = apply_hamming_phase(out, qubit)
        out = apply_hadamard(out, qubit)
    return out


def run_pipeline(
    input_pattern: BitPattern,
    patterns: PatternSet,
    gamma: float,
    gamma_bar: float,
    b: int,
    mode: str = "sparse",
) -> StateVector:
    """Full pre-measurement pipeline: prepare, encode, rotate, restore."""
    layout = RegisterLayout.retrieval(patterns.n, b)
    state = prepare_initial(input_pattern, patterns, gamma, gamma_bar, layout, mode)
    state = apply_difference_encoding(state, input_pattern)
    state = apply_control_rotations(state)
    return undo_difference_encoding(state, input_pattern)


def _law_weights(
    input_pattern: BitPattern, patterns: PatternSet, b: int
) -> list[float]:
    """cos^{2b}(pi d / 2n) per stored pattern, in pattern order.

    A pattern at maximal distance n weighs exactly zero for b >= 1.
    """
    if input_pattern.n != patterns.n:
        raise DimensionError(
            f"input has {input_pattern.n} bits, patterns have {patterns.n}"
        )
    n = patterns.n
    weights = []
    for q in patterns:
        d = hamming_distance(input_pattern, q)
        if b == 0:
            weights.append(1.0)
        elif d == n:
            weights.append(0.0)
        else:
            weights.append(math.cos(math.pi * d / (2 * n)) ** (2 * b))
    return weights


def analytic_distribution(
    input_pattern: BitPattern, patterns: PatternSet, b: int
) -> AnalyticDistribution:
    """Closed-form within-branch law: weight (1/p) cos^{2b}(pi d / 2n) per pattern.

    A pattern at maximal distance n contributes exactly zero for b >= 1;
    when every stored pattern does, the instance has no retrievable mass
    and ZeroMassError is raised.
    """
    if b < 0:
        raise ValueError("b must be nonnegative")
    weights = _law_weights(input_pattern, patterns, b)
    unnormalized = {q: w / patterns.p for q, w in zip(patterns, weights)}
    good_mass = sum(unnormalized.values())
    if good_mass == 0.0:
        raise ZeroMassError(
            "every stored pattern is at maximal distance from the input;"
            " retrieval is impossible"
        )
    conditional = {q: w / good_mass for q, w in unnormalized.items()}
    return AnalyticDistribution(unnormalized, conditional, good_mass)


def good_subspace_probability(state: StateVector, branch: int) -> float:
    """Born mass of the all-0 (branch 0) or all-1 (branch 1) control subspace."""
    if branch not in (0, 1):
        raise ValueError("branch must be 0 or 1")
    reg = state.layout.control
    return subspace_mass(state, reg.mask, reg.mask if branch else 0)


def optimal_iterations(p_good: float) -> int:
    """Floor-scheduled amplification count floor(pi / (4 asin(sqrt(P))))."""
    if p_good <= 0.0:
        raise ZeroMassError("good-subspace probability is zero; cannot amplify")
    theta = math.asin(math.sqrt(min(p_good, 1.0)))
    return int(math.floor(math.pi / (4.0 * theta)))


def amplified_success_probability(p_good: float, k: int) -> float:
    """Good-subspace mass after k rounds: sin^2((2k+1) asin(sqrt(P)))."""
    theta = math.asin(math.sqrt(min(p_good, 1.0)))
    return math.sin((2 * k + 1) * theta) ** 2


def estimate_iterations(b: int, round_index: int = 0) -> int:
    """Iteration count from the uniform-spread cost estimate.

    Retry rounds vary the count by 0, +1, -1, +2, -2 around the estimate,
    clamped at zero.
    """
    base = max(0, round(complexity_uniform_approx(b)))
    offset = _ESTIMATE_OFFSETS[round_index % len(_ESTIMATE_OFFSETS)]
    return max(0, base + offset)


def amplitude_amplify(state: StateVector, branch: int, k: int) -> StateVector:
    """k rounds of good-subspace reflection then reflection about the start state.

    Starting from good-subspace mass P, the mass after k rounds is
    sin^2((2k+1) asin(sqrt(P))).
    """
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    current = state
    for _ in range(k):
        current = reflect_good_subspace(current, branch)
        current = reflect_about_state(current, state)
    return current


def _resolve_iterations(
    mode: AmplificationMode, p_good: float, b: int, round_index: int
) -> int:
    if mode.kind == "exact":
        return optimal_iterations(p_good)
    if mode.kind == "fixed":
        return mode.k
    return estimate_iterations(b, round_index)


def _retrieval_pipeline(
    input_pattern: BitPattern, patterns: PatternSet, config: RetrievalConfig
) -> StateVector:
    """run_pipeline under the config's branch weights, after the zero-mass guard.

    The analytic weight (1/p) cos^{2b}(pi d / 2n) is zero exactly when
    d = n, so an instance has no retrievable mass exactly when every
    stored pattern is the complement of the input.
    """
    gamma, gamma_bar = resolve_gamma(config.gamma_mode, patterns)
    complement = input_pattern.mirror()
    if all(q == complement for q in patterns):
        raise ZeroMassError(
            "every stored pattern is at maximal distance from the input;"
            " retrieval is impossible"
        )
    return run_pipeline(
        input_pattern, patterns, gamma, gamma_bar, config.b, config.representation
    )


def retrieve(
    input_pattern: BitPattern,
    patterns: PatternSet,
    config: RetrievalConfig,
    rng=None,
    round_index: int = 0,
    state: StateVector | None = None,
) -> RetrievalOutcome:
    """One retrieval round.

    Runs the pipeline, measures the ancilla to pick a branch, amplifies
    toward that branch's good subspace, measures the controls, and, when
    they land in the good subspace, measures the memory register. Branch-1
    results are mirror-corrected. round_index only matters in estimate
    mode, where it varies the iteration count across retries. state, when
    given, must be the pipeline output for these arguments; the round then
    starts from it instead of recomputing it.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if state is None:
        state = _retrieval_pipeline(input_pattern, patterns, config)
    branch, state = measure_qubit(state, state.layout.ancilla.offset, rng)
    p_good = good_subspace_probability(state, branch)
    k = _resolve_iterations(config.amplification_mode, p_good, config.b, round_index)
    state = amplitude_amplify(state, branch, k)
    word, state = measure_register(state, "control", rng)
    if any(c != str(branch) for c in word):
        return RetrievalOutcome(branch, k, p_good, False, None, None)
    memory_word, _ = measure_register(state, "memory", rng)
    raw = BitPattern.from_string(memory_word)
    output = raw.mirror() if branch == 1 else raw
    return RetrievalOutcome(branch, k, p_good, True, raw, output)


def run_retrieval(
    input_pattern: BitPattern,
    patterns: PatternSet,
    config: RetrievalConfig,
    max_rounds: int = 5,
    rng=None,
) -> RetrievalRun:
    """Repeat retrieval rounds until one succeeds or the budget is spent.

    The deterministic pipeline runs once and every round starts from its
    output. Failed rounds are reported, not hidden, since cost
    accounting counts them.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    state = _retrieval_pipeline(input_pattern, patterns, config)
    rounds: list[RetrievalOutcome] = []
    for index in range(max_rounds):
        outcome = retrieve(
            input_pattern, patterns, config, rng, round_index=index, state=state
        )
        rounds.append(outcome)
        if outcome.succeeded:
            return RetrievalRun(outcome, tuple(rounds), index)
    return RetrievalRun(None, tuple(rounds), max_rounds)


def _support_arrays(state: StateVector) -> tuple[np.ndarray, np.ndarray]:
    indices, amps = state.arrays()
    probs = np.abs(amps) ** 2
    return indices, probs / probs.sum()


def simulate_distribution(
    input_pattern: BitPattern,
    patterns: PatternSet,
    config: RetrievalConfig,
    rng=None,
    strict: bool = False,
) -> DistributionReport:
    """Monte-Carlo retrieval shots compared against the analytic law.

    The pipeline and the per-branch amplification are deterministic, so
    the default path computes each branch's post-amplification state once
    and draws all outcomes in bulk. strict mode instead walks every shot
    sequentially through the measurement primitives; it is slower and
    exists to reproduce golden files.
    """
    analytic = analytic_distribution(input_pattern, patterns, config.b)
    gamma, gamma_bar = resolve_gamma(config.gamma_mode, patterns)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    state = run_pipeline(
        input_pattern, patterns, gamma, gamma_bar, config.b, config.representation
    )
    layout = state.layout
    mem, control, anc = layout.memory, layout.control, layout.ancilla

    branch_states: dict[int, StateVector] = {}
    iterations: dict[int, int] = {}
    for branch, mass in ((0, gamma), (1, gamma_bar)):
        if mass <= 0.0:
            continue
        _, collapsed = collapse_qubit(state, anc.offset, branch)
        p_good = good_subspace_probability(collapsed, branch)
        k = _resolve_iterations(config.amplification_mode, p_good, config.b, 0)
        branch_states[branch] = amplitude_amplify(collapsed, branch, k)
        iterations[branch] = k

    success_counts: Counter[BitPattern] = Counter()
    branch_counts: dict[int, Counter[BitPattern]] = {0: Counter(), 1: Counter()}
    branch_shots = {0: 0, 1: 0}
    failed = 0

    if strict:
        for _ in range(config.shots):
            branch = 1 if rng.random() < gamma_bar else 0
            branch_shots[branch] += 1
            word, after = measure_register(branch_states[branch], "control", rng)
            if any(c != str(branch) for c in word):
                failed += 1
                continue
            memory_word, _ = measure_register(after, "memory", rng)
            pattern = BitPattern.from_string(memory_word)
            if branch == 1:
                pattern = pattern.mirror()
            success_counts[pattern] += 1
            branch_counts[branch][pattern] += 1
    else:
        us = rng.random(config.shots)
        branches = np.where(us < gamma_bar, 1, 0)
        full = (1 << mem.width) - 1
        for branch in (0, 1):
            count = int(np.sum(branches == branch))
            branch_shots[branch] = count
            if count == 0 or branch not in branch_states:
                continue
            indices, probs = _support_arrays(branch_states[branch])
            draws = indices[rng.choice(len(indices), size=count, p=probs)]
            target = control.mask if branch else 0
            good = (draws & control.mask) == target
            failed += int(np.sum(~good))
            memory_values = (draws[good] & mem.mask) >> mem.offset
            if branch == 1:
                memory_values = memory_values ^ full
            values, counts = np.unique(memory_values, return_counts=True)
            for value, c in zip(values, counts):
                pattern = BitPattern(
                    tuple((int(value) >> j) & 1 for j in range(mem.width))
                )
                success_counts[pattern] += int(c)
                branch_counts[branch][pattern] += int(c)

    successes = sum(success_counts.values())
    empirical = (
        {q: c / successes for q, c in success_counts.items()} if successes else {}
    )
    support = set(analytic.conditional) | set(empirical)
    tv = 0.5 * sum(
        abs(empirical.get(q, 0.0) - analytic.conditional.get(q, 0.0)) for q in support
    )
    empirical_by_branch = {}
    successes_by_branch = {}
    for branch, counter in branch_counts.items():
        total = sum(counter.values())
        successes_by_branch[branch] = total
        empirical_by_branch[branch] = (
            {q: c / total for q, c in counter.items()} if total else {}
        )
    return DistributionReport(
        analytic_unnormalized=analytic.unnormalized,
        analytic_conditional=analytic.conditional,
        empirical=empirical,
        empirical_counts=dict(success_counts),
        empirical_by_branch=empirical_by_branch,
        branch_shots=branch_shots,
        successes_by_branch=successes_by_branch,
        amplification_iterations=iterations,
        total_variation_distance=tv,
        shots=config.shots,
        successes=successes,
        failed_rounds=failed,
        good_mass=analytic.good_mass,
    )


def complexity_estimate(
    input_pattern: BitPattern, patterns: PatternSet, b: int
) -> float:
    """Amplification cost sqrt(p / sum_k cos^{2b}(pi d_k / 2n)).

    Equals the inverse square root of the within-branch good-subspace
    mass; infinite on zero-mass instances (reported, not raised).
    """
    if b < 1:
        raise ValueError("b must be at least 1")
    total = sum(_law_weights(input_pattern, patterns, b))
    if total == 0.0:
        return math.inf
    return math.sqrt(patterns.p / total)


def cos_power_average(b: int) -> float:
    """Average of cos^{2b} over a quarter period: (2b choose b) / 4^b, exactly."""
    if b < 0:
        raise ValueError("b must be nonnegative")
    return math.comb(2 * b, b) / 4**b


def complexity_uniform_approx(b: int) -> float:
    """Cost estimate (pi b)^(1/4) for approximately uniform pattern spread.

    Depends only on the accuracy parameter b, unlike the address-based
    baseline sqrt(2^n) over the full space of n-bit words.
    """
    if b < 1:
        raise ValueError("b must be at least 1")
    return (math.pi * b) ** 0.25


def grover_baseline(n: int) -> float:
    """Address-based retrieval cost sqrt(2^n); a comparison constant.

    Infinite once sqrt(2^n) exceeds the float range (n >= 2048).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    try:
        return math.ldexp(math.sqrt(2.0 ** (n % 2)), n // 2)
    except OverflowError:
        return math.inf
