"""Associative retrieval: circuit pipeline, analytic law, amplification, cost.

The pipeline prepares the two-branch initial state (memory branch with
ancilla 0, mirror branch with ancilla 1), rewrites the memory register
into per-bit agreement words against the classical input, rotates each
control qubit into a cosine/sine mixture of the counted distance, and
restores the memory register. A round picks a branch with the weights
(gamma, gamma_bar) of the initial state: branch 1 when a uniform draw is
below gamma_bar. It collapses the ancilla onto that branch; amplitude
amplification then boosts the branch's good control subspace (all-0 for
branch 0, all-1 for branch 1), after which the memory register is
measured. A branch-1 result is corrected by bitwise complement. A branch
of weight so small that its prepared amplitudes are exactly 0 is absent,
and a round drawn onto it fails. retrieve, run_retrieval and
simulate_distribution enter the pipeline through one function, which
checks the analytic law for retrievable mass first, then resolves the
weights and runs the pipeline. Each driver then takes a branch from one
branch step, which collapses the ancilla onto it; the collapse finds the
branch absent when the state holds no ancilla mass on it. The readout
measures the controls and, on the good control value, draws the memory
value from the law of that projection.

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
from typing import Sequence

import numpy as np

from .errors import DimensionError, InfeasibleCloningError, ZeroMassError
from .memory import check_branch_weights, memory_overlap, solve_efficiencies
from .patterns import BitPattern, PatternSet, check_width, mirror_set
from .statevector import (
    MAX_AMP_UPDATES,
    MAX_AMPLITUDES,
    RegisterLayout,
    StateVector,
    _selection,
    apply_control_rotations,
    collapse_qubit,
    collapse_register,
    flip_bits,
    good_control,
    measure_register,
    reflect_about_state,
    reflect_good_subspace,
    register_law,
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
            check_branch_weights(self.gamma, self.gamma_bar)

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
        if text in ("memory-only", "cloning"):
            return cls(text)
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
        if text in ("exact", "estimate"):
            return cls(text)
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

    A round fails when it draws an absent branch or when the control
    measurement misses the good subspace; the caller decides whether to
    repeat. On branch 1 the output pattern is the mirror-corrected raw
    pattern.
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
    empirical_frequency: dict[BitPattern, float]
    empirical_count: dict[BitPattern, int]
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
    if mode.kind != "cloning":
        return mode.gamma, mode.gamma_bar
    solution = solve_efficiencies(memory_overlap(patterns))
    if not solution.feasible:
        raise InfeasibleCloningError(
            f"cloning-derived weights unavailable: {solution.diagnostic}"
        )
    return solution.gamma, solution.gamma_bar


def _branch_amplitudes(gamma: float, gamma_bar: float, p: int) -> tuple[float, float]:
    """The prepared amplitude sqrt(weight / p) of each branch's p entries.

    A branch weight that is 0, or rounds to 0 over p, gives amplitude 0.0:
    that branch is absent in either mode.
    """
    check_branch_weights(gamma, gamma_bar)
    return math.sqrt(gamma / p), math.sqrt(gamma_bar / p)


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
    mem, anc = layout.memory, layout.ancilla
    check_width(patterns.n, input=input_pattern.n, memory=mem.width)
    p = patterns.p
    amplitudes = np.repeat(_branch_amplitudes(gamma, gamma_bar, p), p)
    # The stored words on ancilla 0, then their mirrors on ancilla 1.
    words = np.array(patterns.values + mirror_set(patterns).values, dtype=np.int64)
    words <<= mem.offset
    words[p:] |= 1 << anc.offset
    return StateVector.from_arrays(layout, words, amplitudes, mode=mode)


def apply_difference_encoding(
    state: StateVector, input_pattern: BitPattern
) -> StateVector:
    """Rewrite memory bits into agreement bits against the classical input.

    Memory bit k becomes 1 exactly when the stored bit equals input bit k.
    The input-controlled XOR followed by NOT reduces, with a classical
    input, to a NOT conditioned on the input bit being 0. Involution.
    """
    mem = state.layout.memory
    check_width(mem.width, input=input_pattern.n)
    full = (1 << mem.width) - 1
    return flip_bits(state, (~input_pattern.value & full) << mem.offset)


def undo_difference_encoding(
    state: StateVector, input_pattern: BitPattern
) -> StateVector:
    """Exact inverse of apply_difference_encoding (the map is an involution)."""
    return apply_difference_encoding(state, input_pattern)


def run_pipeline(
    input_pattern: BitPattern,
    patterns: PatternSet,
    gamma: float,
    gamma_bar: float,
    b: int,
    mode: str = "sparse",
) -> StateVector:
    """Full pre-measurement pipeline: prepare, encode, rotate, restore.

    The support never exceeds p * 2**b entries per branch of nonzero
    prepared amplitude; a run whose bound is over MAX_AMPLITUDES is
    refused with DimensionError before any state is built.
    """
    layout = RegisterLayout.retrieval(patterns.n, b)
    branches = sum(a > 0 for a in _branch_amplitudes(gamma, gamma_bar, patterns.p))
    support = (branches * patterns.p) << b
    if support > MAX_AMPLITUDES:
        raise DimensionError(
            f"the retrieval state could reach {support} amplitudes,"
            f" {branches} x {patterns.p} x 2^{b} (weighted branches x patterns"
            f" x control values), over the limit of {MAX_AMPLITUDES}"
        )
    state = prepare_initial(input_pattern, patterns, gamma, gamma_bar, layout, mode)
    state = apply_difference_encoding(state, input_pattern)
    state = apply_control_rotations(state)
    return undo_difference_encoding(state, input_pattern)


def law_distances(input_pattern: BitPattern, patterns: PatternSet) -> list[int]:
    """The input's Hamming distance to each stored pattern, in pattern order.

    The law depends on the input only through these; a caller that
    evaluates it at several b computes them once and passes them on.
    """
    check_width(patterns.n, input=input_pattern.n)
    x = input_pattern.value
    return [(x ^ v).bit_count() for v in patterns.values]


def _law_weights(
    input_pattern: BitPattern,
    patterns: PatternSet,
    b: int,
    distances: Sequence[int] | None = None,
) -> list[float]:
    """cos^{2b}(pi d / 2n) per stored pattern, in pattern order.

    distances, when given, is law_distances(input_pattern, patterns). A
    pattern at maximal distance n weighs exactly zero for b >= 1.
    """
    if distances is None:
        distances = law_distances(input_pattern, patterns)
    n = patterns.n
    # One weight per distinct distance. cos(pi / 2) is not exactly 0, hence
    # the d = n case; for b = 0, x ** 0 is 1.0.
    by_distance = {
        d: 0.0 if d == n and b else math.cos(math.pi * d / (2 * n)) ** (2 * b)
        for d in set(distances)
    }
    return [by_distance[d] for d in distances]


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
    distances = law_distances(input_pattern, patterns)
    weights = _law_weights(input_pattern, patterns, b, distances)
    unnormalized = {q: w / patterns.p for q, w in zip(patterns, weights)}
    good_mass = _good_mass(unnormalized.values(), distances, patterns.n, b)
    conditional = {q: w / good_mass for q, w in unnormalized.items()}
    return AnalyticDistribution(unnormalized, conditional, good_mass)


def retrievable_mass(
    input_pattern: BitPattern,
    patterns: PatternSet,
    b: int,
    distances: Sequence[int] | None = None,
) -> float:
    """Good mass of the analytic law without its dicts; ZeroMassError when it is 0.

    distances, when given, is law_distances(input_pattern, patterns).
    """
    if distances is None:
        distances = law_distances(input_pattern, patterns)
    weights = _law_weights(input_pattern, patterns, b, distances)
    return _good_mass((w / patterns.p for w in weights), distances, patterns.n, b)


def _good_mass(masses, distances: Sequence[int], n: int, b: int) -> float:
    """The sum of the per-pattern good masses w / p; ZeroMassError when it is 0.

    The sum is 0 when every stored pattern lies at distance n, or when every
    cos^{2b}(pi d / 2n) falls below the smallest double at this b; the
    error says which.
    """
    good_mass = sum(masses)
    if good_mass == 0.0:
        if all(d == n for d in distances):
            raise ZeroMassError(
                "every stored pattern is at maximal distance from the input;"
                " retrieval is impossible"
            )
        raise ZeroMassError(
            f"the retrievable mass underflows to 0 at b = {b}: every weight"
            " cos^(2b)(pi d / 2n) is below the smallest double"
        )
    return good_mass


def good_subspace_probability(state: StateVector, branch: int) -> float:
    """Born mass of the all-0 (branch 0) or all-1 (branch 1) control subspace."""
    reg = state.layout.control
    return subspace_mass(state, reg.mask, good_control(reg, branch) << reg.offset)


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
    sin^2((2k+1) asin(sqrt(P))). A round touches the whole support (the
    whole vector in dense mode); a run of more than MAX_AMP_UPDATES such
    updates is refused with DimensionError before its first round.
    """
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    per_round = state.layout.dim if state.mode == "dense" else state.support_size
    if k * per_round > MAX_AMP_UPDATES:
        raise DimensionError(
            f"{k} amplification rounds over {per_round} amplitudes would take"
            f" {k * per_round} amplitude updates, over the limit of {MAX_AMP_UPDATES}"
        )
    current = state
    for _ in range(k):
        current = reflect_good_subspace(current, branch)
        current = reflect_about_state(current, state)
    return current


def _amplify_branch(
    start: StateVector, branch: int, config: RetrievalConfig, round_index: int
) -> tuple[float, int, StateVector]:
    """(good-subspace mass, iteration count, amplified state) of one branch.

    round_index only matters in estimate mode, where it varies the count.
    """
    p_good = good_subspace_probability(start, branch)
    mode = config.amplification_mode
    if mode.kind == "exact":
        k = optimal_iterations(p_good)
    elif mode.kind == "fixed":
        k = mode.k
    else:
        k = estimate_iterations(config.b, round_index)
    return p_good, k, amplitude_amplify(start, branch, k)


def _weighted_pipeline(
    input_pattern: BitPattern, patterns: PatternSet, config: RetrievalConfig
) -> tuple[float, StateVector]:
    """(gamma_bar, pipeline state) under the config.

    The good mass of the analytic law comes first, so an instance without
    retrievable mass raises ZeroMassError, as analytic_distribution does,
    before the branch weights are resolved; the law's dicts are left to
    the callers that read them.
    """
    retrievable_mass(input_pattern, patterns, config.b)
    gamma, gamma_bar = resolve_gamma(config.gamma_mode, patterns)
    state = run_pipeline(
        input_pattern, patterns, gamma, gamma_bar, config.b, config.representation
    )
    return gamma_bar, state


def _branch_start(pipeline: StateVector, branch: int) -> StateVector | None:
    """The pipeline state collapsed onto ancilla value branch; None if it is absent.

    A branch is absent when the state holds no ancilla mass on it, as when
    its prepared amplitudes sqrt(weight / p) are exactly 0; collapse_qubit
    refuses that outcome with ValueError, so the collapse decides presence.
    """
    try:
        return collapse_qubit(pipeline, pipeline.layout.ancilla.offset, branch)[1]
    except ValueError:
        return None


def _corrected(raw: BitPattern, branch: int) -> BitPattern:
    """The stored pattern a memory readout stands for: branch 1 reads mirrors."""
    return raw.mirror() if branch else raw


def _read_out(
    state: StateVector, branch: int, rng
) -> tuple[bool, BitPattern | None, BitPattern | None]:
    """Measure controls, then memory if all read branch: (succeeded, raw, corrected).

    The memory value is one draw from register_law of the good-control
    projection, as measure_register would draw it; its projection is not
    built, since nothing reads it.
    """
    control, mem = state.layout.control, state.layout.memory
    value, state = measure_register(state, control, rng)
    if value != good_control(control, branch):
        return False, None, None
    raw = BitPattern(register_law(state, mem).draw(rng.random()), mem.width)
    return True, raw, _corrected(raw, branch)


def retrieve(
    input_pattern: BitPattern,
    patterns: PatternSet,
    config: RetrievalConfig,
    rng=None,
    round_index: int = 0,
    state: tuple[float, StateVector] | None = None,
) -> RetrievalOutcome:
    """One retrieval round.

    Runs the pipeline, draws the branch from the weights (branch 1 when a
    uniform draw is below gamma_bar, as simulate_distribution draws it),
    collapses the ancilla onto it (_branch_start), amplifies toward that
    branch's good subspace, measures the controls, and, when they land in
    the good subspace, measures the memory register. Branch-1 results are
    mirror-corrected. A round drawn onto an absent branch fails with no
    amplification and good_probability_before 0.0. round_index only
    matters in estimate mode, where it varies the iteration count across
    retries. state, when given, must be the (gamma_bar, pipeline state)
    of these arguments, as _weighted_pipeline gives them; the round then
    starts from it instead of recomputing it.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    gamma_bar, pipeline = state or _weighted_pipeline(input_pattern, patterns, config)
    branch = 1 if rng.random() < gamma_bar else 0
    start = _branch_start(pipeline, branch)
    del pipeline  # freed here unless the caller keeps it for further rounds
    if start is None:
        return RetrievalOutcome(branch, 0, 0.0, False, None, None)
    p_good, k, amplified = _amplify_branch(start, branch, config, round_index)
    del start  # the readout peaks without the start state
    return RetrievalOutcome(branch, k, p_good, *_read_out(amplified, branch, rng))


def run_retrieval(
    input_pattern: BitPattern,
    patterns: PatternSet,
    config: RetrievalConfig,
    max_rounds: int = 5,
    rng=None,
) -> RetrievalRun:
    """Repeat retrieval rounds until one succeeds or the budget is spent.

    The deterministic pipeline is computed once, and every round collapses
    it onto the branch it draws. Failed rounds are reported, not
    hidden, since cost accounting counts them.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    state = _weighted_pipeline(input_pattern, patterns, config)
    rounds: list[RetrievalOutcome] = []
    for index in range(max_rounds):
        outcome = retrieve(
            input_pattern, patterns, config, rng, round_index=index, state=state
        )
        rounds.append(outcome)
        if outcome.succeeded:
            return RetrievalRun(outcome, tuple(rounds), index)
    return RetrievalRun(None, tuple(rounds), max_rounds)


def _edge_counts(rng, probs: np.ndarray, positions: np.ndarray, count: int):
    """Per ascending position, how many of count choice draws land on it.

    rng.choice(probs.size, size=count, p=probs / probs.sum()) draws
    position j for a uniform u with cdf[j-1] <= u < cdf[j], on the cdf
    divided by its last entry, so j's count is #{u < cdf[j]} -
    #{u < cdf[j-1]}: two binary searches among the sorted uniforms. The
    same cdf and the same uniforms as choice, so the same counts; only the
    edges at positions are divided.
    """
    # The cdf and the uniforms die on return, as choice's do: held through
    # the caller's loop, they moved later full-size dense arrays in the
    # heap and doubled the page faults of dense runs.
    cdf = np.cumsum(probs / probs.sum())
    ends = cdf[positions] / cdf[-1]
    starts = np.where(positions > 0, cdf[positions - 1], 0.0) / cdf[-1]
    uniforms = rng.random(count)
    uniforms.sort()
    return uniforms.searchsorted(ends) - uniforms.searchsorted(starts)


def _frequencies(counter: Counter) -> dict:
    """Each key's share of the counter's total, in the counter's order."""
    total = sum(counter.values())
    return {key: c / total for key, c in counter.items()} if total else {}


def simulate_distribution(
    input_pattern: BitPattern,
    patterns: PatternSet,
    config: RetrievalConfig,
    rng=None,
    strict: bool = False,
) -> DistributionReport:
    """Monte-Carlo retrieval shots compared against the analytic law.

    The pipeline comes from _weighted_pipeline, as retrieve's does, and it
    and the per-branch amplification are deterministic, so both paths
    compute each branch's post-amplification state once. Each shot draws
    its branch as a retrieve round does, branch 1 when a uniform draw is
    below gamma_bar. Each branch starts from _branch_start, as a retrieve
    round does; a branch absent from the pipeline state is not amplified,
    and a shot drawn onto it is a failed round, as such a retrieve round
    is. The default path draws all outcomes in bulk: one uniform per shot
    for its branch, then per branch the counts that rng.choice over the
    amplified support would draw at each good-control entry, found from
    the cdf edges of those entries among the sorted uniforms
    (_edge_counts); the branch's other shots are failed rounds. strict
    mode replays retrieve shot by shot, draw for draw: the same rng order
    (branch, control, then memory after a good control outcome) and the
    same outcomes as retrieve, but it builds each branch's control and
    memory laws once (register_law, as lists) and spends one bisection per
    draw; it exists to reproduce golden files.
    Both paths count memory values per branch (strict in first-draw
    order, bulk in ascending order) and key them by the law's own stored
    patterns, a branch-1 value by its mirror. The total variation distance
    is an exactly rounded math.fsum over the law's patterns, so it does
    not depend on set order.
    """
    analytic = analytic_distribution(input_pattern, patterns, config.b)
    gamma_bar, state = _weighted_pipeline(input_pattern, patterns, config)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    mem, control = state.layout.memory, state.layout.control

    # Collapse both branches first, so the two-branch state is released
    # before amplification builds its states.
    starts = {branch: _branch_start(state, branch) for branch in (0, 1)}
    del state
    branch_states: dict[int, StateVector] = {}
    iterations: dict[int, int] = {}
    for branch in (0, 1):
        if starts[branch] is not None:
            _, iterations[branch], branch_states[branch] = _amplify_branch(
                starts.pop(branch), branch, config, 0
            )

    value_counts: dict[int, Counter[int]] = {0: Counter(), 1: Counter()}
    branch_shots = {0: 0, 1: 0}
    failed = 0

    if strict:
        # The rng order of _read_out per shot: branch, control, and memory
        # only after a good control outcome. Each branch's laws are built
        # once; the memory law on the first good draw, so a branch that
        # holds no good amplitude never projects onto one.
        good = {branch: good_control(control, branch) for branch in (0, 1)}
        control_law = {
            branch: register_law(amplified, control).as_lists()
            for branch, amplified in branch_states.items()
        }
        memory_law = {}
        for _ in range(config.shots):
            branch = 1 if rng.random() < gamma_bar else 0
            branch_shots[branch] += 1
            law = control_law.get(branch)  # None: the branch is absent
            if law is None or law.draw(rng.random()) != good[branch]:
                failed += 1
                continue
            if branch not in memory_law:
                _, projected = collapse_register(
                    branch_states[branch], control, good[branch]
                )
                memory_law[branch] = register_law(projected, mem).as_lists()
            value_counts[branch][memory_law[branch].draw(rng.random())] += 1
    else:
        ones = int(np.count_nonzero(rng.random(config.shots) < gamma_bar))
        for branch, count in enumerate((config.shots - ones, ones)):
            branch_shots[branch] = count
            if count == 0 or branch not in branch_states:
                failed += count  # every shot onto an absent branch fails
                continue
            indices, amps = branch_states[branch].arrays()
            run = _selection(
                indices, control.mask, good_control(control, branch) << control.offset
            )
            if isinstance(run, slice):
                run = np.arange(run.start, run.stop)
            else:
                run = np.flatnonzero(run)
            counts = _edge_counts(rng, np.abs(amps) ** 2, run, count)
            failed += count - int(counts.sum())
            hit = counts > 0
            values = (indices[run[hit]] & mem.mask) >> mem.offset
            value_counts[branch].update(dict(zip(values.tolist(), counts[hit].tolist())))

    # Each memory value read on a branch stands for one stored pattern of
    # the law: itself on branch 0, its mirror on branch 1.
    law = list(analytic.conditional)
    keys = {
        0: dict(zip(patterns.values, law)),
        1: dict(zip(mirror_set(patterns).values, law)),
    }
    branch_counts = {
        branch: Counter({keys[branch][v]: c for v, c in counter.items()})
        for branch, counter in value_counts.items()
    }
    success_counts = branch_counts[0] + branch_counts[1]
    empirical = _frequencies(success_counts)
    tv = 0.5 * math.fsum(
        abs(empirical.get(q, 0.0) - w) for q, w in analytic.conditional.items()
    )
    return DistributionReport(
        analytic_unnormalized=analytic.unnormalized,
        analytic_conditional=analytic.conditional,
        empirical_frequency=empirical,
        empirical_count=dict(success_counts),
        empirical_by_branch={b: _frequencies(c) for b, c in branch_counts.items()},
        branch_shots=branch_shots,
        successes_by_branch={b: sum(c.values()) for b, c in branch_counts.items()},
        amplification_iterations=iterations,
        total_variation_distance=tv,
        shots=config.shots,
        successes=sum(success_counts.values()),
        failed_rounds=failed,
        good_mass=analytic.good_mass,
    )


def complexity_estimate(
    input_pattern: BitPattern,
    patterns: PatternSet,
    b: int,
    distances: Sequence[int] | None = None,
) -> float:
    """Amplification cost sqrt(p / sum_k cos^{2b}(pi d_k / 2n)).

    Equals the inverse square root of the within-branch good-subspace
    mass; infinite on zero-mass instances (reported, not raised).
    distances, when given, is law_distances(input_pattern, patterns); the
    sum runs in pattern order either way, so the cost is the same.
    """
    if b < 1:
        raise ValueError("b must be at least 1")
    total = sum(_law_weights(input_pattern, patterns, b, distances))
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
