"""Seeded workload generator.

Each workload is a list of instances. An instance is one pattern file plus
the CLI argument lists (and, on dense-crosscheck, one sparse/dense
cross-check) that the run puts it through. ``--seed`` draws the pattern
contents and inputs, so the same seed writes the same files and arguments;
instance sizes and per-call CLI seeds are fixed, so that a run's cost does
not move with the seed.

Patterns are written as words whose leftmost character is qubit 1, the
pattern-file convention; internally a word is an int whose bit j is
character j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("desk-sweep", "wide-memory", "dense-crosscheck")

# desk-sweep draws its (n, p, b) schedule from this constant seed, so every
# --seed runs the same mix of sizes in the same order and only the pattern
# contents and inputs change. Per-instance cost spans two orders
# of magnitude across sizes; a seed-dependent mix would make the medians
# move with the seed rather than with the code.
DESK_SHAPE_SEED = 2206_01644
DESK_INSTANCES = 400
DESK_SHOTS = 10_000
DESK_STRICT_SHOTS = 200

WIDE_SHAPE = (18, 512, 8)
WIDE_SHOTS = 100_000
# Per-call seeds of the retrieve calls in every wide-memory instance. With
# the distance profile pinned (see pinned_profile) these seeds use the same
# rounds on every --seed, so retrieve_s does not jump between 1 and 2 rounds.
WIDE_RETRIEVE_SEEDS = (0, 1)

DENSE_SHAPES = ((13, 64, 6), (12, 128, 7))
DENSE_INSTANCES = 64
DENSE_SHOTS = 10_000
DENSE_AMP_ROUNDS = 3

RETRIES = 5
COMPLEXITY_B_RANGE = "1:16"

SMOKE_DESK_SHAPES = ((5, 8, 2), (6, 8, 3), (5, 6, 2), (6, 10, 2))
SMOKE_WIDE_SHAPE = (8, 16, 3)
SMOKE_DENSE_SHAPES = ((6, 8, 3), (5, 8, 3))


@dataclass
class Instance:
    index: int
    path: str
    words: list[str]
    input: str
    n: int
    p: int
    b: int
    gamma_mode: str
    ops: list[tuple[str, list[str]]] = field(default_factory=list)

    @property
    def branch_weights(self) -> tuple[float, float]:
        return (1.0, 0.0) if self.gamma_mode == "memory-only" else (0.5, 0.5)


def word(value: int, n: int) -> str:
    return "".join(str((value >> j) & 1) for j in range(n))


def pinned_profile(n: int, p: int) -> list[int]:
    """Pattern counts per Hamming distance d = 0..n from the input.

    The counts are the expected counts for p uniform random words, rounded
    by largest remainder. Good-subspace mass depends only on this profile,
    so pinning it keeps the amplification schedule, and with fixed per-call
    seeds the rounds each call uses, the same on every --seed.
    """
    expected = [p * math.comb(n, d) / 2**n for d in range(n + 1)]
    counts = [int(x) for x in expected]
    order = sorted(range(n + 1), key=lambda d: counts[d] - expected[d])
    for d in order[: p - sum(counts)]:
        counts[d] += 1
    return counts


def profile_patterns(rng, n: int, p: int, centre: int, closed: bool = False) -> list[int]:
    """Uniform random words at the pinned distance profile around centre.

    closed draws p/2 words at the pinned profile of p/2 and adds their
    complements, so the memory is complement-closed (overlap s = 1).
    """
    full = (1 << n) - 1
    chosen: set[int] = set()
    for d, count in enumerate(pinned_profile(n, p // 2 if closed else p)):
        placed = 0
        for _ in range(1000 * (count + 1)):
            if placed == count:
                break
            v = centre ^ sum(1 << int(j) for j in rng.choice(n, size=d, replace=False))
            if v in chosen or (closed and v ^ full in chosen):
                continue
            chosen.update((v, v ^ full) if closed else (v,))
            placed += 1
        else:
            raise ValueError(f"cannot place {count} words at distance {d} for n={n}, p={p}")
    return sorted(chosen)


def _instance(directory: Path, rng, j: int, shape, gamma_mode: str) -> Instance:
    n, p, b = shape
    centre = int(rng.integers(0, 1 << n))
    values = profile_patterns(rng, n, p, centre, closed=gamma_mode == "cloning")
    words = [word(v, n) for v in values]
    path = directory / f"patterns-{j:04d}.txt"
    path.write_text("\n".join(words) + "\n", encoding="utf-8")
    return Instance(j, str(path), words, word(centre, n), n, p, b, gamma_mode)


def _add_cli_ops(inst: Instance, shots: int, mode: str, retrieve_seeds, strict_shots=None) -> None:
    """The four subcommands, and a strict replay when strict_shots is given.

    Per-call seeds are fixed (the instance index, or retrieve_seeds), not
    drawn from --seed: with the distance profile pinned, each call then
    takes the same rounds and shots on every --seed.
    """
    seed = str(inst.index)
    common = ["--patterns", inst.path, "--input", inst.input, "--b", str(inst.b),
              "--gamma-mode", inst.gamma_mode]
    inst.ops.append(("distribution", ["distribution", *common, "--mode", mode,
                                      "--shots", str(shots), "--seed", seed]))
    for s in retrieve_seeds:
        inst.ops.append(("retrieve", ["retrieve", *common, "--mode", mode, "--amp-mode",
                                      "estimate", "--retries", str(RETRIES), "--seed", str(s)]))
    inst.ops.append(("clone-check", ["clone-check", "--patterns", inst.path]))
    inst.ops.append(("complexity", ["complexity", "--patterns", inst.path, "--input",
                                    inst.input, "--b-range", COMPLEXITY_B_RANGE]))
    if strict_shots:
        inst.ops.append(("strict", ["distribution", *common, "--shots", str(strict_shots),
                                    "--strict-deterministic", "--seed", seed]))


def _desk(directory: Path, rng, smoke: bool) -> list[Instance]:
    shape_rng = np.random.default_rng(DESK_SHAPE_SEED)
    instances = []
    for j in range(len(SMOKE_DESK_SHAPES) if smoke else DESK_INSTANCES):
        # a quarter complement-closed under cloning weights, the rest split
        # between memory-only and both branches at fixed:0.5
        gamma_mode = ("cloning", "memory-only", "fixed:0.5", "memory-only")[j % 4]
        if smoke:
            n, p, b = SMOKE_DESK_SHAPES[j]
        else:
            n = int(shape_rng.integers(6, 13))
            p = int(round(2 ** shape_rng.uniform(3, 6)))
            b = int(shape_rng.integers(2, 7))
        if gamma_mode == "cloning":
            p = min(p + p % 2, 2 ** (n - 1))
        inst = _instance(directory, rng, j, (n, p, b), gamma_mode)
        _add_cli_ops(inst, 200 if smoke else DESK_SHOTS, "sparse", [j],
                     strict_shots=20 if smoke else DESK_STRICT_SHOTS)
        instances.append(inst)
    return instances


def _wide(directory: Path, rng, smoke: bool) -> list[Instance]:
    inst = _instance(directory, rng, 0, SMOKE_WIDE_SHAPE if smoke else WIDE_SHAPE, "fixed:0.5")
    _add_cli_ops(inst, 2000 if smoke else WIDE_SHOTS, "sparse", WIDE_RETRIEVE_SEEDS)
    return [inst]


def _dense(directory: Path, rng, smoke: bool) -> list[Instance]:
    shapes = SMOKE_DENSE_SHAPES if smoke else DENSE_SHAPES
    instances = []
    for j in range(len(shapes) if smoke else DENSE_INSTANCES):
        inst = _instance(directory, rng, j, shapes[j % len(shapes)], "fixed:0.5")
        inst.ops.append(("crosscheck", []))
        _add_cli_ops(inst, 500 if smoke else DENSE_SHOTS, "dense", [j])
        instances.append(inst)
    return instances


def generate(workload: str, seed: int, directory: Path, smoke: bool = False) -> list[Instance]:
    """Write the workload's pattern files under directory and return its instances."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    directory.mkdir(parents=True, exist_ok=True)
    for old in directory.glob("patterns-*.txt"):
        old.unlink()
    rng = np.random.default_rng(seed)
    build = {"desk-sweep": _desk, "wide-memory": _wide, "dense-crosscheck": _dense}
    return build[workload](directory, rng, smoke)
