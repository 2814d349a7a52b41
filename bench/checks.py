"""Output checks that stay independent of the code under test.

The law, the overlap and the cost formula are recomputed here from Hamming
distances on plain ints, never through ``analytic_distribution`` or the
other library helpers they are meant to judge. Every check raises
``CheckError`` with a one-line reason.
"""

from __future__ import annotations

import math

from workloads import word

REPORT_KEYS = {"config", "results", "version", "timing_ms"}
RESULT_KEYS = {
    "distribution": {
        "analytic_unnormalized", "analytic_conditional", "empirical_frequency",
        "empirical_count", "empirical_by_branch", "branch_shots",
        "amplification_iterations", "total_variation_distance", "shots",
        "successes", "failed_rounds", "good_mass",
    },
    "retrieve": {
        "succeeded", "ancilla_branch", "raw_pattern", "output_pattern",
        "amplification_iterations", "good_probability_before", "failed_rounds",
        "rounds_used", "output_conditional_probability", "analytic_conditional",
        "rounds",
    },
    "clone-check": {"overlap", "verdict", "feasible", "gamma", "gamma_bar", "diagnostic", "gram"},
    "complexity": {"n", "p", "grover_baseline", "table"},
}

WEIGHT_TOL = 1e-12
STATE_TOL = 1e-12
MASS_TOL = 1e-10
# Chance that a correct sampler exceeds the TV bound on one call.
TV_FAILURE_PROBABILITY = 1e-9


class CheckError(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def to_int(w: str) -> int:
    return sum(1 << j for j, c in enumerate(w) if c == "1")


def complement(w: str) -> str:
    return "".join("1" if c == "0" else "0" for c in w)


def law(words: list[str], input_word: str, b: int) -> dict[str, float]:
    """Unnormalized within-branch weights (1/p) cos^{2b}(pi d / 2n)."""
    n, p, x = len(input_word), len(words), to_int(input_word)
    weights = {}
    for w in words:
        d = (to_int(w) ^ x).bit_count()
        weights[w] = 0.0 if d == n else math.cos(math.pi * d / (2 * n)) ** (2 * b) / p
    return weights


def tv_bound(probs: list[float], samples: int) -> float:
    """TV distance a correct sampler of probs stays under, except with TV_FAILURE_PROBABILITY.

    E[TV] <= 1/2 sum_i sqrt(p_i (1 - p_i) / N) for N samples, and one sample
    moves TV by at most 1/N, so McDiarmid adds sqrt(ln(1 / delta) / (2 N)).
    """
    if samples == 0:
        return math.inf
    mean = 0.5 * sum(math.sqrt(q * (1 - q) / samples) for q in probs)
    return mean + math.sqrt(math.log(1 / TV_FAILURE_PROBABILITY) / (2 * samples))


def check_report(command: str, report: dict) -> dict:
    require(set(report) == REPORT_KEYS, f"{command}: report keys {sorted(report)}")
    results = report["results"]
    missing = RESULT_KEYS[command] - set(results)
    require(not missing, f"{command}: results lack {sorted(missing)}")
    return results


def check_distribution(report: dict, words: list[str], input_word: str, b: int, shots: int) -> None:
    r = check_report("distribution", report)
    weights = law(words, input_word, b)
    got = r["analytic_unnormalized"]
    require(set(got) == set(weights), "distribution: analytic support is not the stored set")
    worst = max(abs(got[w] - weights[w]) for w in weights)
    require(worst <= WEIGHT_TOL, f"distribution: analytic weight off the law by {worst:.3g}")
    require(r["shots"] == shots, f"distribution: shots {r['shots']} != {shots}")
    require(r["successes"] + r["failed_rounds"] == shots,
            f"distribution: successes {r['successes']} + failed {r['failed_rounds']} != {shots}")
    require(sum(r["branch_shots"].values()) == shots, "distribution: branch shots do not sum to shots")
    counts = r["empirical_count"]
    require(set(counts) <= set(weights), "distribution: sampled a pattern that is not stored")
    require(sum(counts.values()) == r["successes"], "distribution: counts do not sum to successes")
    if r["successes"] == 0:
        return
    mass = sum(weights.values())
    tv = 0.5 * sum(abs(counts.get(w, 0) / r["successes"] - weights[w] / mass) for w in weights)
    require(abs(tv - r["total_variation_distance"]) <= 1e-9,
            f"distribution: reported TV {r['total_variation_distance']:.6g} != {tv:.6g}")
    bound = tv_bound([v / mass for v in weights.values()], r["successes"])
    require(tv <= bound, f"distribution: TV {tv:.4g} above sampling bound {bound:.4g}")


def check_retrieve(report: dict, words: list[str], retries: int) -> dict:
    r = check_report("retrieve", report)
    rounds = r["rounds"]
    require(r["rounds_used"] == len(rounds) and 1 <= len(rounds) <= retries,
            f"retrieve: rounds_used {r['rounds_used']} with {len(rounds)} rounds")
    require(r["failed_rounds"] == len(rounds) - (1 if r["succeeded"] else 0),
            "retrieve: failed_rounds inconsistent with rounds")
    require(all(not x["succeeded"] for x in rounds[:-1]), "retrieve: kept retrying after a success")
    if r["succeeded"]:
        raw, out = r["raw_pattern"], r["output_pattern"]
        require(out in set(words), f"retrieve: output {out} is not a stored pattern")
        expected = complement(raw) if r["ancilla_branch"] == 1 else raw
        require(out == expected, "retrieve: branch-1 output is not the mirror-corrected raw pattern")
    else:
        require(r["output_pattern"] is None, "retrieve: failed run reports an output")
    return r


def check_clone(report: dict, words: list[str]) -> None:
    r = check_report("clone-check", report)
    stored = set(words)
    s = sum(1 for w in words if complement(w) in stored) / len(words)
    require(abs(r["overlap"] - s) <= 1e-15, f"clone-check: overlap {r['overlap']} != {s}")
    require(r["feasible"] == (s == 1.0), f"clone-check: feasible={r['feasible']} at overlap {s}")
    if s == 1.0:
        require(abs(r["gamma"] - 0.5) <= 1e-12 and r["gram"]["passed"],
                "clone-check: closed memory lacks gamma = 1/2 with a passing Gram check")


def check_complexity(report: dict, words: list[str], input_word: str, b_values: range) -> None:
    r = check_report("complexity", report)
    n, p = len(input_word), len(words)
    require(abs(r["grover_baseline"] - math.sqrt(2.0**n)) <= 1e-9, "complexity: wrong Grover baseline")
    table = r["table"]
    require([row["b"] for row in table] == list(b_values), "complexity: table rows != b range")
    for row in table:
        mass = sum(law(words, input_word, row["b"]).values()) * p
        cost = math.sqrt(p / mass)
        require(abs(row["instance_cost"] - cost) <= 1e-9 * cost,
                f"complexity: cost at b={row['b']} is {row['instance_cost']}, law gives {cost}")


def check_states_agree(a: dict[int, complex], b: dict[int, complex], what: str) -> None:
    """Largest amplitude difference over the union of both supports is within STATE_TOL."""
    gap = max((abs(a.get(i, 0j) - b.get(i, 0j)) for i in a.keys() | b.keys()), default=0.0)
    require(gap <= STATE_TOL, f"{what}: amplitudes differ by {gap:.3g}")


def check_good_mass(amps: dict[int, complex], words: list[str], input_word: str, b: int,
                    branch_weights: tuple[float, float]) -> None:
    """Per-pattern good-subspace mass of the pre-measurement state against the law.

    Register offsets follow the retrieval layout: memory bits 0..n-1,
    control bits n..n+b-1, ancilla bit n+b.
    """
    n = len(input_word)
    weights = law(words, input_word, b)
    full_control = (1 << b) - 1
    mass: dict[tuple[int, str], float] = {}
    for index, amp in amps.items():
        branch = (index >> (n + b)) & 1
        if (index >> n) & full_control != (full_control if branch else 0):
            continue
        w = word(index & ((1 << n) - 1), n)
        key = (branch, complement(w) if branch else w)
        mass[key] = mass.get(key, 0.0) + abs(amp) ** 2
    for branch, gamma in enumerate(branch_weights):
        if gamma == 0.0:
            continue
        for w, weight in weights.items():
            got = mass.pop((branch, w), 0.0) / gamma
            require(abs(got - weight) <= MASS_TOL,
                    f"good mass of {w} on branch {branch} is {got:.12g}, law gives {weight:.12g}")
    require(all(v <= MASS_TOL for v in mass.values()), "good subspace holds an unstored pattern")

