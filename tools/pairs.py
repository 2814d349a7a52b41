"""Alternating benchmark pairs of two trees, summarized per metric.

Runs bench/run.py from the root of each of two trees, a parent and a
change, for N pairs per workload: odd pairs run the parent first, even
pairs the change first, so a drift of the host's speed falls on both
sides alike. Then prints one JSON object, ready for a BENCH_<n>.json:
per workload and per end-to-end metric of BENCHMARK.json, each side's
median and quartiles (statistics.quantiles' default cut points), the
pairs the change wins, whether its median stays within the metric's
bound of the parent's, and whether the claim rule holds: the change is
better in at least 9 of 10 pairs, and its median is better than the
parent's by more than the parent's interquartile range.

    python tools/pairs.py PARENT_ROOT CHANGE_ROOT --workload desk-sweep \\
        --pairs 10 --seed 4242 --seconds 40

Each root holds its own src/, bench/ and BENCHMARK.json; the metrics'
directions and bounds come from the change root's BENCHMARK.json. The
trees are only read and run, never edited.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(runs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of the runs; all three are the run itself for one run."""
    if len(runs) == 1:
        return runs[0], runs[0], runs[0]
    q1, median, q3 = statistics.quantiles(runs, n=4)
    return q1, median, q3


def summarize(
    parent: list[float], change: list[float], better: str, bound: float | None = None
) -> dict:
    """One metric over pairs: parent[i] and change[i] ran as pair i.

    better is "lower" or "higher". A pair is a win when the change is
    strictly better. The gap is the change's median gain over the parent's
    median, in the better direction; the claim rule holds when the change
    wins at least 9 in 10 pairs and the gap exceeds the parent's IQR.
    within_bound (when a bound is given) holds when the change's median is
    worse than the parent's by at most that fraction of the parent's.
    """
    if better not in ("lower", "higher") or len(parent) != len(change) or not parent:
        raise ValueError("need equal, nonempty run lists and better lower or higher")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    out = {
        "pairs": len(parent),
        "parent": {"median": pm, "q1": p1, "q3": p3},
        "change": {"median": cm, "q1": c1, "q3": c3},
        "change_wins": wins,
        "median_change_ratio": cm / pm if pm else math.nan,
        "worse_by_fraction_of_parent_median": -gain / abs(pm) if pm else math.nan,
        "parent_iqr": p3 - p1,
        "median_gap_exceeds_parent_iqr": gain > p3 - p1,
        "claim_rule_holds": 10 * wins >= 9 * len(parent) and gain > p3 - p1,
    }
    if bound is not None:
        out["bound"] = bound
        out["within_bound"] = out["worse_by_fraction_of_parent_median"] <= bound
    return out


def summarize_workload(results: dict[str, list[dict]], specs: list[dict]) -> dict:
    """Summary of one workload's runs, results[side][i] being pair i's output.

    Each output is the last stdout line of bench/run.py, as a dict; specs
    are BENCHMARK.json's end_to_end entries. A metric is summarized over
    the pairs in which both sides report a value.
    """
    out = {
        "pairs": len(results["parent"]),
        "order": "odd pairs ran the parent first, even pairs the change first",
        "attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "correct": all(r["correct"] for side in SIDES for r in results[side]),
        "metrics": {},
    }
    for spec in specs:
        name = spec["name"]
        pairs = [
            (p["metrics"].get(name, {}).get("value"), c["metrics"].get(name, {}).get("value"))
            for p, c in zip(results["parent"], results["change"])
        ]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            out["metrics"][name] = {"unit": spec["unit"], "pairs": 0}
            continue
        parent, change = [p for p, _ in pairs], [c for _, c in pairs]
        out["metrics"][name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            **summarize(parent, change, spec["better"], spec.get("bound")),
            "parent_runs": parent,
            "change_runs": change,
        }
    return out


def bench_run(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(result, environment) of one bench/run.py run from root."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"bench/run.py in {root} exited {done.returncode}: {done.stderr}")
    env = next((json.loads(line[6:]) for line in lines if line.startswith("# env ")), {})
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent, "change": args.change}
    specs = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    report = {
        "benchmark": f"python3 bench/run.py --workload W --seed {args.seed}"
        f" --seconds {args.seconds:g} --trace 0, from each side's root",
        "sides": {},
        "end_to_end_pairs": {},
    }
    for workload in args.workload:
        results: dict[str, list[dict]] = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result, env = bench_run(roots[side], workload, args.seed, args.seconds)
                results[side].append(result)
                report["sides"].setdefault(side, {
                    "commit": env.get("commit"), "src_sha256": env.get("src_sha256")})
                print(f"# {workload} pair {pair + 1} {side} done", file=sys.stderr)
        report["end_to_end_pairs"][f"{workload} seed {args.seed}"] = summarize_workload(
            results, specs)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
