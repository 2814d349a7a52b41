"""Tests of the benchmark itself: smoke runs emit every named metric, checks bite.

Run from the repository root: python3 -m pytest bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_named_metric(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in named]
    for metric in named:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in named)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "desk-sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_writes_same_inputs(workload, tmp_path):
    def inputs(name, seed):
        directory = tmp_path / name
        return [(i.words, i.input, i.b, i.gamma_mode,
                 [[x.replace(str(directory), "") for x in argv] for _, argv in i.ops])
                for i in workloads.generate(workload, seed, directory, smoke=True)]

    assert inputs("a", 7) == inputs("b", 7)
    assert inputs("a", 7) != inputs("c", 8)


def test_pinned_profile_sums_to_p():
    counts = workloads.pinned_profile(18, 512)
    assert sum(counts) == 512
    assert all(c <= math.comb(18, d) for d, c in enumerate(counts))


def test_complement_closed_memory_has_overlap_one():
    import numpy as np

    values = workloads.profile_patterns(np.random.default_rng(0), 6, 32, 5, closed=True)
    assert len(values) == 32 and {v ^ 63 for v in values} == set(values)


def distribution_report(words, input_word, b, shots=1000):
    weights = checks.law(words, input_word, b)
    mass = sum(weights.values())
    counts = {w: round(shots * weights[w] / mass) for w in words}
    successes = sum(counts.values())
    tv = 0.5 * sum(abs(counts[w] / successes - weights[w] / mass) for w in words)
    results = {key: {} for key in checks.RESULT_KEYS["distribution"]}
    results.update(analytic_unnormalized=dict(weights), empirical_count=counts,
                   branch_shots={"0": shots, "1": 0}, shots=shots, successes=successes,
                   failed_rounds=shots - successes, total_variation_distance=tv)
    return {"config": {}, "results": results, "version": "x", "timing_ms": 0.0}


def test_distribution_check_accepts_the_law_and_rejects_a_bent_weight():
    words, x = ["0000", "0011", "0111", "1111"], "0001"
    report = distribution_report(words, x, 2)
    checks.check_distribution(report, words, x, 2, 1000)
    report["results"]["analytic_unnormalized"]["0011"] *= 1 + 1e-9
    with pytest.raises(checks.CheckError, match="analytic weight"):
        checks.check_distribution(report, words, x, 2, 1000)


def test_retrieve_check_requires_mirror_correction_on_branch_one():
    words = ["0011", "0101"]
    results = {key: None for key in checks.RESULT_KEYS["retrieve"]}
    results.update(succeeded=True, ancilla_branch=1, raw_pattern="1100", output_pattern="0011",
                   rounds_used=1, failed_rounds=0, rounds=[{"succeeded": True}])
    report = {"config": {}, "results": results, "version": "x", "timing_ms": 0.0}
    checks.check_retrieve(report, words, 5)
    results["raw_pattern"] = "0011"
    with pytest.raises(checks.CheckError, match="mirror-corrected"):
        checks.check_retrieve(report, words, 5)


def test_tv_bound_shrinks_with_samples_and_grows_with_spread():
    uniform, peaked = [1 / 64] * 64, [0.9] + [0.1 / 63] * 63
    assert checks.tv_bound(uniform, 10_000) < checks.tv_bound(uniform, 1_000)
    assert checks.tv_bound(peaked, 10_000) < checks.tv_bound(uniform, 10_000)
    assert checks.tv_bound(uniform, 0) == math.inf
