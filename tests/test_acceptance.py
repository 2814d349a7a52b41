"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and match the library's documented
guarantees; runtime bounds are asserted where the criterion carries one.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mirrorqam.memory import (
    gram_condition_check,
    gram_residual,
    solve_efficiencies,
)
from mirrorqam.errors import SingularOverlapError, ZeroMassError
from mirrorqam.patterns import BitPattern, PatternSet, random_pattern_set
from mirrorqam.retrieval import (
    GammaMode,
    RetrievalConfig,
    amplitude_amplify,
    analytic_distribution,
    apply_difference_encoding,
    complexity_estimate,
    complexity_uniform_approx,
    cos_power_average,
    good_subspace_probability,
    prepare_initial,
    run_pipeline,
    simulate_distribution,
    undo_difference_encoding,
)
from mirrorqam.statevector import (
    RegisterLayout,
    StateVector,
    apply_hadamard,
    apply_hamming_phase,
    apply_not,
    apply_xor,
    collapse_qubit,
    reflect_good_subspace,
)

from conftest import random_input
from oracles import (
    encode,
    mirror_branch_conditional,
    probability_of_subspace,
    quadrature_cos_power_average,
    tv_distance,
)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS")


def drawn_instances(seed, count, allow_zero_mass=False):
    """Deterministic stream of (patterns, input, b) desk-scale instances."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(3, 7))
        p = min(int(rng.integers(2, 9)), 2**n)
        b = int(rng.integers(1, 5))
        patterns = random_pattern_set(n, p, rng)
        inp = random_input(n, rng)
        if not allow_zero_mass:
            try:
                analytic_distribution(inp, patterns, b)
            except ZeroMassError:
                continue
        out.append((patterns, inp, b))
    return out


def test_criterion_1_distribution_law():
    with criterion(1, "distribution law"):
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        for patterns, inp, b in drawn_instances(seed=11, count=25):
            gamma = float(rng.uniform(0.1, 0.9))
            state = run_pipeline(inp, patterns, gamma, 1 - gamma, b)
            lay = state.layout
            mem, ctrl, anc = lay.memory, lay.control, lay.ancilla
            n, p = patterns.n, patterns.p
            for q in patterns:
                d = sum(x != y for x, y in zip(inp.bits, q.bits))
                weight = (
                    0.0 if d == n else math.cos(math.pi * d / (2 * n)) ** (2 * b)
                )
                index0 = encode(mem, q.bits)  # ancilla 0, controls all-0
                got0 = probability_of_subspace(state, lambda i: i == index0)
                assert abs(got0 - gamma * weight / p) <= 1e-10
                index1 = encode(mem, q.mirror().bits) | ctrl.mask | anc.mask
                got1 = probability_of_subspace(state, lambda i: i == index1)
                assert abs(got1 - (1 - gamma) * weight / p) <= 1e-10
        assert time.perf_counter() - started < 10.0


def test_criterion_2_branch_equivalence():
    with criterion(2, "branch equivalence"):
        started = time.perf_counter()
        instances = drawn_instances(seed=11, count=25)
        # Analytic: the mirror-corrected branch-1 law, derived through the
        # agreement-count sine, equals the branch-0 law.
        for patterns, inp, b in instances:
            cond0 = analytic_distribution(inp, patterns, b).conditional
            cond1 = mirror_branch_conditional(inp, patterns, b)
            for q in patterns:
                assert abs(cond0[q] - cond1[q]) <= 1e-12
        # Empirical: both branches sampled at 1e5 shots with a fixed seed.
        shot_rng = np.random.default_rng(202)
        for patterns, inp, b in instances:
            config = RetrievalConfig(
                b=b,
                gamma_mode=GammaMode.fixed(0.5),
                shots=100_000,
                seed=int(shot_rng.integers(0, 2**31)),
            )
            report = simulate_distribution(inp, patterns, config)
            assert report.branch_shots[0] > 0 and report.branch_shots[1] > 0
            assert (
                tv_distance(
                    report.empirical_by_branch[0], report.empirical_by_branch[1]
                )
                <= 0.02
            )
        assert time.perf_counter() - started < 60.0


def test_criterion_3_amplification_law():
    with criterion(3, "amplification law"):
        for patterns, inp, b in drawn_instances(seed=33, count=10):
            state = run_pipeline(inp, patterns, 1.0, 0.0, b)
            _, collapsed = collapse_qubit(state, state.layout.ancilla.offset, 0)
            p_good = good_subspace_probability(collapsed, 0)
            theta = math.asin(math.sqrt(min(p_good, 1.0)))
            for k in range(0, 21):
                amplified = amplitude_amplify(collapsed, 0, k)
                got = good_subspace_probability(amplified, 0)
                assert abs(got - math.sin((2 * k + 1) * theta) ** 2) <= 1e-9
        # P_good exactly 1/4: one round reaches certainty.
        lay = RegisterLayout.retrieval(1, 2)
        good = encode(lay.memory, (1,))
        bad = good | encode(lay.control, (1, 0))
        state = StateVector.from_amplitudes(lay, {good: 0.5, bad: math.sqrt(0.75)})
        amplified = amplitude_amplify(state, 0, 1)
        assert abs(good_subspace_probability(amplified, 0) - 1.0) <= 1e-9


def test_criterion_4_complexity_formulas():
    with criterion(4, "complexity formulas"):
        for b in range(0, 31):
            exact = cos_power_average(b)
            numeric = quadrature_cos_power_average(b)
            assert abs(exact - numeric) <= 1e-8 * abs(numeric)
        for b in (64, 96, 128):
            exact_cost = math.sqrt(1.0 / cos_power_average(b))
            assert abs(complexity_uniform_approx(b) / exact_cost - 1.0) <= 0.02
        for patterns, inp, b in drawn_instances(seed=44, count=10):
            cost = complexity_estimate(inp, patterns, b)
            state = run_pipeline(inp, patterns, 1.0, 0.0, b)
            _, collapsed = collapse_qubit(state, state.layout.ancilla.offset, 0)
            mass = good_subspace_probability(collapsed, 0)
            assert abs(cost * cost * mass - 1.0) <= 1e-10


def test_criterion_5_cloning_feasibility():
    with criterion(5, "cloning feasibility"):
        closed_sets = [
            PatternSet.from_strings(["00", "11"]),
            PatternSet.from_strings(["000", "111", "010", "101"]),
            PatternSet.from_strings(["0110", "1001"]),
        ]
        for patterns in closed_sets:
            check = gram_condition_check(patterns, 0.5, 0.5)
            assert check.passed and check.max_residual < 1e-12
        overlapped_sets = [
            (
                PatternSet.from_strings(
                    ["0000", "1111", "0001", "0010", "0100", "1000", "0011", "0101"]
                ),
                0.25,
            ),
            (PatternSet.from_strings(["000", "111", "001", "010"]), 0.5),
            (PatternSet.from_strings(["000", "111", "001"]), 2 / 3),
        ]
        for patterns, s in overlapped_sets:
            check = gram_condition_check(patterns, 0.5, 0.5)
            assert not check.passed
            assert check.max_residual == pytest.approx(s - s * s, abs=1e-12)
        for step in range(1, 20):
            s = step * 0.05
            assert not solve_efficiencies(s).feasible
            assert not gram_residual(s, 0.5, 0.5).passed
        assert solve_efficiencies(1.0).feasible
        with pytest.raises(SingularOverlapError):
            solve_efficiencies(0.0)


def test_criterion_6_reversibility_and_unitarity():
    with criterion(6, "reversibility and unitarity"):
        rng = np.random.default_rng(66)
        lay = RegisterLayout.retrieval(4, 3)
        state = StateVector.basis_state(lay, 0)
        controls = list(lay.control.bits())
        for _ in range(1000):
            op = rng.integers(0, 5)
            if op == 0:
                state = apply_not(state, int(rng.integers(0, lay.total_qubits)))
            elif op == 1:
                c, t = rng.choice(lay.total_qubits, size=2, replace=False)
                state = apply_xor(state, int(c), int(t))
            elif op == 2:
                state = apply_hadamard(state, int(rng.integers(0, lay.total_qubits)))
            elif op == 3:
                state = apply_hamming_phase(state, int(rng.choice(controls)))
            else:
                state = reflect_good_subspace(state, int(rng.integers(0, 2)))
            assert abs(state.norm() - 1.0) <= 1e-10
        # Difference encoding round-trips exactly (bit flips permute keys).
        for patterns, inp, b in drawn_instances(seed=67, count=10):
            layout = RegisterLayout.retrieval(patterns.n, b)
            st = prepare_initial(inp, patterns, 0.5, 0.5, layout)
            back = undo_difference_encoding(apply_difference_encoding(st, inp), inp)
            assert back.as_dict() == st.as_dict()
        # Sparse and dense full pipelines agree amplitude-by-amplitude.
        pipeline_rng = np.random.default_rng(68)
        done = 0
        while done < 10:
            n = int(pipeline_rng.integers(2, 5))
            b = int(pipeline_rng.integers(1, 4))
            p = min(int(pipeline_rng.integers(2, 7)), 2**n)
            patterns = random_pattern_set(n, p, pipeline_rng)
            inp = random_input(n, pipeline_rng)
            sparse = run_pipeline(inp, patterns, 0.5, 0.5, b, mode="sparse")
            dense = run_pipeline(inp, patterns, 0.5, 0.5, b, mode="dense")
            assert sparse.allclose(dense, 1e-12)
            try:
                analytic_distribution(inp, patterns, b)
            except ZeroMassError:
                continue
            for branch in (0, 1):
                _, cs = collapse_qubit(sparse, sparse.layout.ancilla.offset, branch)
                _, cd = collapse_qubit(dense, dense.layout.ancilla.offset, branch)
                ks = amplitude_amplify(cs, branch, 2)
                kd = amplitude_amplify(cd, branch, 2)
                assert ks.allclose(kd, 1e-12)
            done += 1


def test_criterion_7_accuracy_complexity_tradeoff():
    with criterion(7, "accuracy/complexity trade-off"):
        # Unique nearest at distance 0, every other pattern at >= n/2.
        patterns = PatternSet.from_strings(["0000", "1111", "1100", "0011"])
        inp = BitPattern.from_string("0000")
        nearest = BitPattern.from_string("0000")
        previous, best = 0.0, 0.0
        for b in range(1, 9):
            value = analytic_distribution(inp, patterns, b).conditional[nearest]
            assert value >= previous - 1e-15
            previous = value
            best = max(best, value)
        assert best > 0.99


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "mirrorqam", *args], capture_output=True, text=True
    )


def test_criterion_8_cli_reproducibility(tmp_path):
    with criterion(8, "CLI reproducibility"):
        path = tmp_path / "patterns.txt"
        path.write_text("0000\n0011\n1100\n1111\n", encoding="utf-8")
        commands = [
            ("distribution", "--patterns", str(path), "--input", "0001", "--b",
             "2", "--shots", "3000", "--seed", "99", "--strict-deterministic"),
            ("retrieve", "--patterns", str(path), "--input", "0001", "--b", "2",
             "--seed", "99", "--strict-deterministic"),
            ("clone-check", "--patterns", str(path)),
            ("complexity", "--patterns", str(path), "--input", "0001",
             "--b-range", "1:6"),
        ]
        for command in commands:
            first, second = run_cli(*command), run_cli(*command)
            assert first.returncode == 0 and second.returncode == 0
            a = json.dumps(json.loads(first.stdout)["results"], sort_keys=True)
            b = json.dumps(json.loads(second.stdout)["results"], sort_keys=True)
            assert a.encode() == b.encode()
        csv_command = (
            "distribution", "--patterns", str(path), "--input", "0001", "--b",
            "2", "--shots", "1000", "--seed", "7", "--strict-deterministic",
            "--format", "csv",
        )
        assert run_cli(*csv_command).stdout == run_cli(*csv_command).stdout
