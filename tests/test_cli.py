"""End-to-end CLI tests: flags, report schema, exit codes, reproducibility."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorqam import cli
from mirrorqam.errors import ZeroMassError
from mirrorqam.patterns import BitPattern, parse_pattern_file
from mirrorqam.retrieval import DistributionReport, RetrievalOutcome, complexity_estimate

REPORT_KEYS = {"config", "results", "version", "timing_ms"}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "mirrorqam", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def pattern_file(tmp_path):
    def write(text, name="patterns.txt"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestDistributionCommand:
    def test_report_schema_and_values(self, pattern_file):
        path = pattern_file("00\n01\n")
        result = run_cli(
            "distribution", "--patterns", path, "--input", "00", "--b", "2",
            "--shots", "100000", "--seed", "42",
        )
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert set(report) == REPORT_KEYS
        results = report["results"]
        assert results["analytic_conditional"]["00"] == pytest.approx(0.8)
        assert results["analytic_conditional"]["01"] == pytest.approx(0.2)
        assert results["total_variation_distance"] < 0.01
        assert report["config"]["seed"] == 42

    def test_seed_reported_when_auto_generated(self, pattern_file):
        path = pattern_file("00\n01\n")
        result = run_cli(
            "distribution", "--patterns", path, "--input", "00", "--b", "1",
            "--shots", "10",
        )
        assert result.returncode == 0
        assert isinstance(json.loads(result.stdout)["config"]["seed"], int)

    def test_csv_table(self, pattern_file):
        path = pattern_file("00\n01\n")
        result = run_cli(
            "distribution", "--patterns", path, "--input", "00", "--b", "2",
            "--shots", "1000", "--seed", "1", "--format", "csv",
        )
        lines = result.stdout.strip().splitlines()
        assert lines[0] == (
            "pattern,hamming_distance,analytic_unnormalized,analytic_conditional,"
            "empirical_frequency,empirical_count"
        )
        assert len(lines) == 3

    def test_dense_strict_mode(self, pattern_file):
        path = pattern_file("00\n11\n")
        result = run_cli(
            "distribution", "--patterns", path, "--input", "00", "--b", "1",
            "--shots", "200", "--seed", "5", "--mode", "dense",
            "--strict-deterministic",
        )
        assert result.returncode == 0

    def test_successes_reported_per_branch(self, pattern_file):
        path = pattern_file("00\n01\n")
        result = run_cli(
            "distribution", "--patterns", path, "--input", "00", "--b", "1",
            "--shots", "400", "--seed", "3", "--gamma-mode", "fixed:0.5",
        )
        results = json.loads(result.stdout)["results"]
        by_branch = results["successes_by_branch"]
        assert set(by_branch) == {"0", "1"}
        assert sum(by_branch.values()) == results["successes"]

    def test_malformed_file_exits_2_with_line(self, pattern_file):
        path = pattern_file("00\n0a\n")
        result = run_cli(
            "distribution", "--patterns", path, "--input", "00", "--b", "1"
        )
        assert result.returncode == 2
        assert "line 2" in result.stderr

    def test_zero_mass_exits_4(self, pattern_file):
        path = pattern_file("11\n")
        result = run_cli(
            "distribution", "--patterns", path, "--input", "00", "--b", "1"
        )
        assert result.returncode == 4

    def test_dimension_mismatch_exits_3(self, pattern_file):
        path = pattern_file("00\n01\n")
        result = run_cli(
            "distribution", "--patterns", path, "--input", "000", "--b", "1"
        )
        assert result.returncode == 3

    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    def test_strict_replay_with_no_good_mass_fails_every_shot(self, pattern_file, mode):
        # P = cos^2(pi/6) = 3/4, so one round leaves sin^2(pi) ~ 0 good mass,
        # at rounding level: no control draw is good and nothing is projected.
        path = pattern_file("100\n")
        result = run_cli(
            "distribution", "--patterns", path, "--input", "000", "--b", "1",
            "--amp-mode", "fixed:1", "--strict-deterministic", "--shots", "50",
            "--seed", "3", "--mode", mode,
        )
        assert result.returncode == 0, result.stderr
        results = json.loads(result.stdout)["results"]
        assert results["successes"] == 0
        assert results["failed_rounds"] == 50
        assert results["empirical_count"] == {}

    @pytest.mark.parametrize(
        "flags",
        [
            ("--mode", "sparse"),
            ("--mode", "sparse", "--strict-deterministic"),
            ("--mode", "dense"),
        ],
    )
    @pytest.mark.parametrize("gamma", ["fixed:1e-30", "fixed:1e-300"])
    def test_tiny_branch_weight_keeps_that_branch(self, pattern_file, gamma, flags):
        # Branch 0's amplitudes sqrt(G / p) are tiny but not 0, so the state
        # holds both branches.
        path = pattern_file("100\n010\n")
        result = run_cli(
            "distribution", "--patterns", path, "--input", "000", "--b", "2",
            "--shots", "200", "--seed", "3", "--gamma-mode", gamma, *flags,
        )
        assert result.returncode == 0, result.stderr
        results = json.loads(result.stdout)["results"]
        assert results["amplification_iterations"].keys() == {"0", "1"}
        assert results["successes"] + results["failed_rounds"] == 200

    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    @pytest.mark.parametrize(
        "gamma, branches",
        # sqrt(5e-324 / 2) rounds to 0, so branch 0 is absent in both modes.
        [("fixed:1e-30", {"0": 0, "1": 0}), ("fixed:5e-324", {"1": 0})],
    )
    def test_modes_agree_on_which_branches_exist(
        self, pattern_file, gamma, branches, mode
    ):
        path = pattern_file("100\n010\n")
        result = run_cli(
            "distribution", "--patterns", path, "--input", "000", "--b", "2",
            "--shots", "200", "--seed", "3", "--gamma-mode", gamma, "--mode", mode,
        )
        assert result.returncode == 0, result.stderr
        results = json.loads(result.stdout)["results"]
        assert results["amplification_iterations"] == branches


class TestRetrieveCommand:
    def test_exact_match_zero_iterations(self, pattern_file):
        path = pattern_file("0110\n")
        result = run_cli(
            "retrieve", "--patterns", path, "--input", "0110", "--b", "2",
            "--seed", "9",
        )
        assert result.returncode == 0
        results = json.loads(result.stdout)["results"]
        assert results["succeeded"] is True
        assert results["output_pattern"] == "0110"
        assert results["amplification_iterations"] == 0
        assert results["output_conditional_probability"] == pytest.approx(1.0)

    def test_corrupted_input_reports_conditional_probability(self, pattern_file):
        # Input one bit away from a unique stored pattern: the command
        # reports the sampled pattern together with its conditional law.
        path = pattern_file("00000000\n11111111\n11110000\n00001111\n")
        result = run_cli(
            "retrieve", "--patterns", path, "--input", "00000001", "--b", "4",
            "--seed", "3", "--retries", "20",
        )
        assert result.returncode == 0
        results = json.loads(result.stdout)["results"]
        assert results["succeeded"] is True
        output = results["output_pattern"]
        assert output in {"00000000", "11111111", "11110000", "00001111"}
        assert results["output_conditional_probability"] == pytest.approx(
            results["analytic_conditional"][output]
        )
        # the nearest pattern dominates the reported law
        assert max(
            results["analytic_conditional"],
            key=results["analytic_conditional"].get,
        ) == "00000000"
        assert results["analytic_conditional"]["00000000"] > 0.75

    def test_mirror_branch_reports_raw_and_corrected(self, pattern_file):
        path = pattern_file("0011\n0101\n")
        result = run_cli(
            "retrieve", "--patterns", path, "--input", "0011", "--b", "2",
            "--seed", "8", "--gamma-mode", "fixed:0.0", "--retries", "30",
        )
        results = json.loads(result.stdout)["results"]
        assert results["ancilla_branch"] == 1
        if results["succeeded"]:
            raw = results["raw_pattern"]
            corrected = "".join("1" if c == "0" else "0" for c in raw)
            assert results["output_pattern"] == corrected

    def test_infeasible_cloning_exits_5(self, pattern_file):
        path = pattern_file("000\n111\n001\n")
        result = run_cli(
            "retrieve", "--patterns", path, "--input", "000", "--b", "1",
            "--gamma-mode", "cloning",
        )
        assert result.returncode == 5

    def test_zero_mass_exits_4(self, pattern_file):
        path = pattern_file("111\n")
        result = run_cli(
            "retrieve", "--patterns", path, "--input", "000", "--b", "2"
        )
        assert result.returncode == 4

    @pytest.mark.parametrize("command", ["distribution", "retrieve"])
    def test_zero_mass_is_found_before_infeasible_cloning(self, pattern_file, command):
        # The memory 11 admits no cloning weights and holds no mass for the
        # input 00; both commands check the mass first.
        path = pattern_file("11\n")
        result = run_cli(
            command, "--patterns", path, "--input", "00", "--b", "1",
            "--gamma-mode", "cloning",
        )
        assert result.returncode == 4

    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    def test_strict_flag_leaves_the_results_bytes(self, pattern_file, capsys, mode):
        # retrieve always draws round by round, so --strict-deterministic,
        # which distribution reads, changes nothing here.
        path = pattern_file("000111\n001001\n110110\n011011\n")
        for seed in range(4):
            argv = ["retrieve", "--patterns", path, "--input", "001011", "--b", "3",
                    "--seed", str(seed), "--gamma-mode", "fixed:0.5", "--mode", mode]
            printed = []
            for flags in ([], ["--strict-deterministic"]):
                assert cli.main([*argv, *flags]) == 0
                printed.append(golden_results(capsys.readouterr().out))
            assert printed[0] == printed[1]

    def test_fixed_amplification_mode(self, pattern_file):
        path = pattern_file("00\n01\n")
        result = run_cli(
            "retrieve", "--patterns", path, "--input", "00", "--b", "2",
            "--seed", "4", "--amp-mode", "fixed:0",
        )
        results = json.loads(result.stdout)["results"]
        assert results["amplification_iterations"] == 0


class TestRunsThatWillNotFinish:
    # Pattern 1110 against input 0000 at b = 16 holds a retrievable mass of
    # 4.5e-14, for which exact amplification asks for 3 712 404 rounds over
    # 65 536 amplitudes (2^21 in dense mode); fixed:1000000000 asks for 1e9
    # rounds over 256 amplitudes at b = 8. Both are refused before a round.
    @pytest.mark.parametrize("command", ["distribution", "retrieve"])
    @pytest.mark.parametrize(
        "flags",
        [
            ("--b", "16"),
            ("--b", "16", "--mode", "dense"),
            ("--b", "8", "--amp-mode", "fixed:1000000000"),
        ],
    )
    def test_amplification_over_the_cap_exits_3(self, pattern_file, command, flags):
        path = pattern_file("1110\n")
        result = subprocess.run(
            [sys.executable, "-m", "mirrorqam", command, "--patterns", path,
             "--input", "0000", "--seed", "1", *flags],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 3
        [line] = result.stderr.splitlines()
        assert line.startswith("error: ") and "amplification rounds over" in line
        assert result.stdout == ""


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_1_without_a_traceback(pattern_file, fmt, unbuffered):
    # This 1:4096 cost table is 148 kB as CSV and 774 kB as JSON, more than
    # a pipe buffer, so the CLI is still writing when the reader goes.
    path = pattern_file(f"{'1' * 3}{'0' * 45}\n{'1' * 5}{'0' * 43}\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "mirrorqam", "complexity", "--patterns", path,
         "--input", "0" * 48, "--b-range", "1:4096", "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in stderr and "Exception ignored" not in stderr


class TestCloneCheckCommand:
    def test_complement_closed_is_feasible(self, pattern_file):
        path = pattern_file("00\n11\n")
        result = run_cli("clone-check", "--patterns", path)
        assert result.returncode == 0
        results = json.loads(result.stdout)["results"]
        assert results["verdict"] == "feasible"
        assert results["gamma"] == pytest.approx(0.5)
        assert results["gram"]["passed"] is True
        assert results["gram"]["max_residual"] < 1e-12

    def test_singleton_is_singular(self, pattern_file):
        path = pattern_file("00\n")
        result = run_cli("clone-check", "--patterns", path)
        assert result.returncode == 0
        results = json.loads(result.stdout)["results"]
        assert results["verdict"] == "singular-overlap"
        assert results["overlap"] == 0.0
        assert results["gamma"] is None

    def test_partial_overlap_is_infeasible_with_diagnostic(self, pattern_file):
        path = pattern_file("000\n111\n001\n")
        result = run_cli("clone-check", "--patterns", path)
        results = json.loads(result.stdout)["results"]
        assert results["verdict"] == "infeasible"
        assert results["overlap"] == pytest.approx(2 / 3)
        assert "discriminant" in results["diagnostic"]
        assert results["gram"]["passed"] is False

    def test_70_bit_words(self, pattern_file):
        # Words wider than int64: the overlap is counted on the ints.
        path = pattern_file("0" * 70 + "\n" + "1" * 70 + "\n" + "01" * 35 + "\n")
        result = run_cli("clone-check", "--patterns", path)
        assert result.returncode == 0, result.stderr
        results = json.loads(result.stdout)["results"]
        assert results["overlap"] == pytest.approx(2 / 3)
        assert results["verdict"] == "infeasible"

    def test_csv_row(self, pattern_file):
        path = pattern_file("00\n11\n")
        result = run_cli("clone-check", "--patterns", path, "--format", "csv")
        lines = result.stdout.strip().splitlines()
        assert lines[0].startswith("overlap,verdict,feasible")
        assert len(lines) == 2


class TestUsageErrors:
    @pytest.mark.parametrize(
        "command, flag, value, kind",
        [
            ("distribution", "--b", "0", "positive"),
            ("retrieve", "--b", "0", "positive"),
            ("distribution", "--shots", "0", "positive"),
            ("retrieve", "--retries", "0", "positive"),
            # numpy refuses a negative seed with a traceback of its own.
            ("distribution", "--seed", "-1", "non-negative"),
            ("retrieve", "--seed", "-1", "non-negative"),
        ],
    )
    def test_int_out_of_range_is_a_one_line_parse_error(
        self, pattern_file, command, flag, value, kind
    ):
        path = pattern_file("00\n01\n")
        values = {"--b": "1", flag: value}
        result = run_cli(
            command, "--patterns", path, "--input", "00",
            *(item for pair in values.items() for item in pair),
        )
        assert result.returncode == 2
        errors = [line for line in result.stderr.splitlines() if "error" in line]
        assert errors == [
            f"mirrorqam {command}: error: argument {flag}:"
            f" expected a {kind} int, got '{value}'"
        ]

    @pytest.mark.parametrize("seed", ["0", str(2**32), "99999999999999999999999999"])
    def test_seed_of_any_size_from_0_runs(self, pattern_file, seed):
        path = pattern_file("00\n01\n")
        result = run_cli(
            "retrieve", "--patterns", path, "--input", "00", "--b", "1", "--seed", seed
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["config"]["seed"] == int(seed)

    @pytest.mark.parametrize(
        "args",
        [
            ("distribution", "--input", "0101", "--b", "1"),
            ("retrieve", "--input", "0101", "--b", "1"),
            ("clone-check",),
            ("complexity", "--input", "0101", "--b-range", "1:2"),
        ],
    )
    def test_non_utf8_pattern_file_exits_2_naming_it(self, tmp_path, args):
        path = tmp_path / "patterns.txt"
        path.write_bytes(b"01\xff1\n")
        result = run_cli(args[0], "--patterns", str(path), *args[1:])
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"error: cannot read pattern file {str(path)!r}: 'utf-8' codec can't"
            " decode byte 0xff in position 2: invalid start byte"
        ]

    def test_layout_over_63_qubits_exits_3(self, pattern_file):
        path = pattern_file("0" * 62 + "\n")
        result = run_cli(
            "distribution", "--patterns", path, "--input", "0" * 62,
            "--b", "1", "--seed", "1",
        )
        assert result.returncode == 3
        assert result.stderr.strip().splitlines() == [
            "error: a layout holds at most 63 qubits (basis indices are int64),"
            " these registers need 64"
        ]

    @pytest.mark.parametrize(
        "args, code",
        [
            (("complexity", "--input", "0" * 100, "--b-range", "1:2"), 0),
            (("clone-check",), 0),
            (("retrieve", "--input", "0" * 100, "--b", "1", "--seed", "1"), 3),
        ],
    )
    def test_100_bit_patterns_exit_3_only_where_a_layout_is_built(
        self, pattern_file, args, code
    ):
        # Words of 100 bits do not fit int64; only building the retrieval
        # layout may refuse them, before any index array is made.
        path = pattern_file("0" * 100 + "\n" + "1" * 100 + "\n" + "01" * 50 + "\n")
        result = run_cli(args[0], "--patterns", path, *args[1:])
        assert result.returncode == code
        expected = [
            "error: a layout holds at most 63 qubits (basis indices are int64),"
            " these registers need 102"
        ]
        assert result.stderr.strip().splitlines() == (expected if code else [])

    def test_dense_layout_over_24_qubits_exits_3(self, pattern_file):
        # 20 memory, 4 control and 1 ancilla qubits; refused before any
        # 2^25-entry vector is allocated.
        path = pattern_file("0" * 20 + "\n")
        result = run_cli(
            "distribution", "--patterns", path, "--input", "0" * 20,
            "--b", "4", "--seed", "1", "--mode", "dense",
        )
        assert result.returncode == 3
        assert result.stderr.strip().splitlines() == [
            "error: dense mode supports at most 24 qubits, layout has 25"
        ]

    @pytest.mark.parametrize("command", ["distribution", "retrieve"])
    def test_run_over_the_support_budget_exits_3(self, pattern_file, command):
        # 2 patterns x 2^24 control values in the memory branch: refused
        # before the pipeline allocates anything.
        path = pattern_file("00\n01\n")
        result = run_cli(
            command, "--patterns", path, "--input", "00", "--b", "24", "--seed", "1",
        )
        assert result.returncode == 3
        assert result.stderr.strip().splitlines() == [
            "error: the retrieval state could reach 33554432 amplitudes,"
            " 1 x 2 x 2^24 (weighted branches x patterns x control values),"
            " over the limit of 16777216"
        ]

    def test_comment_after_a_word_exits_2(self, pattern_file):
        # Only a line whose first non-blank character is '#' is a comment.
        path = pattern_file("0101  # note\n")
        result = run_cli("clone-check", "--patterns", path)
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            "error: line 1: non-binary character ' ' in pattern '0101  # note'"
        ]

    @pytest.mark.parametrize("b_range", ["1:1000000000000", "4097", "1,4097"])
    def test_b_range_over_the_cap_exits_2(self, pattern_file, b_range):
        path = pattern_file("00\n01\n")
        result = run_cli(
            "complexity", "--patterns", path, "--uniform", "--b-range", b_range
        )
        assert result.returncode == 2
        errors = [line for line in result.stderr.splitlines() if "error" in line]
        assert errors == [
            "mirrorqam complexity: error: argument --b-range:"
            f" b may be at most {cli.MAX_TABLE_B}, got {b_range!r}"
        ]

    def test_huge_b_range_is_refused_before_any_list_is_built(self, capsys):
        cli.build_parser()
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as usage:
                cli.main(["complexity", "--patterns", "unread.txt", "--uniform",
                          "--b-range", "1:1000000000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert usage.value.code == 2
        assert "b may be at most" in capsys.readouterr().err
        assert peak < 64 * 1024  # list(range(1, 4097)) alone holds 140 kB
        assert cli._parse_b_range(f"1:{cli.MAX_TABLE_B}") == list(
            range(1, cli.MAX_TABLE_B + 1)
        )

    def test_huge_shots_are_refused_before_any_sampling(self, pattern_file, capsys):
        path = pattern_file("0101\n0011\n")
        cli.build_parser()
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as usage:
                cli.main(["distribution", "--patterns", path, "--input", "0101",
                          "--b", "2", "--shots", "1000000000000", "--seed", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert usage.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert errors == [
            "mirrorqam distribution: error: argument --shots:"
            f" shots may be at most {cli.MAX_SHOTS}, got '1000000000000'"
        ]
        assert peak < 64 * 1024  # the bulk sampler holds about 23 bytes a shot
        assert cli._shot_count(str(cli.MAX_SHOTS)) == cli.MAX_SHOTS

    def test_nan_branch_weight_is_a_parse_error(self, pattern_file):
        path = pattern_file("00\n01\n")
        result = run_cli(
            "distribution", "--patterns", path, "--input", "00", "--b", "1",
            "--gamma-mode", "fixed:nan",
        )
        assert result.returncode == 2
        errors = [line for line in result.stderr.splitlines() if "error" in line]
        assert errors == [
            "mirrorqam distribution: error: argument --gamma-mode:"
            " branch weights must be finite, got nan, nan"
        ]

    @pytest.mark.parametrize(
        "option, value, reason",
        [
            ("--gamma-mode", "fixed:-1", "branch weights must be nonnegative"),
            ("--gamma-mode", "fixed:1.5", "branch weights must be nonnegative"),
            ("--amp-mode", "fixed:-1", "fixed iteration count must be nonnegative"),
        ],
    )
    def test_refused_mode_value_says_why(self, pattern_file, option, value, reason):
        path = pattern_file("00\n01\n")
        result = run_cli(
            "distribution", "--patterns", path, "--input", "00", "--b", "1",
            option, value,
        )
        assert result.returncode == 2
        errors = [line for line in result.stderr.splitlines() if "error" in line]
        assert errors == [f"mirrorqam distribution: error: argument {option}: {reason}"]


class TestComplexityCommand:
    def test_uniform_table(self, pattern_file):
        path = pattern_file("0" * 20 + "\n")
        result = run_cli(
            "complexity", "--patterns", path, "--uniform", "--b-range", "16"
        )
        results = json.loads(result.stdout)["results"]
        assert results["grover_baseline"] == pytest.approx(1024.0)
        row = results["table"][0]
        assert row["uniform_approx"] == pytest.approx(2.6626707276007795)
        assert row["uniform_exact"] == pytest.approx(2.673090428653138)

    def test_baseline_beyond_float_range_prints_inf(self, pattern_file):
        path = pattern_file("0" * 2048 + "\n")
        result = run_cli(
            "complexity", "--patterns", path, "--uniform", "--b-range", "1"
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["results"]["grover_baseline"] == "inf"

    def test_70_bit_instance_costs_are_finite(self, pattern_file):
        # Distances 0, 70 and 35 from the input: cost sqrt(3 / (1 + 2^-b)).
        path = pattern_file("0" * 70 + "\n" + "1" * 70 + "\n" + "01" * 35 + "\n")
        result = run_cli(
            "complexity", "--patterns", path, "--input", "0" * 70, "--b-range", "1:3"
        )
        assert result.returncode == 0, result.stderr
        table = json.loads(result.stdout)["results"]["table"]
        costs = [row["instance_cost"] for row in table]
        assert costs == pytest.approx([math.sqrt(3 / (1 + 2.0**-b)) for b in (1, 2, 3)])

    def test_instance_table_exact_match(self, pattern_file):
        path = pattern_file("0101\n")
        result = run_cli(
            "complexity", "--patterns", path, "--input", "0101",
            "--b-range", "1:4",
        )
        results = json.loads(result.stdout)["results"]
        assert [row["instance_cost"] for row in results["table"]] == [1.0] * 4

    def test_zero_mass_exits_4(self, pattern_file):
        path = pattern_file("11\n")
        result = run_cli(
            "complexity", "--patterns", path, "--input", "00", "--b-range", "1:3"
        )
        assert result.returncode == 4

    def test_csv_columns_stable(self, pattern_file):
        path = pattern_file("01\n")
        result = run_cli(
            "complexity", "--patterns", path, "--uniform", "--b-range", "1,2",
            "--format", "csv",
        )
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "b,instance_cost,uniform_approx,uniform_exact,grover_baseline"
        assert len(lines) == 3


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 12),
    st.integers(1, 80),
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 40), min_size=1, max_size=8),
)
def test_complexity_costs_equal_complexity_estimate(n, p, seed, b_values):
    # The command computes the distances once and sums each b's weights in
    # pattern order, so every cost is complexity_estimate's, exactly.
    rng = np.random.default_rng(seed)
    values = rng.choice(1 << n, size=min(p, 1 << n), replace=False)
    text = "".join(f"{BitPattern(int(v), n)}\n" for v in values)
    patterns = parse_pattern_file(text)
    input_pattern = BitPattern(int(rng.integers(1 << n)), n)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "patterns.txt"
        path.write_text(text, encoding="utf-8")
        args = cli.build_parser().parse_args([
            "complexity", "--patterns", str(path), "--input", str(input_pattern),
            "--b-range", ",".join(map(str, b_values)),
        ])
        try:
            _, _, rows = cli.cmd_complexity(args)
        except ZeroMassError:
            assert all(
                complexity_estimate(input_pattern, patterns, b) == math.inf
                for b in b_values
            )
            return
    assert [row["b"] for row in rows] == b_values
    for row in rows:
        assert row["instance_cost"] == complexity_estimate(input_pattern, patterns, row["b"])


class TestReproducibility:
    def results_bytes(self, stdout):
        return json.dumps(json.loads(stdout)["results"], sort_keys=True).encode()

    @pytest.mark.parametrize(
        "args",
        [
            ("distribution", "--input", "010", "--b", "2", "--shots", "2000",
             "--seed", "77", "--strict-deterministic"),
            ("retrieve", "--input", "010", "--b", "2", "--seed", "77",
             "--strict-deterministic"),
        ],
    )
    def test_identical_runs_reproduce_results_bytes(self, pattern_file, args):
        path = pattern_file("000\n011\n110\n")
        first = run_cli(args[0], "--patterns", path, *args[1:])
        second = run_cli(args[0], "--patterns", path, *args[1:])
        assert first.returncode == second.returncode == 0
        assert self.results_bytes(first.stdout) == self.results_bytes(second.stdout)

    def test_csv_runs_are_byte_identical(self, pattern_file):
        path = pattern_file("000\n011\n")
        args = (
            "distribution", "--patterns", path, "--input", "000", "--b", "1",
            "--shots", "500", "--seed", "123", "--strict-deterministic",
            "--format", "csv",
        )
        assert run_cli(*args).stdout == run_cli(*args).stdout


GOLDEN = Path(__file__).parent / "data" / "golden"

# Seeded runs, each on a pattern file in GOLDEN with a report format.
# patterns.txt has n=6 and two complementary pairs among 7 patterns;
# fixed:0.5 puts shots on both branches. complement-closed.txt has overlap
# 1 (feasible cloning) and one-word.txt overlap 0 (singular). A json case's
# GOLDEN/<name>.json holds the results section an earlier version printed
# for these flags, and a csv case's GOLDEN/<name>.csv the whole table, so a
# change that moves a sampled outcome, a count, a key, a column or the last
# digit of a float between versions shows here.
GOLDEN_CASES = {
    "distribution-sparse-bulk": (
        "patterns.txt", "json",
        "distribution", "--input", "001001", "--b", "3", "--shots", "2000",
        "--seed", "11", "--gamma-mode", "fixed:0.5",
    ),
    "distribution-sparse-strict": (
        "patterns.txt", "json",
        "distribution", "--input", "001001", "--b", "3", "--shots", "400",
        "--seed", "11", "--gamma-mode", "fixed:0.5", "--strict-deterministic",
    ),
    "distribution-dense-bulk": (
        "patterns.txt", "json",
        "distribution", "--input", "001001", "--b", "3", "--shots", "2000",
        "--seed", "12", "--gamma-mode", "fixed:0.5", "--mode", "dense",
    ),
    "distribution-dense-strict": (
        "patterns.txt", "json",
        "distribution", "--input", "001001", "--b", "3", "--shots", "400",
        "--seed", "12", "--gamma-mode", "fixed:0.5", "--mode", "dense",
        "--strict-deterministic",
    ),
    "distribution-table": (
        "patterns.txt", "csv",
        "distribution", "--input", "001001", "--b", "3", "--shots", "2000",
        "--seed", "11", "--gamma-mode", "fixed:0.5",
    ),
    "retrieve-sparse": (
        "patterns.txt", "json",
        "retrieve", "--input", "001001", "--b", "3", "--seed", "11",
        "--gamma-mode", "fixed:0.5", "--strict-deterministic",
    ),
    "retrieve-sparse-all-rounds-fail": (
        "patterns.txt", "json",
        "retrieve", "--input", "001001", "--b", "3", "--seed", "3",
        "--gamma-mode", "fixed:0.5", "--amp-mode", "fixed:0", "--retries", "4",
    ),
    "retrieve-dense-retry": (
        "patterns.txt", "json",
        "retrieve", "--input", "001001", "--b", "3", "--seed", "1",
        "--gamma-mode", "fixed:0.5", "--amp-mode", "fixed:0", "--retries", "4",
        "--mode", "dense",
    ),
    "retrieve-table": (
        "patterns.txt", "csv",
        "retrieve", "--input", "001001", "--b", "3", "--seed", "11",
        "--gamma-mode", "fixed:0.5", "--strict-deterministic",
    ),
    "clone-check": ("patterns.txt", "json", "clone-check"),
    "clone-check-complement-closed": ("complement-closed.txt", "json", "clone-check"),
    "clone-check-one-word": ("one-word.txt", "json", "clone-check"),
    "clone-check-table": ("patterns.txt", "csv", "clone-check"),
    "complexity": (
        "patterns.txt", "json",
        "complexity", "--input", "001001", "--b-range", "1:4",
    ),
    "complexity-table": (
        "patterns.txt", "csv",
        "complexity", "--input", "001001", "--b-range", "1:4",
    ),
}
JSON_CASES = sorted(name for name, case in GOLDEN_CASES.items() if case[1] == "json")


def golden_argv(name):
    """The argv of a golden case: its command, pattern file, format and flags."""
    patterns, fmt, command, *flags = GOLDEN_CASES[name]
    return [command, "--patterns", str(GOLDEN / patterns), "--format", fmt, *flags]


def golden_results(stdout):
    return json.dumps(json.loads(stdout)["results"], sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_seeded_results_match_golden_file(name):
    fmt = GOLDEN_CASES[name][1]
    result = run_cli(*golden_argv(name))
    assert result.returncode == 0, result.stderr
    expected = (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    assert (golden_results(result.stdout) if fmt == "json" else result.stdout) == expected


@pytest.mark.parametrize("name", JSON_CASES)
def test_stdout_is_canonical_json(name, capsys):
    # The whole report, not only its results: key order, indentation and
    # the config / version / timing_ms layout are those of json.dumps.
    assert cli.main(golden_argv(name)) == 0
    stdout = capsys.readouterr().out
    assert stdout == json.dumps(json.loads(stdout), sort_keys=True, indent=2) + "\n"


def test_results_keys_are_the_record_field_names(pattern_file, capsys):
    path = pattern_file("000\n011\n110\n")
    common = ["--patterns", path, "--input", "010", "--b", "2", "--seed", "5",
              "--gamma-mode", "fixed:0.5"]

    def results(argv):
        assert cli.main(argv) == 0
        return json.loads(capsys.readouterr().out)["results"]

    distribution = results(["distribution", *common, "--shots", "200"])
    assert set(distribution) == {f.name for f in dataclasses.fields(DistributionReport)}
    retrieve = results(["retrieve", *common])
    assert {f.name for f in dataclasses.fields(RetrievalOutcome)} <= set(retrieve)


@pytest.mark.parametrize(
    "argv, config",
    [
        (["distribution", "--input", "010", "--b", "2", "--shots", "200", "--seed", "5"],
         {"command": "distribution", "input": "010", "b": 2, "shots": 200, "seed": 5,
          "gamma_mode": "memory-only", "amp_mode": "exact", "mode": "sparse",
          "strict_deterministic": False, "format": "json"}),
        (["retrieve", "--input", "010", "--b", "2", "--seed", "5", "--gamma-mode",
          "fixed:0.25", "--amp-mode", "fixed:1", "--mode", "dense",
          "--strict-deterministic"],
         {"command": "retrieve", "input": "010", "b": 2, "retries": 5, "seed": 5,
          "gamma_mode": "fixed:0.25", "amp_mode": "fixed:1", "mode": "dense",
          "strict_deterministic": True, "format": "json"}),
        (["clone-check"], {"command": "clone-check", "format": "json"}),
        (["complexity", "--uniform", "--b-range", "1:2"],
         {"command": "complexity", "input": None, "uniform": True, "b_range": [1, 2],
          "format": "json"}),
    ],
)
def test_config_echoes_every_flag(pattern_file, capsys, argv, config):
    path = pattern_file("000\n011\n110\n")
    assert cli.main([argv[0], "--patterns", path, *argv[1:], "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"] == {"patterns": path, **config}


def test_cached_parser_carries_no_state_between_calls(pattern_file, capsys):
    path = pattern_file("000\n011\n110\n")
    seeded = ["distribution", "--patterns", path, "--input", "010", "--b", "2",
              "--shots", "500", "--seed", "5", "--gamma-mode", "fixed:0.5"]

    def results(stdout):
        return json.loads(stdout)["results"]

    assert cli.main(seeded) == 0
    first = results(capsys.readouterr().out)
    with pytest.raises(SystemExit) as usage:
        cli.main(["distribution", "--patterns", path, "--input", "010", "--b", "0"])
    assert usage.value.code == 2
    assert cli.main([*seeded[:4], "0101", *seeded[5:]]) == 3
    assert cli.main([*seeded, "--format", "csv"]) == 0
    capsys.readouterr()
    assert cli.main(seeded) == 0
    last = results(capsys.readouterr().out)
    assert cli.build_parser() is cli.build_parser()
    fresh = run_cli(*seeded)
    assert fresh.returncode == 0, fresh.stderr
    assert first == last == results(fresh.stdout)


def reference_jsonable(value):
    """The report coercion the CLI ran before json.dumps(..., indent=2)."""
    if isinstance(value, dict):
        return {str(k): reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_jsonable(v) for v in value]
    if isinstance(value, BitPattern):
        return str(value)
    if hasattr(value, "tolist"):
        return reference_jsonable(value.tolist())
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    return value


bit_patterns = st.builds(
    lambda bits: BitPattern.from_string("".join(map(str, bits))),
    st.lists(st.integers(0, 1), min_size=1, max_size=6),
)
report_floats = st.floats(allow_nan=True, allow_infinity=True)
# Values the C encoder takes as they are; a container of only these is one
# encoder call, so the non-finite floats must turn up inside such containers.
plain_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.text(max_size=4),
    report_floats, st.sampled_from([math.nan, math.inf, -math.inf]),
)
report_scalars = st.one_of(
    plain_scalars, bit_patterns,
    report_floats.map(np.float64), st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(report_floats, max_size=4).map(np.array),
    st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2), max_size=3).map(np.array),
)


def report_values(depth):
    """Scalars, or lists, tuples and dicts of report values nested depth deep at most."""
    if depth == 0:
        return report_scalars
    inner = report_values(depth - 1)
    keys = st.one_of(bit_patterns, st.integers(-20, 20), st.text(max_size=3))
    return st.one_of(
        report_scalars,
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
        st.lists(plain_scalars, max_size=6),
        st.dictionaries(keys, plain_scalars, max_size=6),
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(report_values(4))
def test_emitter_matches_the_indented_encoder(value):
    assert cli._dumps(value) == json.dumps(
        reference_jsonable(value), sort_keys=True, indent=2
    )
