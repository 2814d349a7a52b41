"""End-to-end CLI tests: flags, report schema, exit codes, reproducibility."""

import json
import subprocess
import sys

import pytest

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

    def test_fixed_amplification_mode(self, pattern_file):
        path = pattern_file("00\n01\n")
        result = run_cli(
            "retrieve", "--patterns", path, "--input", "00", "--b", "2",
            "--seed", "4", "--amp-mode", "fixed:0",
        )
        results = json.loads(result.stdout)["results"]
        assert results["amplification_iterations"] == 0


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

    def test_csv_row(self, pattern_file):
        path = pattern_file("00\n11\n")
        result = run_cli("clone-check", "--patterns", path, "--format", "csv")
        lines = result.stdout.strip().splitlines()
        assert lines[0].startswith("overlap,verdict,feasible")
        assert len(lines) == 2


class TestUsageErrors:
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("distribution", "--b"),
            ("retrieve", "--b"),
            ("distribution", "--shots"),
            ("retrieve", "--retries"),
        ],
    )
    def test_nonpositive_count_is_a_one_line_parse_error(
        self, pattern_file, command, flag
    ):
        path = pattern_file("00\n01\n")
        values = {"--b": "1", flag: "0"}
        result = run_cli(
            command, "--patterns", path, "--input", "00",
            *(item for pair in values.items() for item in pair),
        )
        assert result.returncode == 2
        errors = [line for line in result.stderr.splitlines() if "error" in line]
        assert errors == [
            f"mirrorqam {command}: error: argument {flag}:"
            " expected a positive int, got '0'"
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
