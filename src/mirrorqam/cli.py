"""Command-line front-end: distribution comparison, retrieval, cloning checks, cost tables.

Reports are JSON by default, with top-level keys config, results, version,
and timing_ms; re-running a command with identical flags and seed under
--strict-deterministic reproduces the results section byte-for-byte. CSV
emits the command's tabular view with a stable column order. Exit codes:
0 success; a user error prints one line and exits with the exit_code of
its class in errors (2 parse error, 3 dimension error, 4 zero retrievable
mass, 5 infeasible cloning requirement).

main builds the argument parser on its first call and reuses it, so an
in-process caller (an embedding program, the tests, a benchmark) pays for
it once per process; each call still parses into a fresh Namespace. A JSON
report is written in one pass by _dumps, whose output is exactly the bytes
of json.dumps(report, sort_keys=True, indent=2) after nan became null and
+-inf the strings "inf" and "-inf".
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import secrets
import sys
import time

from . import __version__
from .errors import CloningError, DimensionError, PatternParseError, ZeroMassError
from .memory import gram_residual, memory_overlap, solve_efficiencies
from .patterns import BitPattern, PatternSet, hamming_distance, parse_pattern_file
from .retrieval import (
    AmplificationMode,
    GammaMode,
    RetrievalConfig,
    analytic_distribution,
    complexity_estimate,
    complexity_uniform_approx,
    cos_power_average,
    grover_baseline,
    retrievable_mass,
    run_retrieval,
    simulate_distribution,
)

# Values the C encoder writes as json.dumps(..., indent=2) would; a float
# among them may still be nan or inf, which allow_nan=False refuses.
_FLAT = frozenset((str, int, float, bool, type(None)))
_encode_key = json.encoder.encode_basestring_ascii


def _dumps(value, indent: str = "\n") -> str:
    """json.dumps(value, sort_keys=True, indent=2) of a report value, in one pass.

    Keys are written and sorted as str(key), a BitPattern as its string and
    a numpy value as its tolist(); nan is null and +-inf "inf" / "-inf".
    json.dumps runs its pure-Python encoder whenever indent is set, so a
    container of flat scalars is one C-encoder call with the line break in
    the item separator; only nested containers recurse.
    """
    if isinstance(value, BitPattern):
        return _encode_key(str(value))
    if hasattr(value, "tolist"):
        value = value.tolist()
    if isinstance(value, dict):
        value = {str(k): v for k, v in value.items()}
        values, brackets = value.values(), "{}"
    elif isinstance(value, (list, tuple)):
        values, brackets = value, "[]"
    elif isinstance(value, float) and not math.isfinite(value):
        return "null" if math.isnan(value) else '"inf"' if value > 0 else '"-inf"'
    else:
        return json.dumps(value)
    if not value:
        return brackets
    inner = indent + "  "
    if all(type(v) in _FLAT for v in values):
        try:
            body = json.dumps(
                value, sort_keys=True, allow_nan=False, separators=("," + inner, ": ")
            )[1:-1]
            return f"{brackets[0]}{inner}{body}{indent}{brackets[1]}"
        except ValueError:  # nan or inf: written item by item below
            pass
    if brackets == "[]":
        items = [_dumps(v, inner) for v in value]
    else:
        items = [f"{_encode_key(k)}: {_dumps(value[k], inner)}" for k in sorted(value)]
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{indent}{brackets[1]}"


def _load_patterns(path: str) -> PatternSet:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise PatternParseError(f"cannot read pattern file {path!r}: {exc}") from exc
    return parse_pattern_file(text)


def _parse_input(text: str) -> BitPattern:
    try:
        return BitPattern.from_string(text)
    except ValueError as exc:
        raise PatternParseError(f"invalid --input value: {exc}") from exc


def _parse_b_range(text: str) -> list[int]:
    """Accept a single b, an inclusive A:B range, or a comma list."""
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            lo, hi = int(lo), int(hi)
            if lo < 1 or hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        if "," in text:
            values = [int(v) for v in text.split(",")]
        else:
            values = [int(text)]
        if any(v < 1 for v in values):
            raise ValueError
        return values
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected B, A:B, or a comma list of positive ints, got {text!r}"
        ) from None


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive int, got {text!r}")


def _refusing_type(parse):
    """argparse type around parse that reports why a value was refused.

    argparse prints only "invalid <name> value" for a plain ValueError, so
    the error's own message is passed on as an ArgumentTypeError.
    """

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _resolve_seed(seed: int | None) -> int:
    """Every randomized command reports its seed, auto-generated or not."""
    return secrets.randbits(32) if seed is None else seed


def _distribution_rows(input_pattern, report):
    rows = []
    for pattern in sorted(report.analytic_unnormalized, key=str):
        rows.append(
            {
                "pattern": str(pattern),
                "hamming_distance": hamming_distance(input_pattern, pattern),
                "analytic_unnormalized": report.analytic_unnormalized[pattern],
                "analytic_conditional": report.analytic_conditional[pattern],
                "empirical_frequency": report.empirical.get(pattern, 0.0),
                "empirical_count": report.empirical_counts.get(pattern, 0),
            }
        )
    return rows


def _retrieval_request(
    args, command: str, **extra
) -> tuple[PatternSet, BitPattern, RetrievalConfig, dict]:
    """Pattern set, input, seed, RetrievalConfig and config echo of a retrieval run.

    extra names the command's own flags (shots or retries) for the echo.
    """
    patterns = _load_patterns(args.patterns)
    input_pattern = _parse_input(args.input)
    seed = _resolve_seed(args.seed)
    config = RetrievalConfig(
        b=args.b,
        gamma_mode=args.gamma_mode,
        amplification_mode=args.amp_mode,
        shots=extra.get("shots", 1),
        seed=seed,
        representation=args.mode,
    )
    config_echo = {
        "command": command,
        "patterns": args.patterns,
        "input": str(input_pattern),
        "b": args.b,
        "seed": seed,
        "gamma_mode": args.gamma_mode.describe(),
        "amp_mode": args.amp_mode.describe(),
        "mode": args.mode,
        "strict_deterministic": args.strict_deterministic,
        "format": args.format,
        **extra,
    }
    return patterns, input_pattern, config, config_echo


def cmd_distribution(args) -> tuple[dict, dict, list[dict]]:
    patterns, input_pattern, config, config_echo = _retrieval_request(
        args, "distribution", shots=args.shots
    )
    report = simulate_distribution(
        input_pattern, patterns, config, strict=args.strict_deterministic
    )
    results = {
        "analytic_unnormalized": report.analytic_unnormalized,
        "analytic_conditional": report.analytic_conditional,
        "empirical_frequency": report.empirical,
        "empirical_count": report.empirical_counts,
        "empirical_by_branch": report.empirical_by_branch,
        "branch_shots": report.branch_shots,
        "successes_by_branch": report.successes_by_branch,
        "amplification_iterations": report.amplification_iterations,
        "total_variation_distance": report.total_variation_distance,
        "shots": report.shots,
        "successes": report.successes,
        "failed_rounds": report.failed_rounds,
        "good_mass": report.good_mass,
    }
    # Only --format csv prints the per-pattern rows.
    rows = _distribution_rows(input_pattern, report) if args.format == "csv" else []
    return config_echo, results, rows


# The retrieve CSV row: the results keys that describe the final round.
ROW_KEYS = (
    "succeeded",
    "ancilla_branch",
    "raw_pattern",
    "output_pattern",
    "amplification_iterations",
    "good_probability_before",
    "failed_rounds",
    "rounds_used",
)


def cmd_retrieve(args) -> tuple[dict, dict, list[dict]]:
    patterns, input_pattern, config, config_echo = _retrieval_request(
        args, "retrieve", retries=args.retries
    )
    run = run_retrieval(input_pattern, patterns, config, max_rounds=args.retries)
    analytic = analytic_distribution(input_pattern, patterns, args.b)
    outcome = run.outcome if run.outcome is not None else run.rounds[-1]
    output_probability = (
        analytic.conditional.get(outcome.output_pattern)
        if outcome.output_pattern is not None
        else None
    )
    results = {
        "succeeded": outcome.succeeded,
        "ancilla_branch": outcome.ancilla_branch,
        "raw_pattern": outcome.raw_pattern,
        "output_pattern": outcome.output_pattern,
        "amplification_iterations": outcome.amplification_iterations,
        "good_probability_before": outcome.good_probability_before,
        "failed_rounds": run.failed_rounds,
        "rounds_used": len(run.rounds),
        "output_conditional_probability": output_probability,
        "analytic_conditional": analytic.conditional,
        "rounds": [
            {
                "succeeded": r.succeeded,
                "ancilla_branch": r.ancilla_branch,
                "amplification_iterations": r.amplification_iterations,
                "good_probability_before": r.good_probability_before,
                "output_pattern": r.output_pattern,
            }
            for r in run.rounds
        ],
    }
    # csv.DictWriter writes a BitPattern through str() and None as "".
    return config_echo, results, [{k: results[k] for k in ROW_KEYS}]


def cmd_clone_check(args) -> tuple[dict, dict, list[dict]]:
    """Overlap, efficiency feasibility, and the Gram comparison for a memory.

    When no feasible efficiencies exist the Gram matrices are still
    reported, evaluated at the symmetric reference attempt gamma =
    gamma_bar = 1/2. At overlap 0 the two matrices coincide trivially
    while the efficiency equation itself is singular; the verdict reports
    the singularity.
    """
    patterns = _load_patterns(args.patterns)
    s = memory_overlap(patterns)
    try:
        solution = solve_efficiencies(s)
        verdict = "feasible" if solution.feasible else "infeasible"
        diagnostic = solution.diagnostic
        gamma, gamma_bar = solution.gamma, solution.gamma_bar
    except CloningError as exc:
        solution = None
        verdict = "singular-overlap"
        diagnostic = str(exc)
        gamma = gamma_bar = math.nan
    if solution is not None and solution.feasible:
        gamma_used, gamma_bar_used = solution.gamma, solution.gamma_bar
    else:
        gamma_used = gamma_bar_used = 0.5  # symmetric reference attempt
    check = gram_residual(s, gamma_used, gamma_bar_used)
    config_echo = {
        "command": "clone-check",
        "patterns": args.patterns,
        "format": args.format,
    }
    results = {
        "overlap": s,
        "verdict": verdict,
        "feasible": verdict == "feasible",
        "gamma": gamma,
        "gamma_bar": gamma_bar,
        "diagnostic": diagnostic,
        "gram": {
            "passed": check.passed,
            "gamma_used": gamma_used,
            "gamma_bar_used": gamma_bar_used,
            "input_matrix": check.input_matrix,
            "output_matrix": check.output_matrix,
            "residual": check.residual,
            "max_residual": check.max_residual,
        },
    }
    row = {
        "overlap": s,
        "verdict": verdict,
        "feasible": verdict == "feasible",
        "gamma": "" if math.isnan(gamma) else gamma,
        "gamma_bar": "" if math.isnan(gamma_bar) else gamma_bar,
        "gram_passed": check.passed,
        "gram_max_residual": check.max_residual,
    }
    return config_echo, results, [row]


def cmd_complexity(args) -> tuple[dict, dict, list[dict]]:
    patterns = _load_patterns(args.patterns)
    baseline = grover_baseline(patterns.n)
    rows = []
    if args.uniform:
        input_echo = None
        for b in args.b_range:
            rows.append(
                {
                    "b": b,
                    "instance_cost": "",
                    "uniform_approx": complexity_uniform_approx(b),
                    "uniform_exact": math.sqrt(1.0 / cos_power_average(b)),
                    "grover_baseline": baseline,
                }
            )
    else:
        input_pattern = _parse_input(args.input)
        input_echo = str(input_pattern)
        retrievable_mass(input_pattern, patterns, args.b_range[0])  # zero-mass guard
        for b in args.b_range:
            rows.append(
                {
                    "b": b,
                    "instance_cost": complexity_estimate(input_pattern, patterns, b),
                    "uniform_approx": "",
                    "uniform_exact": "",
                    "grover_baseline": baseline,
                }
            )
    config_echo = {
        "command": "complexity",
        "patterns": args.patterns,
        "input": input_echo,
        "uniform": args.uniform,
        "b_range": args.b_range,
        "format": args.format,
    }
    results = {
        "n": patterns.n,
        "p": patterns.p,
        "grover_baseline": baseline,
        "table": rows,
    }
    return config_echo, results, rows


def _emit_csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="mirrorqam",
        description=(
            "Associative retrieval over pattern memories: distribution"
            " comparison, single retrievals, cloning feasibility, and cost"
            " tables. Pattern files hold one 0/1 word per line; '#' starts"
            " a comment."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, with_shots=False, with_retries=False):
        p.add_argument("--patterns", required=True, help="pattern file path")
        p.add_argument("--input", required=True, help="input bit string")
        p.add_argument(
            "--b", type=_positive_int, required=True, help="control-qubit count"
        )
        if with_shots:
            p.add_argument("--shots", type=_positive_int, default=10000)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument(
            "--gamma-mode",
            type=_refusing_type(GammaMode.parse),
            default=GammaMode.memory_only(),
            help="memory-only | cloning | fixed:G",
        )
        p.add_argument(
            "--amp-mode",
            type=_refusing_type(AmplificationMode.parse),
            default=AmplificationMode.exact(),
            help="exact | estimate | fixed:K",
        )
        if with_retries:
            p.add_argument(
                "--retries", type=_positive_int, default=5, help="round budget"
            )
        p.add_argument("--mode", choices=("sparse", "dense"), default="sparse")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--strict-deterministic", action="store_true")

    p_dist = sub.add_parser(
        "distribution", help="analytic vs sampled retrieval distribution"
    )
    add_common(p_dist, with_shots=True)
    p_dist.set_defaults(handler=cmd_distribution)

    p_ret = sub.add_parser("retrieve", help="run one retrieval (with retry budget)")
    add_common(p_ret, with_retries=True)
    p_ret.set_defaults(handler=cmd_retrieve)

    p_clone = sub.add_parser(
        "clone-check", help="overlap, efficiency feasibility, Gram comparison"
    )
    p_clone.add_argument("--patterns", required=True, help="pattern file path")
    p_clone.add_argument("--format", choices=("json", "csv"), default="json")
    p_clone.set_defaults(handler=cmd_clone_check)

    p_cost = sub.add_parser("complexity", help="amplification cost tables")
    p_cost.add_argument("--patterns", required=True, help="pattern file path")
    group = p_cost.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="input bit string (instance mode)")
    group.add_argument(
        "--uniform", action="store_true", help="uniform-spread estimates instead"
    )
    p_cost.add_argument(
        "--b-range", type=_parse_b_range, required=True, help="B, A:B, or comma list"
    )
    p_cost.add_argument("--format", choices=("json", "csv"), default="json")
    p_cost.set_defaults(handler=cmd_complexity)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        config_echo, results, rows = args.handler(args)
    except (PatternParseError, DimensionError, ZeroMassError, CloningError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    timing_ms = (time.perf_counter() - started) * 1000.0
    if args.format == "csv":
        sys.stdout.write(_emit_csv(rows))
    else:
        report = {
            "config": config_echo,
            "results": results,
            "version": __version__,
            "timing_ms": round(timing_ms, 3),
        }
        print(_dumps(report))
    return 0

if __name__ == "__main__":
    sys.exit(main())
