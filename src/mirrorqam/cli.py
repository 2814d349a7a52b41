"""Command-line front-end: distribution comparison, retrieval, cloning checks, cost tables.

Reports are JSON by default, with top-level keys config, results, version,
and timing_ms; re-running a command with identical flags and seed
reproduces the results section byte-for-byte. --strict-deterministic
makes distribution replay its shots one by one, each drawn as a retrieve
round draws it; retrieve accepts the flag, but it always draws round by
round, so its results are the same with or without it. CSV emits the
command's tabular view with a stable column order. The results keys are
the field names of the library's result records (DistributionReport,
RetrievalOutcome, CloningSolution). Exit codes: 0 success; a user error
prints one line and exits with the exit_code of its class in errors (2
parse error, 3 dimension error, 4 zero retrievable mass, 5 infeasible
cloning requirement); 1 when stdout closes before the report is written.

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
import dataclasses
import functools
import io
import json
import math
import os
import secrets
import sys
import time

from . import __version__
from .errors import CloningError, DimensionError, PatternParseError, ZeroMassError
from .memory import CloningSolution, gram_residual, memory_overlap, solve_efficiencies
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
    law_distances,
    retrievable_mass,
    run_retrieval,
    simulate_distribution,
)

# Values the C encoder writes as json.dumps(..., indent=2) would; a float
# among them may still be nan or inf, which allow_nan=False refuses.
_FLAT = frozenset((str, int, float, bool, type(None)))
_encode_key = json.encoder.encode_basestring_ascii

# The largest b a cost table takes: a uniform 1:4096 table takes seconds,
# and cos_power_average's exact binomial grows with b.
MAX_TABLE_B = 4096

# The most shots a distribution run takes: the bulk sampler holds about
# 9 bytes per shot at its peak, so 2^24 shots stay near 0.15 GB, below a
# state at the amplitude cap; the per-shot replay takes microseconds a shot.
MAX_SHOTS = 2**24

# The largest retrieve round budget: each round is kept and reported, at
# 70-100 us and about 200 report bytes a round on a small memory, so 2^16
# failing rounds take 5-7 s and print 13 MB.
MAX_ROUNDS = 2**16


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
    except (OSError, UnicodeDecodeError) as exc:
        raise PatternParseError(f"cannot read pattern file {path!r}: {exc}") from exc
    return parse_pattern_file(text)


def _parse_input(text: str) -> BitPattern:
    try:
        return BitPattern.from_string(text)
    except ValueError as exc:
        raise PatternParseError(f"invalid --input value: {exc}") from exc


def _parse_b_range(text: str) -> list[int]:
    """Accept a single b, an inclusive A:B range, or a comma list.

    Every b lies in 1..MAX_TABLE_B; a range is checked at its ends, before
    its list is built.
    """
    try:
        if ":" in text:
            lo, hi = map(int, text.split(":", 1))
            ends = [lo, hi] if lo <= hi else []
        else:
            ends = [int(v) for v in text.split(",")]
        if not ends or min(ends) < 1:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected B, A:B, or a comma list of positive ints, got {text!r}"
        ) from None
    if max(ends) > MAX_TABLE_B:
        raise argparse.ArgumentTypeError(
            f"b may be at most {MAX_TABLE_B}, got {text!r}"
        )
    return list(range(lo, hi + 1)) if ":" in text else ends


def _int_at_least(low: int, kind: str):
    """argparse type for ints of at least low, named kind in its error."""

    def convert(text: str) -> int:
        try:
            value = int(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected a {kind} int, got {text!r}")

    return convert


# Counts must be at least 1; a seed is any int numpy's generators take.
_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "non-negative")


def _count_at_most(most: int, name: str):
    """argparse type for a positive count of at most most, named name in its error."""

    def convert(text: str) -> int:
        count = _positive_int(text)
        if count > most:
            raise argparse.ArgumentTypeError(f"{name} may be at most {most}, got {text!r}")
        return count

    return convert


_shot_count = _count_at_most(MAX_SHOTS, "shots")
_round_count = _count_at_most(MAX_ROUNDS, "retries")


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


def _config(args, **resolved) -> dict:
    """The config section: each parsed flag under its own name, and the command.

    resolved gives the values a flag was turned into, such as a drawn seed.
    """
    return {k: v for k, v in vars(args).items() if k != "handler"} | resolved


def _fields(record, *leave_out: str) -> dict:
    """A result record's fields by name, as a report prints them, but those in leave_out."""
    return {
        field.name: getattr(record, field.name)
        for field in dataclasses.fields(record)
        if field.name not in leave_out
    }


def _distribution_rows(input_pattern, report):
    return [
        {
            "pattern": str(pattern),
            "hamming_distance": hamming_distance(input_pattern, pattern),
            "analytic_unnormalized": report.analytic_unnormalized[pattern],
            "analytic_conditional": report.analytic_conditional[pattern],
            "empirical_frequency": report.empirical_frequency.get(pattern, 0.0),
            "empirical_count": report.empirical_count.get(pattern, 0),
        }
        for pattern in sorted(report.analytic_unnormalized, key=str)
    ]


def _retrieval_request(args) -> tuple[PatternSet, BitPattern, RetrievalConfig, dict]:
    """Pattern set, input, RetrievalConfig and config section of a retrieval run.

    Every randomized command reports its seed, drawn here when not given.
    """
    patterns = _load_patterns(args.patterns)
    input_pattern = _parse_input(args.input)
    seed = secrets.randbits(32) if args.seed is None else args.seed
    config = RetrievalConfig(
        b=args.b,
        gamma_mode=args.gamma_mode,
        amplification_mode=args.amp_mode,
        shots=getattr(args, "shots", 1),
        seed=seed,
        representation=args.mode,
    )
    config_echo = _config(
        args,
        seed=seed,
        gamma_mode=args.gamma_mode.describe(),
        amp_mode=args.amp_mode.describe(),
    )
    return patterns, input_pattern, config, config_echo


def cmd_distribution(args) -> tuple[dict, dict, list[dict]]:
    patterns, input_pattern, config, config_echo = _retrieval_request(args)
    report = simulate_distribution(
        input_pattern, patterns, config, strict=args.strict_deterministic
    )
    # Only --format csv prints the per-pattern rows.
    rows = _distribution_rows(input_pattern, report) if args.format == "csv" else []
    return config_echo, _fields(report), rows


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
    patterns, input_pattern, config, config_echo = _retrieval_request(args)
    run = run_retrieval(input_pattern, patterns, config, max_rounds=args.retries)
    analytic = analytic_distribution(input_pattern, patterns, args.b)
    # The run stops at its first success, so its last round is the outcome.
    outcome = run.rounds[-1]
    output_probability = (
        analytic.conditional.get(outcome.output_pattern)
        if outcome.output_pattern is not None
        else None
    )
    results = {
        **_fields(outcome),
        "failed_rounds": run.failed_rounds,
        "rounds_used": len(run.rounds),
        "output_conditional_probability": output_probability,
        "analytic_conditional": analytic.conditional,
        "rounds": [_fields(r, "raw_pattern") for r in run.rounds],
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
    except CloningError as exc:
        solution = CloningSolution(s, math.nan, math.nan, False, str(exc))
        verdict = "singular-overlap"
    if solution.feasible:
        gamma_used, gamma_bar_used = solution.gamma, solution.gamma_bar
    else:
        gamma_used = gamma_bar_used = 0.5  # symmetric reference attempt
    check = gram_residual(s, gamma_used, gamma_bar_used)
    results = {
        **_fields(solution),
        "verdict": verdict,
        "gram": {
            **_fields(check, "overlap"),
            "gamma_used": gamma_used,
            "gamma_bar_used": gamma_bar_used,
        },
    }
    row = {
        "overlap": s,
        "verdict": verdict,
        "feasible": solution.feasible,
        "gamma": "" if math.isnan(solution.gamma) else solution.gamma,
        "gamma_bar": "" if math.isnan(solution.gamma_bar) else solution.gamma_bar,
        "gram_passed": check.passed,
        "gram_max_residual": check.max_residual,
    }
    return _config(args), results, [row]


def cmd_complexity(args) -> tuple[dict, dict, list[dict]]:
    patterns = _load_patterns(args.patterns)
    baseline = grover_baseline(patterns.n)
    if not args.uniform:
        input_pattern = _parse_input(args.input)
        # Only the exponent changes with b, so the distances are computed once.
        distances = law_distances(input_pattern, patterns)
        # At b = 1 the mass is 0 only when every pattern lies at distance n,
        # so the guard neither underflows nor depends on the table's first b;
        # a b whose weights underflow prints an infinite cost.
        retrievable_mass(input_pattern, patterns, 1, distances)
    rows = []
    for b in args.b_range:
        if args.uniform:
            cost = ""
            approx = complexity_uniform_approx(b)
            exact = math.sqrt(1.0 / cos_power_average(b))
        else:
            cost = complexity_estimate(input_pattern, patterns, b, distances)
            approx = exact = ""
        rows.append(
            {
                "b": b,
                "instance_cost": cost,
                "uniform_approx": approx,
                "uniform_exact": exact,
                "grover_baseline": baseline,
            }
        )
    results = {
        "n": patterns.n,
        "p": patterns.p,
        "grover_baseline": baseline,
        "table": rows,
    }
    return _config(args), results, rows


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
            " tables. Pattern files hold one 0/1 word per line; blank lines"
            " and lines whose first non-blank character is '#' are skipped,"
            " and a '#' after a word is an error."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_shots=False, with_retries=False):
        p.add_argument("--patterns", required=True, help="pattern file path")
        p.add_argument("--input", required=True, help="input bit string")
        p.add_argument(
            "--b", type=_positive_int, required=True, help="control-qubit count"
        )
        if with_shots:
            p.add_argument("--shots", type=_shot_count, default=10000)
        p.add_argument("--seed", type=_nonnegative_int, default=None)
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
                "--retries", type=_round_count, default=5, help="round budget"
            )
        p.add_argument("--mode", choices=("sparse", "dense"), default="sparse")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument(
            "--strict-deterministic",
            action="store_true",
            help="distribution: replay the shots one by one, as retrieve rounds;"
            " retrieve always draws round by round, so it changes nothing there",
        )

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
        body = _emit_csv(rows)[:-1]  # print writes the last newline back
    else:
        report = {
            "config": config_echo,
            "results": results,
            "version": __version__,
            "timing_ms": round(timing_ms, 3),
        }
        body = _dumps(report)
    try:
        # print writes the newline on its own. Unbuffered (PYTHONUNBUFFERED),
        # a write that a closing reader cuts short returns without an error,
        # and only the next write raises.
        print(body)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (as head does). Pointing stdout at
        # devnull stops the interpreter's flush at exit from failing again.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    return 0

if __name__ == "__main__":
    sys.exit(main())
