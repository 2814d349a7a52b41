"""mirrorqam benchmark: checked end-to-end times per workload, or a traced per-layer run.

Usage, from the repository root:

    python3 bench/run.py --workload desk-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload wide-memory --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --workload dense-crosscheck --seed 1 --seconds 2 --trace 0 --smoke

The benchmark imports the package from ``src/`` and drives its public API
(``cli.main`` in-process, plus the state layer on dense-crosscheck) as one
client in a closed loop: an operation starts when the previous one has
returned. Each run is its own process, so ``peak_rss_mb`` belongs to one
workload. Instances run in order until the next one would overrun
``--seconds``; every output is checked outside the timed region.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
reruns the same loop with spans around the public calls and prints the
per-layer metrics; the program is single-threaded, so no layer waits in a
queue and none is reported. ``--smoke`` shrinks every instance to a few
qubits, for the benchmark's own tests.

Every metric is printed by name with its unit; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The run
exits 1 if any check fails and 2 if the package is missing. Generated
inputs go to ``.bench_work/`` and results, with the environment stamp and
the spans, to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# BLAS/OpenMP read their thread caps once, when numpy is first imported,
# which the imports below do.
for _var in THREAD_VARS:
    os.environ[_var] = str(nproc())

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
SMOKE_SETUP_PROBES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk-sweep", "wide-memory", "dense-crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny instances, for tests")
    return parser.parse_args(argv)


def median(values):
    return statistics.median(values) if values else math.nan


class Runner:
    """Runs a workload's instances in a closed loop, timing and checking every operation."""

    def __init__(self, instances, trace: bool):
        import mirrorqam
        from mirrorqam import cli, retrieval

        self.mq = mirrorqam
        self.instances = instances
        self.cli = cli
        self.modules = {"cli": cli, "retrieval": retrieval}
        self.tracer = tracing.Tracer() if trace else None
        self.records: list[tuple[bool, dict[str, list[float]]]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.untraced_distribution = 0.0
        self.traced_distribution = 0.0
        self.trace_checked: set[int] = set()

    def instrumented(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        return tracing.instrument(self.tracer, self.modules)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def run(self, seconds: float, setup=None) -> None:
        """Instances in order until the next would overrun; set-up samples in between."""
        started = perf_counter()
        j = 0
        while True:
            inst = self.instances[j % len(self.instances)]
            t0 = perf_counter()
            if self.tracer is not None:
                self.tracer.instance = j
            self.records.append(self.run_instance(inst))
            j += 1
            last = perf_counter() - t0
            elapsed = perf_counter() - started
            if setup is not None:
                setup.catch_up(elapsed / seconds)
            if perf_counter() - started + last > seconds:
                break
        if setup is not None:
            setup.catch_up(1.0)

    def attempt(self, inst, kind: str, operation):
        """Run one operation; a failure is recorded and the run goes on."""
        self.attempted += 1
        try:
            return operation()
        except Exception as exc:  # noqa: BLE001 - every failure is counted, none stops the run
            self.failures.append(f"instance {inst.index} {kind}: {type(exc).__name__}: {exc}")
            return None

    def run_instance(self, inst) -> tuple[bool, dict[str, list[float]]]:
        """Every operation of one instance; returns (all succeeded, seconds per kind)."""
        times: dict[str, list[float]] = {}
        failed_before = len(self.failures)
        for kind, argv in inst.ops:
            if kind == "crosscheck":
                elapsed = self.attempt(inst, kind, lambda: self.crosscheck(inst))
            else:
                elapsed = self.attempt(inst, kind, lambda: self.cli_op(inst, kind, argv))
            if elapsed is not None:
                times.setdefault(kind, []).append(elapsed)
        complete = len(self.failures) == failed_before
        if self.tracer is not None and inst.index not in self.trace_checked:
            self.trace_checked.add(inst.index)
            self.attempt(inst, "trace-check", lambda: self.trace_check(inst))
        return complete, times

    def call_cli(self, argv: list[str]) -> tuple[float, dict]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            started = perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            elapsed = perf_counter() - started
        checks.require(code == 0, f"exit code {code}: {err.getvalue().strip()}")
        return elapsed, json.loads(out.getvalue())

    def cli_op(self, inst, kind: str, argv: list[str]) -> float:
        if self.tracer is not None and kind == "distribution":
            self.attempted += 1
            untraced, report = self.call_cli(argv)
            check_output(inst, kind, argv, report)
            self.untraced_distribution += untraced
        with self.instrumented(), self.span(f"cli.{kind}"):
            elapsed, report = self.call_cli(argv)
        check_output(inst, kind, argv, report)
        if self.tracer is not None and kind == "distribution":
            self.traced_distribution += elapsed
        return elapsed

    def load(self, inst):
        text = Path(inst.path).read_text(encoding="utf-8")
        return self.mq.parse_pattern_file(text), self.mq.BitPattern.from_string(inst.input)

    def crosscheck(self, inst) -> float:
        """Sparse and dense pipelines, ancilla collapse and amplification, compared.

        Only the library calls are timed; the independent amplitude
        comparison runs afterwards.
        """
        r = self.modules["retrieval"]
        patterns, x = self.load(inst)
        gamma, gamma_bar = inst.branch_weights
        with self.instrumented():
            started = perf_counter()
            sparse = r.run_pipeline(x, patterns, gamma, gamma_bar, inst.b, "sparse")
            dense = r.run_pipeline(x, patterns, gamma, gamma_bar, inst.b, "dense")
            with self.span("statevector.to_mode"):
                as_dense = sparse.to_mode("dense")
            with self.span("statevector.allclose"):
                verdicts = [dense.allclose(as_dense), dense.allclose(sparse)]
            pairs = [(sparse, dense)]
            ancilla = sparse.layout.ancilla.offset
            for branch in (0, 1):
                pair = []
                for state in (sparse, dense):
                    _, collapsed = r.collapse_qubit(state, ancilla, branch)
                    pair.append(r.amplitude_amplify(collapsed, branch, workloads.DENSE_AMP_ROUNDS))
                with self.span("statevector.allclose"):
                    verdicts.append(pair[1].allclose(pair[0]))
                pairs.append(tuple(pair))
            elapsed = perf_counter() - started
        checks.require(all(verdicts), f"StateVector.allclose verdicts {verdicts}")
        for a, b in pairs:
            checks.check_states_agree(a.as_dict(), b.as_dict(), "sparse vs dense")
        return elapsed

    def trace_check(self, inst) -> None:
        """The stage sequence recomposed by hand equals run_pipeline, and obeys the law."""
        r = self.modules["retrieval"]
        patterns, x = self.load(inst)
        gamma, gamma_bar = inst.branch_weights
        layout = self.mq.RegisterLayout.retrieval(inst.n, inst.b)
        state = r.prepare_initial(x, patterns, gamma, gamma_bar, layout)
        state = r.apply_difference_encoding(state, x)
        state = r.apply_control_rotations(state)
        state = r.undo_difference_encoding(state, x)
        reference = r.run_pipeline(x, patterns, gamma, gamma_bar, inst.b)
        amps = state.as_dict()
        checks.check_states_agree(amps, reference.as_dict(), "recomposed stages vs run_pipeline")
        checks.check_good_mass(amps, inst.words, inst.input, inst.b, inst.branch_weights)

    # ---- metrics -------------------------------------------------------

    def samples(self, kind: str, per_instance=sum) -> list[float]:
        return [per_instance(t[kind]) for _, t in self.records if kind in t]

    def end_to_end(self, setup: list[float]) -> tuple[dict, dict, dict]:
        done = [t for complete, t in self.records if complete]
        busy = sum(sum(map(sum, t.values())) for t in done)
        dist = self.samples("distribution")
        ret = self.samples("retrieve", statistics.fmean)
        metrics = {
            "setup_s": (median(setup), "s"),
            "distribution_s": (median(dist), "s"),
            "retrieve_s": (median(ret), "s"),
            "instances_per_s": (len(done) / busy if busy else 0.0, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        extras = {
            "distribution_p90_s": (p90(dist), "s"),
            "retrieve_p90_s": (p90(ret), "s"),
            "strict_distribution_s": (median(self.samples("strict")), "s"),
            "crosscheck_s": (median(self.samples("crosscheck")), "s"),
            "clone_check_cli_s": (median(self.samples("clone-check")), "s"),
            "complexity_cli_s": (median(self.samples("complexity")), "s"),
            "error_rate": (len(self.failures) / self.attempted, "ratio"),
        }
        bases = {
            "setup_s": f"median of {len(setup)} fresh interpreters spread over the run",
            "distribution_s": f"median of {len(dist)} calls",
            "retrieve_s": f"median over {len(ret)} instances of the mean call",
            "instances_per_s": f"{len(done)} complete instances over {busy:.4f} s of timed calls",
            "distribution_p90_s": f"{len(dist)} calls",
            "retrieve_p90_s": f"{len(ret)} instances",
            "error_rate": f"{len(self.failures)} failed of {self.attempted} operations",
        }
        return metrics, extras, bases


def check_output(inst, kind: str, argv: list[str], report: dict) -> None:
    if kind in ("distribution", "strict"):
        shots = int(argv[argv.index("--shots") + 1])
        checks.check_distribution(report, inst.words, inst.input, inst.b, shots)
    elif kind == "retrieve":
        checks.check_retrieve(report, inst.words, workloads.RETRIES)
    elif kind == "clone-check":
        checks.check_clone(report, inst.words)
    elif kind == "complexity":
        lo, hi = map(int, workloads.COMPLEXITY_B_RANGE.split(":"))
        checks.check_complexity(report, inst.words, inst.input, range(lo, hi + 1))


def p90(values: list[float]) -> float:
    """90th percentile, or NaN when fewer than ten samples lie above it."""
    if len(values) < 100:
        return math.nan
    return statistics.quantiles(values, n=10)[-1]


class SetupTimer:
    """Set-up samples, each from a fresh interpreter.

    The machine's speed drifts over tens of seconds while staying steady
    over a few, so the samples are spread over the run rather than taken in
    one burst; their median then sees the same machine as the timed calls.
    """

    def __init__(self, work: Path, count: int):
        self.work = work
        self.count = count
        self.samples: list[float] = []
        self.probe()  # the first run writes bytecode caches; users pay that once
        self.samples.clear()

    def probe(self) -> None:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(self.work)],
            capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        self.samples.append(float(done.stdout.strip().splitlines()[-1]))

    def catch_up(self, fraction: float) -> None:
        """Take samples until a share of the count matching the run's elapsed share is done."""
        while len(self.samples) < min(self.count, math.ceil(self.count * fraction)):
            self.probe()


def environment(args) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    uname = platform.uname()
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": f"{uname.system} {uname.release} {uname.machine}",
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def report(metrics: dict, extras: dict, bases: dict) -> None:
    for name, (value, unit) in {**metrics, **extras}.items():
        base = f"  ({bases[name]})" if name in bases else ""
        shown = "n/a" if isinstance(value, float) and math.isnan(value) else repr(value)
        print(f"{name:34s} {shown} {unit}{base}")
    for name, base in bases.items():
        if name not in metrics and name not in extras:
            print(f"# {name}: {base}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mirrorqam" / "__init__.py").is_file():
        print(f"error: no mirrorqam package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mirrorqam

    if not Path(mirrorqam.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported mirrorqam from {mirrorqam.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    work = WORK / tag
    instances = workloads.generate(args.workload, args.seed, work, smoke=args.smoke)
    setup = None if args.trace else SetupTimer(
        work, SMOKE_SETUP_PROBES if args.smoke else SETUP_PROBES)

    runner = Runner(instances, trace=bool(args.trace))
    runner.run(args.seconds, setup)

    if args.trace:
        ratio = (runner.traced_distribution / runner.untraced_distribution
                 if runner.untraced_distribution else math.nan)
        metrics, extras, bases = tracing.per_layer(runner.tracer, ratio)
        bases["trace.overhead_ratio"] = (
            f"traced {runner.traced_distribution:.4f} s / untraced "
            f"{runner.untraced_distribution:.4f} s of the same distribution calls")
        bases["queue wait"] = "none: one single-threaded client, no layer queues work"
    else:
        metrics, extras, bases = runner.end_to_end(setup.samples)

    env = environment(args)
    failed = len(runner.failures)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{tag}-trace{args.trace}"
    result = {"env": env, "metrics": metrics, "extras": extras, "bases": bases,
              "attempted": runner.attempted, "failures": runner.failures}
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1, default=str) + "\n")
    if runner.tracer is not None:
        spans = {"fields": tracing.FIELDS, "spans": runner.tracer.spans}
        Path(f"{stem}-spans.json").write_text(json.dumps(spans, default=str) + "\n")

    for message in runner.failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    report(metrics, extras, bases)
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
