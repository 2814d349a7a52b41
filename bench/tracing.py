"""Spans and counts recorded from outside the package.

``instrument`` swaps public functions in the ``mirrorqam.cli`` and
``mirrorqam.retrieval`` namespaces for wrappers that open a span around the
call and record counts at its boundary, and puts the originals back on
exit. The package source is not touched; calls made through other
namespaces are not seen.

Bookkeeping done by the wrappers (support sizes, norms) is charged to every
open span as ``book`` time and subtracted from their durations, so stage
times exclude it. A span's self time is its net duration minus the net
durations of its children.
"""

from __future__ import annotations

import math
import statistics
from contextlib import contextmanager
from time import perf_counter

# (module, attribute) -> (span name, what to record at the boundary)
WRAPPED = {
    ("cli", "parse_pattern_file"): ("patterns.parse", None),
    ("cli", "memory_overlap"): ("memory.overlap", None),
    ("cli", "solve_efficiencies"): ("memory.solve", None),
    ("cli", "gram_residual"): ("memory.gram", None),
    ("cli", "analytic_distribution"): ("retrieval.analytic", None),
    ("cli", "complexity_estimate"): ("retrieval.complexity", None),
    ("cli", "simulate_distribution"): ("retrieval.simulate_distribution", None),
    ("cli", "run_retrieval"): ("retrieval.run_retrieval", None),
    ("retrieval", "analytic_distribution"): ("retrieval.analytic", None),
    ("retrieval", "retrieve"): ("retrieval.round", "round"),
    ("retrieval", "run_pipeline"): ("retrieval.pipeline", "stage"),
    ("retrieval", "prepare_initial"): ("retrieval.prepare", "stage"),
    ("retrieval", "apply_difference_encoding"): ("retrieval.encode", "stage"),
    ("retrieval", "apply_control_rotations"): ("retrieval.rotate", "stage"),
    ("retrieval", "undo_difference_encoding"): ("retrieval.restore", "stage"),
    ("retrieval", "collapse_qubit"): ("retrieval.collapse", "gate"),
    ("retrieval", "measure_qubit"): ("retrieval.collapse", "gate"),
    ("retrieval", "good_subspace_probability"): ("retrieval.good_prob", None),
    ("retrieval", "amplitude_amplify"): ("retrieval.amplify", "amplify"),
    ("retrieval", "reflect_good_subspace"): ("retrieval.reflect_good", "gate"),
    ("retrieval", "reflect_about_state"): ("retrieval.reflect_about", "gate"),
    ("retrieval", "apply_not"): ("statevector.not", "gate"),
    ("retrieval", "apply_hadamard"): ("statevector.hadamard", "gate"),
    ("retrieval", "apply_hamming_phase"): ("statevector.hamming_phase", "gate"),
    ("retrieval", "measure_register"): ("statevector.measure_register", "gate"),
}

FIELDS = ("name", "start", "end", "parent", "instance", "book", "attr")
NAME, START, END, PARENT, INSTANCE, BOOK, ATTR = range(len(FIELDS))


class Tracer:
    """Spans as [name, start, end, parent, instance, book, attr] lists, plus counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance: int | None = None
        self.peak_support = 0
        self.norm_drift = 0.0

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.instance, 0.0, None])
        index = len(self.spans) - 1
        self.stack.append(index)
        self.spans[index][START] = perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    @contextmanager
    def bookkeeping(self):
        started = perf_counter()
        try:
            yield
        finally:
            spent = perf_counter() - started
            for index in self.stack:
                self.spans[index][BOOK] += spent

    def observe_state(self, state) -> None:
        self.peak_support = max(self.peak_support, state.support_size)

    def observe_norm(self, state) -> None:
        self.observe_state(state)
        self.norm_drift = max(self.norm_drift, abs(state.norm() - 1.0))

    def wrap(self, name: str, kind: str | None, fn):
        def traced(*args, **kwargs):
            if kind == "gate":
                with self.bookkeeping():
                    support = args[0].support_size
            index = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(index)
            with self.bookkeeping():
                record = self.spans[index]
                if kind == "gate":
                    state = out[1] if isinstance(out, tuple) else out
                    self.observe_state(state)
                    record[ATTR] = (state.mode, support)
                elif kind == "stage":
                    self.observe_norm(out)
                    record[ATTR] = out.mode
                elif kind == "amplify":
                    self.observe_norm(out)
                    record[ATTR] = args[2] if len(args) > 2 else kwargs["k"]
                elif kind == "round":
                    record[ATTR] = out.succeeded
            return out

        return traced


@contextmanager
def instrument(tracer: Tracer, modules: dict):
    """Install the wrappers in WRAPPED for the duration of the block.

    A function the package no longer has is skipped, so its layer reads as
    absent instead of failing the run.
    """
    saved = []
    try:
        for (module, attr), (name, kind) in WRAPPED.items():
            mod = modules[module]
            if not hasattr(mod, attr):
                continue
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(name, kind, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def net(span) -> float:
    return span[END] - span[START] - span[BOOK]


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += net(span)
    return [net(span) - child[i] for i, span in enumerate(spans)]


def per_layer(tracer: Tracer, overhead_ratio: float) -> tuple[dict, dict, dict]:
    """Per-layer metrics, dense-only extras and the base of each ratio, from the spans.

    Times are the median over instances of the layer's total net time in
    one instance; counts name their base.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    instances = sorted({s[INSTANCE] for s in spans if s[INSTANCE] is not None})
    totals = {i: {} for i in instances}

    def add(instance, key, value):
        if instance is not None:
            totals[instance][key] = totals[instance].get(key, 0.0) + value

    rounds = successes = retrievals = 0
    round_count = {"sparse": 0, "dense": 0}
    round_time = {"sparse": 0.0, "dense": 0.0}
    gate_updates = 0
    gate_time = 0.0
    for i, s in enumerate(spans):
        name, inst, parent = s[NAME], s[INSTANCE], s[PARENT]
        parent_name = spans[parent][NAME] if parent is not None else None
        t = net(s)
        if name.startswith("cli."):
            add(inst, "cli.overhead_s", selfs[i])
        elif name in ("patterns.parse", "retrieval.analytic", "retrieval.complexity",
                      "retrieval.prepare", "retrieval.rotate", "retrieval.restore",
                      "retrieval.collapse", "retrieval.good_prob",
                      "statevector.measure_register", "statevector.to_mode",
                      "statevector.allclose"):
            add(inst, name + "_s", t)
        elif name == "retrieval.encode" and parent_name != "retrieval.restore":
            add(inst, "retrieval.encode_s", t)
        elif name.startswith("memory."):
            add(inst, "memory.clone_check_s", t)
        elif name == "retrieval.pipeline":
            add(inst, f"statevector.{s[ATTR]}_pipeline_s", t)
        elif name == "retrieval.simulate_distribution":
            add(inst, "retrieval.sample_s", selfs[i])
        elif name == "retrieval.amplify":
            add(inst, "retrieval.amp_iterations", s[ATTR])
        elif name == "retrieval.run_retrieval":
            retrievals += 1
        elif name == "retrieval.round":
            rounds += 1
            successes += bool(s[ATTR])
        if name in ("retrieval.reflect_good", "retrieval.reflect_about"):
            mode = s[ATTR][0]
            round_count[mode] += name == "retrieval.reflect_about"
            round_time[mode] += t
        if isinstance(s[ATTR], tuple):  # a gate: (mode, input support)
            gate_updates += s[ATTR][1]
            gate_time += t
            add(inst, "statevector.amp_updates", s[ATTR][1])

    def median(key):
        """Median over instances, counting an instance without this layer as 0; NaN if none has it."""
        if not any(key in totals[i] for i in instances):
            return math.nan
        return statistics.median(totals[i].get(key, 0.0) for i in instances)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else math.nan

    metrics = {
        "patterns.parse_s": (median("patterns.parse_s"), "s"),
        "memory.clone_check_s": (median("memory.clone_check_s"), "s"),
        "retrieval.analytic_s": (median("retrieval.analytic_s"), "s"),
        "retrieval.complexity_s": (median("retrieval.complexity_s"), "s"),
        "cli.overhead_s": (median("cli.overhead_s"), "s"),
        "retrieval.prepare_s": (median("retrieval.prepare_s"), "s"),
        "retrieval.encode_s": (median("retrieval.encode_s"), "s"),
        "retrieval.rotate_s": (median("retrieval.rotate_s"), "s"),
        "retrieval.restore_s": (median("retrieval.restore_s"), "s"),
        "retrieval.collapse_s": (median("retrieval.collapse_s"), "s"),
        "retrieval.good_prob_s": (median("retrieval.good_prob_s"), "s"),
        "retrieval.amp_round_s": (ratio(round_time["sparse"], round_count["sparse"]), "s"),
        "retrieval.sample_s": (median("retrieval.sample_s"), "s"),
        "statevector.measure_register_s": (median("statevector.measure_register_s"), "s"),
        "statevector.sparse_pipeline_s": (median("statevector.sparse_pipeline_s"), "s"),
        "statevector.peak_support": (tracer.peak_support, "count"),
        "statevector.amp_updates": (median("statevector.amp_updates"), "count"),
        "statevector.amp_updates_per_s": (ratio(gate_updates, gate_time), "1/s"),
        "retrieval.amp_iterations": (median("retrieval.amp_iterations"), "count"),
        "retrieval.rounds_per_retrieve": (ratio(rounds, retrievals), "count"),
        "retrieval.round_success_frac": (ratio(successes, rounds), "ratio"),
        "statevector.norm_drift": (tracer.norm_drift, "1"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    extras = {
        "statevector.dense_pipeline_s": (median("statevector.dense_pipeline_s"), "s"),
        "statevector.dense_amp_round_s": (ratio(round_time["dense"], round_count["dense"]), "s"),
        "statevector.to_mode_s": (median("statevector.to_mode_s"), "s"),
        "statevector.allclose_s": (median("statevector.allclose_s"), "s"),
    }
    bases = {
        "per-instance medians": f"{len(instances)} instances",
        "retrieval.amp_round_s": f"{round_count['sparse']} sparse rounds",
        "statevector.dense_amp_round_s": f"{round_count['dense']} dense rounds",
        "statevector.amp_updates_per_s": f"{gate_updates} updates over {gate_time:.4f} s in gate spans",
        "retrieval.rounds_per_retrieve": f"{rounds} rounds over {retrievals} retrieve calls",
        "retrieval.round_success_frac": f"{successes} successful of {rounds} rounds",
        "retrieval.sample_s": "derived: simulate_distribution self time",
        "spans": str(len(spans)),
    }
    return metrics, extras, bases
