"""Peak traced allocation of the retrieval path, per amplitude.

tracemalloc counts every numpy buffer exactly, so these peaks are
deterministic for a fixed instance. The sparse budget is bytes per
amplitude of the pipeline's output support: a sparse amplitude itself
takes 24 B (an int64 index and a complex128 value), and the budget leaves
room for the temporaries of one gate beside its input and output. The
dense budget is bytes per basis state: a dense amplitude takes 16 B, and
the budget holds a gate's input, its output and a half-size scratch,
which leaves no room for a second full-size temporary. Every test runs
twice: with each pass on one thread, and with every pass split over two
(statevector._split), whose thread writes only into arrays the calling
thread allocated, so the budgets are the same.
"""

import tracemalloc

import numpy as np
import pytest

from mirrorqam import statevector
from mirrorqam.patterns import BitPattern, PatternSet
from mirrorqam.retrieval import (
    GammaMode,
    RetrievalConfig,
    run_pipeline,
    run_retrieval,
    simulate_distribution,
)

N, P, B = 12, 256, 8
AMPLITUDES = 2 * P << B  # both branches, every control value
BYTES_PER_AMPLITUDE = 64
# run_retrieval keeps the pipeline state for its rounds beside each round's
# collapsed start, amplified states and readout projections.
RETRIEVAL_BYTES_PER_AMPLITUDE = 74
DENSE_N, DENSE_P, DENSE_B = 10, 64, 6
BASIS_STATES = 1 << (DENSE_N + DENSE_B + 1)  # memory, control and ancilla qubits
DENSE_BYTES_PER_BASIS_STATE = 48


def random_instance(n, p):
    """Input 0 and p random words, none equal to the input or its complement.

    Every stored word then rotates into all 2**b control values, so both
    branches fill the full support 2 * p * 2**b.
    """
    rng = np.random.default_rng(2024)
    words = rng.choice(np.arange(1, (1 << n) - 1), size=p, replace=False)
    patterns = PatternSet(tuple(int(w) for w in words), n)
    return BitPattern(0, n), patterns


@pytest.fixture(autouse=True, params=["one thread", "split"])
def split_path(request, monkeypatch):
    if request.param == "split":
        monkeypatch.setattr(statevector, "_SPLIT_MIN", 1)
        monkeypatch.setattr(statevector, "_cpus", lambda: 2)
    else:
        monkeypatch.setattr(statevector, "_SPLIT_MIN", 1 << 62)


@pytest.fixture(scope="module")
def instance():
    return random_instance(N, P)


def traced_peak(call) -> int:
    """Peak traced bytes of one call, after an untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pipeline_peak_per_amplitude(instance):
    input_pattern, patterns = instance
    state = run_pipeline(input_pattern, patterns, 0.5, 0.5, B)
    assert state.support_size == AMPLITUDES == 131_072
    peak = traced_peak(lambda: run_pipeline(input_pattern, patterns, 0.5, 0.5, B))
    assert peak / AMPLITUDES <= BYTES_PER_AMPLITUDE


def test_distribution_peak_per_amplitude(instance):
    input_pattern, patterns = instance
    config = RetrievalConfig(B, GammaMode.fixed(0.5), shots=10_000, seed=1)
    peak = traced_peak(lambda: simulate_distribution(input_pattern, patterns, config))
    assert peak / AMPLITUDES <= BYTES_PER_AMPLITUDE


def test_memory_only_distribution_peak_per_amplitude(instance):
    # One branch holds every amplitude, so amplification runs on the whole
    # support: its start state, the previous round and the reflected copy.
    input_pattern, patterns = instance
    config = RetrievalConfig(B, GammaMode.memory_only(), shots=10_000, seed=1)
    state = run_pipeline(input_pattern, patterns, 1.0, 0.0, B)
    assert state.support_size == AMPLITUDES // 2
    peak = traced_peak(lambda: simulate_distribution(input_pattern, patterns, config))
    assert peak / (AMPLITUDES // 2) <= BYTES_PER_AMPLITUDE


def test_memory_only_retrieval_peak_per_amplitude(instance):
    # A round must not keep its collapsed start alive through the readout.
    input_pattern, patterns = instance
    config = RetrievalConfig(B, GammaMode.memory_only(), seed=1)
    peak = traced_peak(lambda: run_retrieval(input_pattern, patterns, config))
    assert peak / (AMPLITUDES // 2) <= RETRIEVAL_BYTES_PER_AMPLITUDE


def test_dense_pipeline_peak_per_basis_state():
    input_pattern, patterns = random_instance(DENSE_N, DENSE_P)

    def call():
        return run_pipeline(input_pattern, patterns, 0.5, 0.5, DENSE_B, mode="dense")

    assert call().layout.dim == BASIS_STATES
    assert traced_peak(call) / BASIS_STATES <= DENSE_BYTES_PER_BASIS_STATE
