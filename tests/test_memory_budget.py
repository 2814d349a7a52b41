"""Peak traced allocation of the sparse retrieval path, per amplitude.

tracemalloc counts every numpy buffer exactly, so these peaks are
deterministic for a fixed instance. The budget is bytes per amplitude of
the pipeline's output support: a sparse amplitude itself takes 24 B (an
int64 index and a complex128 value), and the budget leaves room for the
temporaries of one gate beside its input and output.
"""

import tracemalloc

import numpy as np
import pytest

from mirrorqam.patterns import BitPattern, PatternSet
from mirrorqam.retrieval import (
    GammaMode,
    RetrievalConfig,
    run_pipeline,
    simulate_distribution,
)

N, P, B = 12, 256, 8
AMPLITUDES = 2 * P << B  # both branches, every control value
BYTES_PER_AMPLITUDE = 64


@pytest.fixture(scope="module")
def instance():
    """Input 0 and p random words, none equal to the input or its complement.

    Every stored word then rotates into all 2**b control values, so both
    branches fill the full support 2 * p * 2**b.
    """
    rng = np.random.default_rng(2024)
    words = rng.choice(np.arange(1, (1 << N) - 1), size=P, replace=False)
    patterns = PatternSet(tuple(BitPattern(int(w), N) for w in words))
    return BitPattern(0, N), patterns


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
