import cmath
import contextlib
import math
import os
import sys
import threading
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorqam import statevector
from mirrorqam.errors import DimensionError
from mirrorqam.patterns import BitPattern, PatternSet, random_pattern_set
from mirrorqam.retrieval import (
    GammaMode,
    RetrievalConfig,
    amplitude_amplify,
    apply_difference_encoding,
    prepare_initial,
    run_pipeline,
    run_retrieval,
)
from mirrorqam.statevector import (
    NORM_TOLERANCE,
    Register,
    RegisterLayout,
    StateVector,
    apply_control_rotations,
    apply_hadamard,
    apply_hamming_phase,
    apply_not,
    apply_xor,
    collapse_qubit,
    collapse_register,
    flip_bits,
    inner_product,
    measure_qubit,
    measure_register,
    reflect_about_state,
    reflect_good_subspace,
    register_law,
    subspace_mass,
)

from oracles import decode, encode, probability_of_subspace

SQ2 = math.sqrt(0.5)


def one_qubit(mode="sparse"):
    return StateVector.basis_state(RegisterLayout.memory_only(1), 0, mode)


def bell(mode="sparse"):
    lay = RegisterLayout.memory_only(2)
    return StateVector.from_amplitudes(lay, {0b00: SQ2, 0b11: SQ2}, mode)


class TestLayout:
    def test_retrieval_offsets(self):
        lay = RegisterLayout.retrieval(3, 2)
        assert lay.memory.offset == 0 and lay.memory.width == 3
        assert lay.control.offset == 3 and lay.control.width == 2
        assert lay.ancilla.offset == 5 and lay.ancilla.width == 1
        assert lay.total_qubits == 6 and lay.dim == 64
        assert lay.n == 3 and lay.b == 2

    def test_registers_disjoint_and_cover(self):
        lay = RegisterLayout.cloning(4)
        bits = [b for reg in lay.registers for b in reg.bits()]
        assert sorted(bits) == list(range(lay.total_qubits))

    def test_one_based_qubit_numbering(self):
        reg = RegisterLayout.retrieval(3, 2).control
        assert reg.bit(1) == 3 and reg.bit(2) == 4
        with pytest.raises(IndexError):
            reg.bit(3)

    def test_rejects_zero_width_and_duplicates(self):
        with pytest.raises(ValueError):
            RegisterLayout((("memory", 0),))
        with pytest.raises(ValueError):
            RegisterLayout((("a", 1), ("a", 1)))

    def test_encode_decode_round_trip(self, rng):
        reg = RegisterLayout.retrieval(5, 2).memory
        for _ in range(50):
            bits = tuple(int(x) for x in rng.integers(0, 2, 5))
            assert decode(reg, encode(reg, bits)) == bits

    def test_leftmost_bit_is_least_significant(self):
        reg = RegisterLayout.memory_only(3).memory
        assert encode(reg, (1, 0, 0)) == 0b001
        assert encode(reg, (0, 0, 1)) == 0b100


class TestConstruction:
    def test_basis_state(self):
        st = one_qubit()
        assert st.amplitude(0) == 1.0 and st.support_size == 1

    def test_rejects_unnormalized(self):
        lay = RegisterLayout.memory_only(1)
        with pytest.raises(ValueError, match="not normalized"):
            StateVector.from_amplitudes(lay, {0: 0.5})
        with pytest.raises(ValueError, match="not normalized"):
            StateVector.from_arrays(lay, [0, 1], [math.nan, 0.0])

    def test_rejects_out_of_range_index(self):
        lay = RegisterLayout.memory_only(1)
        with pytest.raises(IndexError):
            StateVector.from_amplitudes(lay, {4: 1.0})

    def test_layout_limit(self):
        assert StateVector.basis_state(
            RegisterLayout.memory_only(63), 2**63 - 1
        ).support_size == 1
        with pytest.raises(DimensionError, match="at most 63 qubits"):
            RegisterLayout.retrieval(62, 1)

    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    def test_amplitude_refuses_indices_outside_the_layout(self, mode):
        state = bell(mode)
        assert state.amplitude(3) == SQ2 and state.amplitude(1) == 0
        for index in (-1, state.layout.dim):
            with pytest.raises(IndexError, match=f"basis index {index} out of range"):
                state.amplitude(index)
            with pytest.raises(IndexError, match=f"basis index {index} out of range"):
                StateVector.basis_state(state.layout, index, mode)

    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    def test_refuses_non_integer_indices(self, mode):
        lay = RegisterLayout.memory_only(2)
        for indices in ([0.7, 2.2], [0.0, 2.0], np.array(["0", "2"])):
            with pytest.raises(TypeError, match="basis indices must be integers"):
                StateVector.from_arrays(lay, indices, [0.6, 0.8], mode)
        state = bell(mode)
        for index in (2.5, 3.0, np.float64(3.0), "3"):
            with pytest.raises(TypeError, match="is not an integer"):
                state.amplitude(index)
            with pytest.raises(TypeError, match="is not an integer"):
                StateVector.basis_state(lay, index, mode)
        assert state.amplitude(np.int64(3)) == state.amplitude(np.uint8(3)) == SQ2
        got = StateVector.from_arrays(lay, np.array([3, 0], np.uint16), [0.6, 0.8], mode)
        assert got.as_dict() == {0: 0.8, 3: 0.6}

    def test_rejects_repeated_index(self):
        lay = RegisterLayout.memory_only(1)
        with pytest.raises(ValueError, match="distinct"):
            StateVector.from_arrays(lay, [1, 1], [SQ2, SQ2])

    def test_mode_round_trip(self):
        st = bell("sparse")
        assert st.to_mode("dense").to_mode("sparse").allclose(st, 0.0)


class TestNot:
    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    def test_zero_to_one(self, mode):
        st = apply_not(one_qubit(mode), 0)
        assert abs(st.amplitude(1) - 1.0) < 1e-15

    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    def test_involution(self, mode):
        st = bell(mode)
        assert apply_not(apply_not(st, 1), 1).allclose(st, 1e-15)

    def test_on_second_qubit_of_bell(self):
        # qubit 2 is global index 1
        st = apply_not(bell(), 1)
        assert abs(st.amplitude(0b10) - SQ2) < 1e-15
        assert abs(st.amplitude(0b01) - SQ2) < 1e-15

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            apply_not(one_qubit(), 1)
        for mode in ("sparse", "dense"):
            for mask in (-1, 0b10):
                with pytest.raises(IndexError):
                    flip_bits(one_qubit(mode), mask)


class TestXor:
    def test_control_one_flips_target(self):
        # |10> written leftmost-first is index 0b01 (qubit 1 set)
        lay = RegisterLayout.memory_only(2)
        st = StateVector.basis_state(lay, 0b01)
        got = apply_xor(st, 0, 1)
        assert abs(got.amplitude(0b11) - 1.0) < 1e-15

    def test_control_zero_is_identity(self):
        lay = RegisterLayout.memory_only(2)
        st = StateVector.basis_state(lay, 0b00)
        assert apply_xor(st, 0, 1).allclose(st, 0.0)

    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    def test_involution(self, mode):
        st = bell(mode)
        assert apply_xor(apply_xor(st, 0, 1), 0, 1).allclose(st, 1e-15)

    def test_rejects_equal_control_target(self):
        with pytest.raises(ValueError):
            apply_xor(bell(), 1, 1)


class TestHadamard:
    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    def test_plus_state(self, mode):
        st = apply_hadamard(one_qubit(mode), 0)
        assert abs(st.amplitude(0) - SQ2) < 1e-15
        assert abs(st.amplitude(1) - SQ2) < 1e-15

    def test_minus_state(self):
        st = apply_hadamard(apply_not(one_qubit(), 0), 0)
        assert abs(st.amplitude(0) - SQ2) < 1e-15
        assert abs(st.amplitude(1) + SQ2) < 1e-15

    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    def test_involution(self, mode):
        st = bell(mode)
        assert apply_hadamard(apply_hadamard(st, 0), 0).allclose(st, 1e-14)

    def test_sparse_drops_cancelled_amplitudes(self):
        st = apply_hadamard(apply_hadamard(one_qubit(), 0), 0)
        assert st.support_size == 1
        assert all(a != 0 for _, a in st.items())


class TestHammingPhase:
    def layout(self):
        return RegisterLayout.retrieval(1, 1)

    def test_memory_zero_control_zero_gives_i(self):
        # z = 1, sigma = +1, n = 1: phase exp(i pi/2) = i
        st = StateVector.basis_state(self.layout(), 0)
        got = apply_hamming_phase(st, 1)
        assert cmath.isclose(got.amplitude(0), 1j, abs_tol=1e-15)

    def test_memory_zero_control_one_gives_minus_i(self):
        st = StateVector.basis_state(self.layout(), 0b010)
        got = apply_hamming_phase(st, 1)
        assert cmath.isclose(got.amplitude(0b010), -1j, abs_tol=1e-15)

    def test_all_ones_memory_is_phase_free(self):
        lay = RegisterLayout.retrieval(3, 1)
        for control_value in (0, 1):
            index = 0b111 | (control_value << 3)
            st = StateVector.basis_state(lay, index)
            got = apply_hamming_phase(st, 3)
            assert cmath.isclose(got.amplitude(index), 1.0, abs_tol=1e-15)

    def test_matches_direct_formula_on_random_state(self, rng):
        lay = RegisterLayout.retrieval(3, 2)
        raw = rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)
        raw /= np.linalg.norm(raw)
        st = StateVector.from_amplitudes(lay, dict(enumerate(raw)), "sparse")
        control = lay.control.bit(2)
        got = apply_hamming_phase(st, control)
        n = lay.n
        for i, amp in st.items():
            z = sum(1 for b in lay.memory.bits() if not (i >> b) & 1)
            sigma = -1 if (i >> control) & 1 else 1
            expect = amp * cmath.exp(1j * math.pi * z * sigma / (2 * n))
            assert cmath.isclose(got.amplitude(i), expect, abs_tol=1e-14)

    def test_commutes_across_controls(self, rng):
        lay = RegisterLayout.retrieval(2, 2)
        raw = rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)
        raw /= np.linalg.norm(raw)
        st = StateVector.from_amplitudes(lay, dict(enumerate(raw)), "sparse")
        c1, c2 = lay.control.bit(1), lay.control.bit(2)
        a = apply_hamming_phase(apply_hamming_phase(st, c1), c2)
        b = apply_hamming_phase(apply_hamming_phase(st, c2), c1)
        assert a.allclose(b, 1e-14)

    def test_rejects_non_control_qubit(self):
        st = StateVector.basis_state(self.layout(), 0)
        with pytest.raises(ValueError):
            apply_hamming_phase(st, 0)


class TestMeasurement:
    def test_basis_state_is_deterministic(self, rng):
        st = apply_not(one_qubit(), 0)
        for _ in range(10):
            outcome, after = measure_qubit(st, 0, rng)
            assert outcome == 1
            assert abs(after.norm() - 1.0) < NORM_TOLERANCE

    def test_born_frequencies_on_plus_state(self, rng):
        st = apply_hadamard(one_qubit(), 0)
        shots = 100_000
        ones = sum(measure_qubit(st, 0, rng)[0] for _ in range(shots))
        sigma = math.sqrt(0.25 / shots)
        assert abs(ones / shots - 0.5) < 3 * sigma

    def test_collapse_renormalizes(self, rng):
        st = bell()
        outcome, after = measure_qubit(st, 0, rng)
        assert abs(after.norm() - 1.0) < NORM_TOLERANCE
        assert after.support_size == 1

    def test_measure_register_on_bell(self, rng):
        counts = {"00": 0, "11": 0}
        for _ in range(2000):
            word, _ = measure_register(bell(), "memory", rng)
            counts[word] += 1
        assert counts["00"] + counts["11"] == 2000
        assert abs(counts["00"] / 2000 - 0.5) < 0.05

    def test_measure_register_deterministic_on_basis_state(self, rng):
        lay = RegisterLayout.memory_only(3)
        st = StateVector.basis_state(lay, 0b101)
        word, after = measure_register(st, "memory", rng)
        assert word == "101"
        repeat, _ = measure_register(after, "memory", rng)
        assert repeat == word

    def test_collapse_qubit_probability(self):
        prob, after = collapse_qubit(bell(), 0, 1)
        assert abs(prob - 0.5) < 1e-15
        assert abs(after.amplitude(0b11) - 1.0) < 1e-15

    def test_collapse_onto_impossible_outcome(self):
        with pytest.raises(ValueError):
            collapse_qubit(one_qubit(), 0, 1)


class TestSubspaceProbability:
    def test_all_and_none(self):
        st = bell()
        assert probability_of_subspace(st, lambda i: True) == pytest.approx(1.0)
        assert probability_of_subspace(st, lambda i: False) == 0.0


class TestReflections:
    def test_reflect_about_self_is_identity(self):
        st = bell()
        assert reflect_about_state(st, st).allclose(st, 1e-14)

    def test_reflect_orthogonal_negates(self):
        lay = RegisterLayout.memory_only(2)
        axis = StateVector.basis_state(lay, 0)
        other = StateVector.basis_state(lay, 3)
        got = reflect_about_state(other, axis)
        assert abs(got.amplitude(3) + 1.0) < 1e-15

    def test_reflect_twice_is_identity(self, rng):
        lay = RegisterLayout.memory_only(2)
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        raw /= np.linalg.norm(raw)
        st = StateVector.from_amplitudes(lay, dict(enumerate(raw)))
        axis = bell()
        assert reflect_about_state(reflect_about_state(st, axis), axis).allclose(
            st, 1e-13
        )

    def test_layout_mismatch(self):
        with pytest.raises(DimensionError):
            reflect_about_state(bell(), one_qubit())

    def test_good_subspace_branch0(self):
        lay = RegisterLayout.retrieval(1, 2)
        st = StateVector.from_amplitudes(
            lay, {0b000: SQ2, 0b010: SQ2}  # controls 00 and 01
        )
        got = reflect_good_subspace(st, 0)
        assert abs(got.amplitude(0b000) + SQ2) < 1e-15
        assert abs(got.amplitude(0b010) - SQ2) < 1e-15

    def test_good_subspace_involution(self):
        lay = RegisterLayout.retrieval(1, 2)
        st = StateVector.from_amplitudes(lay, {0b000: SQ2, 0b110: SQ2})
        assert reflect_good_subspace(reflect_good_subspace(st, 1), 1).allclose(
            st, 0.0
        )

    @pytest.mark.parametrize("branch", [0, 1])
    def test_good_subspace_modes_agree_bit_for_bit(self, branch):
        # Real amplitudes hold +0.0 imaginary parts, which the negation of a
        # good amplitude turns into -0.0 in either mode.
        lay = RegisterLayout.retrieval(2, 2)
        amplitudes = {0b00000: 0.5 + 0j, 0b01100: 0.5, 0b00101: 0.5, 0b10010: 0.5}
        sparse, dense = (
            reflect_good_subspace(
                StateVector.from_amplitudes(lay, amplitudes, mode), branch
            )
            for mode in ("sparse", "dense")
        )
        assert np.array_equal(sparse.arrays()[0], dense.arrays()[0])
        assert_same_bits(sparse.arrays()[1], dense.arrays()[1])


class TestInnerProduct:
    def test_self_is_one(self):
        assert inner_product(bell(), bell()) == pytest.approx(1.0)

    def test_orthogonal_basis_states(self):
        lay = RegisterLayout.memory_only(2)
        a, b = StateVector.basis_state(lay, 0), StateVector.basis_state(lay, 1)
        assert inner_product(a, b) == 0

    def test_conjugate_symmetry(self, rng):
        lay = RegisterLayout.memory_only(2)
        states = []
        for _ in range(2):
            raw = rng.normal(size=4) + 1j * rng.normal(size=4)
            raw /= np.linalg.norm(raw)
            states.append(StateVector.from_amplitudes(lay, dict(enumerate(raw))))
        a, b = states
        assert inner_product(a, b) == pytest.approx(
            inner_product(b, a).conjugate()
        )

    def test_mixed_modes(self):
        assert inner_product(bell("sparse"), bell("dense")) == pytest.approx(1.0)

    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    @pytest.mark.parametrize("n", [13, 15])
    def test_sums_agree_with_one_vdot(self, n, mode):
        # Inner products, masses and projections sum np.vdot over blocks of
        # 8192 amplitudes, so OpenBLAS never splits them across threads. Up
        # to one block (n=13) that is a single np.vdot, bit for bit; over
        # four blocks (n=15) the blockwise sum agrees to rounding.
        lay = RegisterLayout.memory_only(n)
        a, b = (random_state(lay, seed, mode, size=lay.dim) for seed in (3, 4))
        va, vb = a.arrays()[1], b.arrays()[1]
        top = 1 << (n - 1)
        mass = np.vdot(va[top:], va[top:]).real
        want = np.vdot(va, vb), mass, mass
        got = (
            inner_product(a, b),
            subspace_mass(a, top, top),
            collapse_qubit(a, n - 1, 1)[0],
        )
        if n == 13:
            assert got == want
        else:
            assert got == pytest.approx(want, abs=1e-13)

    def test_no_library_reduction_spans_more_than_one_block(self, monkeypatch):
        # OpenBLAS splits a product of more than 10 000 elements across
        # threads that keep spinning after the call. A dense retrieval run
        # and the tracer's norm() on 2^17 amplitudes must hand numpy's dot
        # products and norm at most one block each.
        def guarded(name, call):
            def check(*args, **kwargs):
                sizes = [np.size(a) for a in args if isinstance(a, np.ndarray)]
                if max(sizes, default=0) > statevector._DOT_BLOCK:
                    pytest.fail(f"{name} called on {max(sizes)} elements")
                return call(*args, **kwargs)

            return check

        for name in ("vdot", "dot"):
            monkeypatch.setattr(np, name, guarded(name, getattr(np, name)))
        monkeypatch.setattr(np.linalg, "norm", guarded("norm", np.linalg.norm))
        rng = np.random.default_rng(17)
        patterns = random_pattern_set(10, 64, rng)
        x = BitPattern(int(rng.integers(1 << 10)), 10)
        state = run_pipeline(x, patterns, 0.5, 0.5, 6, mode="dense")
        assert state.layout.dim == 1 << 17
        config = RetrievalConfig(6, GammaMode.fixed(0.5), seed=3, representation="dense")
        assert run_retrieval(x, patterns, config).rounds
        branch = collapse_qubit(state, state.layout.ancilla.offset, 0)[1]
        amplified = amplitude_amplify(branch, 0, 2)
        assert amplified.allclose(amplitude_amplify(branch.to_mode("sparse"), 0, 2), 1e-12)
        measure_register(amplified, "control", np.random.default_rng(1))
        assert abs(amplified.norm() - 1.0) < NORM_TOLERANCE


def _random_op(state, rng):
    lay = state.layout
    choice = rng.integers(0, 5)
    if choice == 0:
        return apply_not(state, int(rng.integers(0, lay.total_qubits)))
    if choice == 1:
        c, t = rng.choice(lay.total_qubits, size=2, replace=False)
        return apply_xor(state, int(c), int(t))
    if choice == 2:
        return apply_hadamard(state, int(rng.integers(0, lay.total_qubits)))
    if choice == 3:
        return apply_hamming_phase(state, int(rng.choice(list(lay.control.bits()))))
    return reflect_good_subspace(state, int(rng.integers(0, 2)))


class TestModeAgreementAndNorm:
    def test_identical_sequences_agree_amplitudewise(self, rng):
        lay = RegisterLayout.retrieval(3, 2)
        sparse = StateVector.basis_state(lay, 0b101, "sparse")
        dense = StateVector.basis_state(lay, 0b101, "dense")
        for step in range(300):
            seed = int(rng.integers(0, 2**31))
            sparse = _random_op(sparse, np.random.default_rng(seed))
            dense = _random_op(dense, np.random.default_rng(seed))
            assert abs(sparse.norm() - 1.0) < NORM_TOLERANCE
        assert sparse.allclose(dense, 1e-12)

    def test_long_gate_chain_preserves_norm(self, rng):
        lay = RegisterLayout.retrieval(4, 3)
        st = StateVector.basis_state(lay, 0)
        for _ in range(1000):
            st = _random_op(st, rng)
            assert abs(st.norm() - 1.0) < NORM_TOLERANCE

    def test_sparse_never_stores_zero_amplitudes(self, rng):
        lay = RegisterLayout.retrieval(3, 2)
        st = StateVector.basis_state(lay, 0)
        for _ in range(200):
            st = _random_op(st, rng)
        assert all(a != 0 for _, a in st.items())


# Property tests: random small layouts, states and gate sequences. Each
# example draws its shape and gate list from hypothesis and its amplitudes
# from a numpy generator seeded by hypothesis, so a failure replays exactly.

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

layouts = st.builds(
    RegisterLayout.retrieval, st.integers(1, 4), st.integers(1, 3)
)
seeds = st.integers(0, 2**32 - 1)
gates = st.lists(
    st.tuples(
        st.sampled_from(
            ["not", "xor", "hadamard", "phase", "rotate", "good", "reflect"]
        ),
        seeds,
    ),
    max_size=25,
)


def random_state(layout, seed, mode="sparse", size=None):
    """A normalized state on a random support of the given (or a random) size."""
    rng = np.random.default_rng(seed)
    if size is None:
        size = int(rng.integers(1, layout.dim + 1))
    idx = rng.choice(layout.dim, size=size, replace=False)
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    return StateVector.from_arrays(layout, idx, amps / np.linalg.norm(amps), mode)


def apply_gate(state, gate):
    """One gate from a (name, seed) pair; the seed picks qubits or the axis."""
    name, seed = gate
    lay = state.layout
    rng = np.random.default_rng(seed)
    if name == "not":
        return apply_not(state, int(rng.integers(lay.total_qubits)))
    if name == "xor":
        c, t = rng.choice(lay.total_qubits, size=2, replace=False)
        return apply_xor(state, int(c), int(t))
    if name == "hadamard":
        return apply_hadamard(state, int(rng.integers(lay.total_qubits)))
    if name == "phase":
        return apply_hamming_phase(state, int(rng.choice(list(lay.control.bits()))))
    if name == "rotate":
        return apply_control_rotations(state)
    if name == "good":
        return reflect_good_subspace(state, seed % 2)
    return reflect_about_state(state, random_state(lay, seed, state.mode))


def dense_vector(state):
    return np.array([state.amplitude(i) for i in range(state.layout.dim)])


class TestEngineProperties:
    @PROPERTY
    @given(layouts, seeds, gates)
    def test_sparse_matches_dense(self, layout, seed, sequence):
        sparse = random_state(layout, seed, "sparse")
        dense = random_state(layout, seed, "dense")
        for gate in sequence:
            sparse, dense = apply_gate(sparse, gate), apply_gate(dense, gate)
        assert sparse.allclose(dense, 1e-12)
        assert all(a != 0 for _, a in sparse.items())

    @PROPERTY
    @given(layouts, seeds, gates)
    def test_norm_is_preserved(self, layout, seed, sequence):
        state = random_state(layout, seed)
        for gate in sequence:
            state = apply_gate(state, gate)
            assert abs(state.norm() - 1.0) < NORM_TOLERANCE

    @PROPERTY
    @given(layouts, seeds, seeds)
    def test_not_is_an_involution(self, layout, seed, qubit_seed):
        state = random_state(layout, seed)
        qubit = qubit_seed % layout.total_qubits
        twice = apply_not(apply_not(state, qubit), qubit)
        assert twice.as_dict() == state.as_dict()

    @PROPERTY
    @given(layouts, seeds, seeds)
    def test_difference_encoding_is_an_involution(self, layout, seed, input_seed):
        state = random_state(layout, seed)
        bits = np.random.default_rng(input_seed).integers(0, 2, layout.n)
        word = BitPattern.from_string("".join(str(x) for x in bits))
        twice = apply_difference_encoding(apply_difference_encoding(state, word), word)
        assert twice.as_dict() == state.as_dict()

    @PROPERTY
    @given(layouts, seeds, seeds)
    def test_reflection_is_an_involution(self, layout, seed, axis_seed):
        state = random_state(layout, seed)
        axis = random_state(layout, axis_seed)
        twice = reflect_about_state(reflect_about_state(state, axis), axis)
        assert twice.allclose(state, 1e-12)

    @PROPERTY
    @given(layouts, seeds, seeds)
    def test_reflection_outside_the_axis_support(self, layout, seed, axis_seed):
        # A one-entry axis never covers a state of two or more entries, so
        # the support merge runs; the reference is the dense formula.
        state = random_state(layout, seed, size=int(2 + seed % (layout.dim - 1)))
        axis = random_state(layout, axis_seed, size=1)
        got = reflect_about_state(state, axis)
        a, s = dense_vector(axis), dense_vector(state)
        expect = 2 * np.vdot(a, s) * a - s
        assert np.max(np.abs(dense_vector(got) - expect)) <= 1e-12
        assert abs(got.norm() - 1.0) < NORM_TOLERANCE

    @PROPERTY
    @given(layouts, seeds, st.sampled_from(["memory", "control", "ancilla"]))
    def test_register_law_draw_is_searchsorted_right(self, layout, seed, name):
        # Every cumulative mass is drawn exactly, where a tie decides the
        # position; the list copy draws the same outcomes.
        reg = layout.register(name)
        state = random_state(layout, seed)
        for mode in ("sparse", "dense"):
            law = register_law(state.to_mode(mode), reg)
            cumulative = np.asarray(law.cumulative)
            us = [0.0, 1.0, *cumulative.tolist()]
            us += np.random.default_rng(seed).random(20).tolist()
            lists = law.as_lists()
            for u in us:
                first = int(np.searchsorted(cumulative, u, side="right"))
                position = min(first, law.clamp)
                expect = int(law.outcomes[position])
                assert law.draw(u) == lists.draw(u) == expect

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(layouts, seeds, st.sampled_from(["memory", "control", "ancilla"]))
    def test_measure_register_follows_born_masses(self, layout, seed, name):
        # The masses come from the sparse state in both modes.
        sparse = random_state(layout, seed)
        reg = layout.register(name)
        shots = 2000
        for state in (sparse, sparse.to_mode("dense")):
            rng = np.random.default_rng(seed)
            counts = {}
            for _ in range(shots):
                word, after = measure_register(state, reg, rng)
                counts[word] = counts.get(word, 0) + 1
            assert abs(after.norm() - 1.0) < NORM_TOLERANCE
            for value in range(1 << reg.width):
                word = "".join(str((value >> j) & 1) for j in range(reg.width))
                mass = subspace_mass(sparse, reg.mask, value << reg.offset)
                sigma = math.sqrt(max(mass * (1 - mass), 0.0) / shots)
                assert abs(counts.get(word, 0) / shots - mass) <= 5 * sigma + 1e-9


# The dense kernels judged against explicit 2^N x 2^N operators: Kronecker
# products of 2x2 factors, and a diagonal from the closed-form phase. The
# layouts put the registers in any order, control below memory included.

PAULI_X = np.array([[0, 1], [1, 0]])
HADAMARD = np.array([[1, 1], [1, -1]]) * SQ2
PROJECTORS = (np.diag([1, 0]), np.diag([0, 1]))

def any_order_layouts(max_b):
    return st.builds(
        lambda n, b, order: RegisterLayout(
            [(("memory", n), ("control", b), ("ancilla", 1))[k] for k in order]
        ),
        st.integers(1, 4),
        st.integers(1, max_b),
        st.permutations(range(3)),
    )


CONTROL_BELOW_MEMORY = RegisterLayout((("control", 2), ("memory", 3), ("ancilla", 1)))
# Two registers above the control register, so the support splits into
# several groups of high bits, and memory below it, so groups hold more than
# one entry.
TWO_ABOVE_CONTROL = RegisterLayout(
    (("memory", 2), ("control", 3), ("ancilla", 1), ("copy", 2))
)
# Memory above the control register, with one register between them and one
# above memory, so the words on the above axis mix memory bits with others.
MEMORY_ABOVE_CONTROL = RegisterLayout(
    (("control", 2), ("copy", 1), ("memory", 3), ("ancilla", 1))
)


def operator(layout, factors):
    """Kronecker product over all qubits, highest first, identity where unnamed."""
    out = np.eye(1)
    for qubit in reversed(range(layout.total_qubits)):
        out = np.kron(out, factors.get(qubit, np.eye(2)))
    return out


def register_projector(layout, reg, value):
    """Projector onto the basis states whose register reg holds value."""
    bits = {q: PROJECTORS[(value >> j) & 1] for j, q in enumerate(reg.bits())}
    return operator(layout, bits)


def phase_diagonal(layout, control):
    n = layout.n
    phases = []
    for i in range(layout.dim):
        z = decode(layout.memory, i).count(0)
        sigma = -1 if (i >> control) & 1 else 1
        phases.append(cmath.exp(1j * math.pi * z * sigma / (2 * n)))
    return np.diag(phases)


class TestDenseAgainstOperators:
    @PROPERTY
    @given(
        any_order_layouts(2),
        seeds,
        st.sampled_from(
            ["not", "xor", "hadamard", "phase", "rotate", "good", "collapse"]
        ),
    )
    @example(CONTROL_BELOW_MEMORY, 1, "phase")
    @example(CONTROL_BELOW_MEMORY, 1, "rotate")
    @example(MEMORY_ABOVE_CONTROL, 3, "phase")
    @example(MEMORY_ABOVE_CONTROL, 3, "rotate")
    @example(CONTROL_BELOW_MEMORY, 2, "good")
    def test_gate_matches_explicit_operator(self, layout, seed, name):
        state = random_state(layout, seed, "dense")
        psi = dense_vector(state)
        rng = np.random.default_rng(seed)
        qubit = int(rng.integers(layout.total_qubits))
        if name == "not":
            got = apply_not(state, qubit)
            expect = operator(layout, {qubit: PAULI_X}) @ psi
        elif name == "xor":
            c, t = (int(q) for q in rng.choice(layout.total_qubits, 2, replace=False))
            got = apply_xor(state, c, t)
            cnot = operator(layout, {c: PROJECTORS[0]}) + operator(
                layout, {c: PROJECTORS[1], t: PAULI_X}
            )
            expect = cnot @ psi
        elif name == "hadamard":
            got = apply_hadamard(state, qubit)
            expect = operator(layout, {qubit: HADAMARD}) @ psi
        elif name == "phase":
            control = int(rng.choice(list(layout.control.bits())))
            got = apply_hamming_phase(state, control)
            expect = phase_diagonal(layout, control) @ psi
        elif name == "rotate":
            got = apply_control_rotations(state)
            expect = psi
            for control in layout.control.bits():
                hadamard = operator(layout, {control: HADAMARD})
                expect = hadamard @ phase_diagonal(layout, control) @ hadamard @ expect
        elif name == "good":
            branch = seed % 2
            got = reflect_good_subspace(state, branch)
            all_bits = (1 << layout.b) - 1 if branch else 0
            good = register_projector(layout, layout.control, all_bits)
            expect = (np.eye(layout.dim) - 2 * good) @ psi
        else:
            outcome = seed % 2
            kept = operator(layout, {qubit: PROJECTORS[outcome]}) @ psi
            mass = float(np.vdot(kept, kept).real)
            reported = subspace_mass(state, 1 << qubit, outcome << qubit)
            assert abs(reported - mass) <= 1e-12
            if mass == 0.0:
                return
            probability, got = collapse_qubit(state, qubit, outcome)
            assert abs(probability - mass) <= 1e-12
            expect = kept / math.sqrt(mass)
        assert got.mode == "dense"
        assert np.max(np.abs(dense_vector(got) - expect)) <= 1e-12

    @PROPERTY
    @given(any_order_layouts(2), seeds, seeds, st.sampled_from(["sparse", "dense"]))
    def test_flip_bits_is_a_product_of_nots(self, layout, seed, mask_seed, mode):
        # Both modes, against the Kronecker product of Pauli X factors and
        # against one apply_not per masked qubit.
        state = random_state(layout, seed, mode)
        mask = mask_seed % layout.dim
        qubits = [q for q in range(layout.total_qubits) if (mask >> q) & 1]
        got = flip_bits(state, mask)
        flips = operator(layout, dict.fromkeys(qubits, PAULI_X))
        assert got.mode == mode
        assert np.array_equal(dense_vector(got), flips @ dense_vector(state))
        for qubit in qubits:
            state = apply_not(state, qubit)
        assert got.as_dict() == state.as_dict()

    @PROPERTY
    @given(
        any_order_layouts(2), seeds, st.sampled_from(["memory", "control", "ancilla"])
    )
    @example(CONTROL_BELOW_MEMORY, 3, "memory")
    def test_register_measurement_projects_onto_the_outcome(self, layout, seed, name):
        state = random_state(layout, seed, "dense")
        reg = layout.register(name)
        word, got = measure_register(state, reg, np.random.default_rng(seed))
        value = sum(1 << j for j, c in enumerate(word) if c == "1")
        kept = register_projector(layout, reg, value) @ dense_vector(state)
        expect = kept / np.linalg.norm(kept)
        assert np.max(np.abs(dense_vector(got) - expect)) <= 1e-12

    @PROPERTY
    @given(any_order_layouts(2), seeds, st.sampled_from(["sparse", "dense"]))
    def test_every_state_wraps_read_only_arrays(self, layout, seed, mode):
        # A sparse gate that keeps the support passes its input's index
        # array on, so a writeable output would let a write reach the input.
        state = random_state(layout, seed, mode)
        rng = np.random.default_rng(seed)
        qubit = int(rng.integers(layout.total_qubits))
        c, t = (int(q) for q in rng.choice(layout.total_qubits, 2, replace=False))
        reg = layout.register(str(rng.choice(["memory", "control", "ancilla"])))
        outcome = int(subspace_mass(state, 1 << qubit, 1 << qubit) > 0)
        value = register_law(state, reg).draw(float(rng.random()))
        other = "dense" if mode == "sparse" else "sparse"
        outputs = {
            "from_arrays": state,
            "basis_state": StateVector.basis_state(layout, layout.dim - 1, mode),
            "flip_bits": flip_bits(state, int(rng.integers(layout.dim))),
            "flip_bits, every qubit": flip_bits(state, layout.dim - 1),
            "apply_not": apply_not(state, qubit),
            "apply_xor": apply_xor(state, c, t),
            "apply_hadamard": apply_hadamard(state, qubit),
            "apply_hamming_phase": apply_hamming_phase(state, layout.control.bit(1)),
            "apply_control_rotations": apply_control_rotations(state),
            "collapse_qubit": collapse_qubit(state, qubit, outcome)[1],
            "collapse_register": collapse_register(state, reg, value)[1],
            "measure_qubit": measure_qubit(state, qubit, rng)[1],
            "measure_register": measure_register(state, reg, rng)[1],
            "reflect_good_subspace": reflect_good_subspace(state, seed % 2),
            "reflect_about_state": reflect_about_state(
                state, random_state(layout, seed + 1, mode)
            ),
        }
        for name, got in outputs.items():
            assert got.mode == mode, name
            assert (got._idx is None) == (mode == "dense"), name
            for array in (got._idx, got._amps):
                assert array is None or not array.flags.writeable, name
        converted = state.to_mode(other)
        assert converted.mode == other
        assert not converted._amps.flags.writeable
        assert converted._idx is None or not converted._idx.flags.writeable

    @pytest.mark.parametrize("mask, value", [(0b101, 0), (0b110, 0b001)])
    def test_dense_selection_off_a_contiguous_mask_is_refused(self, mask, value):
        state = StateVector.basis_state(RegisterLayout.memory_only(3), 0, "dense")
        with pytest.raises(ValueError, match="contiguous mask"):
            subspace_mass(state, mask, value)


def assert_same_bits(got, want):
    """Equal arrays, bit for bit: unlike np.array_equal, -0.0 differs from +0.0."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# Entries a full-size pass must tell apart: signed zeros in either part,
# NaN in either part, subnormals and ordinary values.
SPECIAL_AMPLITUDES = np.array([
    complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
    complex(math.nan, 0.0), complex(0.0, math.nan), complex(5e-324, 0.0),
    complex(-0.0, -5e-324), complex(-2.5e-310, 1.0), complex(0.6, -0.8),
])


def special_state(layout, seed):
    """A dense state, not normalized, of SPECIAL_AMPLITUDES drawn at random."""
    rng = np.random.default_rng(seed)
    amps = SPECIAL_AMPLITUDES[rng.integers(SPECIAL_AMPLITUDES.size, size=layout.dim)]
    return StateVector._wrap(layout, None, amps)


def np_flip(amps, mask, total):
    """The former dense flip_bits: np.flip over a (2,) * total view, the oracle."""
    axes = tuple(total - 1 - q for q in range(total) if (mask >> q) & 1)
    return np.ascontiguousarray(np.flip(amps.reshape((2,) * total), axis=axes)).reshape(-1)


class TestDenseScansAndFlips:
    @PROPERTY
    @given(st.one_of(any_order_layouts(3), layouts), seeds, seeds)
    @example(RegisterLayout.retrieval(5, 3), 7, 0b1011)
    def test_flip_bits_equals_np_flip(self, layout, seed, mask_seed):
        state = special_state(layout, seed)
        total = layout.total_qubits
        mem = layout.memory
        masks = {
            0,
            1,
            1 << (total - 1),
            layout.dim - 1,
            mem.mask,
            (mask_seed << mem.offset) & mem.mask,
            mask_seed % layout.dim,
        }
        for reg in layout.registers:
            masks |= {reg.mask, 1 << reg.offset, 1 << (reg.offset + reg.width - 1)}
        for mask in sorted(masks):
            got = flip_bits(state, mask)
            assert got.mode == "dense"
            assert not np.shares_memory(got._amps, state._amps)
            assert_same_bits(got._amps, np_flip(state._amps, mask, total))

    @PROPERTY
    @given(st.one_of(any_order_layouts(3), layouts), seeds)
    def test_dense_scans_equal_the_complex_nonzero(self, layout, seed):
        state = special_state(layout, seed)
        amps = state._amps
        want = np.flatnonzero(amps)
        idx, kept = state.arrays()
        assert idx.dtype == want.dtype and np.array_equal(idx, want)
        assert_same_bits(kept, amps[want])
        assert state.support_size == np.count_nonzero(amps) == want.size
        sparse = state.to_mode("sparse")
        assert np.array_equal(sparse._idx, want)
        assert_same_bits(sparse._amps, amps[want])

    @PROPERTY
    @given(st.one_of(any_order_layouts(3), layouts), seeds)
    def test_nonzero_drops_signed_zeros_and_keeps_nan(self, layout, seed):
        amps = special_state(layout, seed)._amps
        idx = np.arange(layout.dim, dtype=np.int64)
        got = statevector._nonzero(layout, idx, amps)
        keep = np.flatnonzero(amps)
        assert np.array_equal(got._idx, keep)
        assert_same_bits(got._amps, amps[keep])
        assert np.isnan(got._amps).sum() == np.isnan(amps).sum()

    def test_nonzero_keeps_arrays_without_exact_zeros(self):
        lay = RegisterLayout.memory_only(3)
        amps = SPECIAL_AMPLITUDES[4:].copy()
        idx = np.arange(2, 8, dtype=np.int64)
        got = statevector._nonzero(lay, idx, amps)
        assert got._idx is idx and got._amps is amps


def gate_sequence(state):
    """Hadamard, distance phase, Hadamard on every control qubit, gate by gate."""
    for qubit in state.layout.control.bits():
        state = apply_hadamard(state, qubit)
        state = apply_hamming_phase(state, qubit)
        state = apply_hadamard(state, qubit)
    return state


def assert_rotations_match_the_gate_sequence(state):
    expect = gate_sequence(state)
    got = apply_control_rotations(state)
    assert np.array_equal(got.arrays()[0], expect.arrays()[0])
    assert_same_bits(got.arrays()[1], expect.arrays()[1])
    assert got.allclose(apply_control_rotations(state.to_mode("dense")), 1e-12)


def rotation_input(layout, seed, filled, size):
    """Indices and normalized amplitudes of a random state, controls below 2**filled."""
    control = layout.control
    rng = np.random.default_rng(seed)
    drawn = rng.choice(layout.dim, size=min(size, layout.dim), replace=False)
    below = ((1 << min(filled, control.width)) - 1) << control.offset
    idx = np.unique(drawn & (~control.mask | below))
    amps = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
    return idx, amps / np.linalg.norm(amps)


class TestControlRotationKernel:
    # Each kernel against the gate sequence it replaces, exactly; the sparse
    # one also against the dense kernel. Controls start below 2**filled; 0 is
    # the retrieval pipeline's case, larger values a general input.
    @PROPERTY
    @given(any_order_layouts(4), seeds, st.integers(0, 4), st.integers(1, 64))
    @example(CONTROL_BELOW_MEMORY, 1, 0, 64)
    @example(TWO_ABOVE_CONTROL, 5, 0, 64)
    @example(MEMORY_ABOVE_CONTROL, 6, 0, 64)
    # One basis state and one control qubit: the phase step is a product of
    # two amplitudes, where numpy's loops can round differently.
    @example(RegisterLayout((("memory", 4), ("ancilla", 1), ("control", 1))), 2, 0, 1)
    def test_sparse_kernel_equals_the_gate_sequence(self, layout, seed, filled, size):
        idx, amps = rotation_input(layout, seed, filled, size)
        assert_rotations_match_the_gate_sequence(StateVector.from_arrays(layout, idx, amps))

    @PROPERTY
    @given(any_order_layouts(4), seeds, st.integers(0, 4), st.integers(1, 64))
    @example(CONTROL_BELOW_MEMORY, 1, 0, 64)
    @example(TWO_ABOVE_CONTROL, 5, 0, 64)
    @example(MEMORY_ABOVE_CONTROL, 6, 0, 64)
    @example(RegisterLayout.retrieval(4, 4), 3, 0, 64)
    def test_dense_kernel_equals_the_gate_sequence(self, layout, seed, filled, size):
        # rng.normal never draws -0.0, so about half of the other basis
        # states, at any control value, hold signed zeros. The kernel counts
        # a -0.0 part as held when it picks its live rows, so the rows it
        # skips are +0.0, which every gate of the sequence keeps at +0.0.
        idx, amps = rotation_input(layout, seed, filled, size)
        rng = np.random.default_rng(seed + 1)
        signed = np.setdiff1d(rng.choice(layout.dim, size=layout.dim // 2), idx)
        parts = rng.choice([0.0, -0.0], size=(signed.size, 2))
        zeros = [complex(re, im) for re, im in parts]
        state = StateVector.from_arrays(
            layout, np.concatenate((idx, signed)), [*amps, *zeros], "dense"
        )
        got = apply_control_rotations(state)
        assert_same_bits(dense_vector(got), dense_vector(gate_sequence(state)))

    def test_dense_kernel_runs_rows_of_signed_zeros(self):
        # Memory word 1 holds -0.0 under control values 0, 1 and 3; row 3
        # holds nothing else. The gate sequence's first Hadamard pairs row 3
        # with row 2 and turns its -0.0 into +0.0, which the second control
        # qubit then adds to row 1's -0.0: -0.0 + +0.0 is +0.0, but -0.0 +
        # -0.0 is -0.0. So only a row of +0.0 may be skipped.
        layout = RegisterLayout.retrieval(1, 2)
        state = StateVector.from_arrays(
            layout, [0b000, 0b001, 0b011, 0b111], [1.0, -0.0, -0.0, -0.0], "dense"
        )
        got = apply_control_rotations(state)
        assert_same_bits(dense_vector(got), dense_vector(gate_sequence(state)))

    def test_keeps_small_amplitudes_where_the_gate_sequence_keeps_them(self):
        # The first Hadamard leaves about 7e-16 in control value 0 of memory
        # word 0; the gate sequence keeps it and mixes it into the 0.7 beside
        # it, and so must the kernel.
        layout = RegisterLayout.retrieval(2, 2)
        near = -0.5 + 1e-15
        amps = [0.5, near, math.sqrt(1 - 0.25 - near**2)]
        state = StateVector.from_arrays(layout, [0b0000, 0b0100, 0b0011], amps)
        assert_rotations_match_the_gate_sequence(state)

    def test_keeps_small_amplitudes_on_an_empty_upper_half(self):
        # Control 0 of memory word 11 (no zero bits, so every phase is 1)
        # holds 1.2e-14. The first Hadamard scales it to 8.5e-15 and the
        # second restores it to about 1.2e-14; the kernel, which only scales
        # the lower half while the upper one is empty, must keep it too.
        layout = RegisterLayout.retrieval(2, 2)
        tiny = 1.2e-14
        state = StateVector.from_arrays(
            layout, [0b0011, 0b0010], [tiny, math.sqrt(1 - tiny**2)]
        )
        assert_rotations_match_the_gate_sequence(state)

    def test_keeps_signed_zeros_on_an_empty_upper_half(self):
        # Memory word 11 has phase 1 under either control value. Its
        # amplitude -0.6 - 0.0j keeps the -0.0 through a plain scaling, but
        # the gate sequence's first Hadamard adds the empty upper half,
        # +0.0, which turns it into +0.0.
        layout = RegisterLayout.retrieval(2, 2)
        state = StateVector.from_arrays(
            layout, [0b0011, 0b0010], [complex(-0.6, -0.0), 0.8]
        )
        assert_rotations_match_the_gate_sequence(state)


def pinned_state(layout, seed, pinned, size, real):
    """A random sparse state whose top pinned qubits hold one random value.

    Pinning the qubits above a register makes its selections runs of the
    sorted support; with pinned = 0 the support spreads over every value.
    Real amplitudes hold +0.0 imaginary parts, whose negation is -0.0.
    """
    rng = np.random.default_rng(seed)
    free = (1 << (layout.total_qubits - min(pinned, layout.total_qubits))) - 1
    drawn = rng.choice(layout.dim, size=min(size, layout.dim), replace=False)
    idx = np.unique((drawn & free) | (int(rng.integers(layout.dim)) & ~free))
    amps = rng.normal(size=idx.size) + (0j if real else 1j * rng.normal(size=idx.size))
    return StateVector.from_arrays(layout, idx, amps / np.linalg.norm(amps))


def assert_selection_by_mask(state, mask, value):
    """Each selecting kernel against a boolean-mask selection, bit for bit."""
    idx, amps = state.arrays()
    keep = (idx & mask) == value
    # The run applies exactly where the support shares the bits above the mask.
    shares_high_bits = np.unique(idx >> mask.bit_length()).size == 1
    run = isinstance(statevector._selection(idx, mask, value), slice)
    assert run == shares_high_bits
    kept = amps[keep]
    mass = np.vdot(kept, kept).real  # one block: every support here is small
    assert_same_bits(np.array([subspace_mass(state, mask, value)]), np.array([mass]))
    if not keep.any():
        with pytest.raises(ValueError, match="zero-probability"):
            statevector._project(state, mask, value)
        return
    probability, got = statevector._project(state, mask, value)
    assert_same_bits(np.array([probability]), np.array([mass]))
    assert np.array_equal(got.arrays()[0], idx[keep])
    assert_same_bits(got.arrays()[1], kept / math.sqrt(mass))


class TestSupportRuns:
    # The run selection of sparse projection, masses, the good-subspace
    # reflection and the register law, on every register mask and every
    # qubit mask, against the boolean mask it replaces. pinned = 0 with a
    # full support is a two-branch state, where registers below the
    # ancilla take the boolean path; pinned qubits give empty selections.
    @PROPERTY
    @given(
        st.one_of(
            any_order_layouts(4),
            st.sampled_from(
                [CONTROL_BELOW_MEMORY, TWO_ABOVE_CONTROL, MEMORY_ABOVE_CONTROL]
            ),
        ),
        seeds,
        st.integers(0, 8),
        st.integers(1, 64),
        st.booleans(),
    )
    @example(MEMORY_ABOVE_CONTROL, 1, 1, 64, False)
    @example(MEMORY_ABOVE_CONTROL, 2, 4, 64, True)
    @example(RegisterLayout.retrieval(3, 2), 3, 0, 64, False)
    @example(TWO_ABOVE_CONTROL, 4, 3, 64, True)
    def test_runs_equal_the_boolean_mask(self, layout, seed, pinned, size, real):
        state = pinned_state(layout, seed, pinned, size, real)
        idx, amps = state.arrays()
        for reg in layout.registers:
            for value in range(1 << reg.width):
                assert_selection_by_mask(state, reg.mask, value << reg.offset)
            values = (idx & reg.mask) >> reg.offset
            order = np.argsort(values, kind="stable")
            law = register_law(state, reg)
            assert_same_bits(law.cumulative, np.cumsum(np.abs(amps[order]) ** 2))
            assert np.array_equal(law.outcomes, values[order])
            assert law.clamp == idx.size - 1
        for qubit in range(layout.total_qubits):
            for outcome in (0, 1):
                assert_selection_by_mask(state, 1 << qubit, outcome << qubit)
        control = layout.control
        for branch in (0, 1):
            good = (idx & control.mask) == (control.mask if branch else 0)
            got = reflect_good_subspace(state, branch)
            assert got.arrays()[0] is idx
            assert_same_bits(got.arrays()[1], np.where(good, -amps, amps))


def reference_amplify(state, branch, k):
    """amplitude_amplify on the arrays of a sparse state, by the plain formulas.

    Each round negates the good amplitudes with np.where, then forms
    2 <axis|s> axis - s on the axis support, taking the inner product over
    the smaller support as inner_product does, and drops every amplitude
    that is exactly 0.
    """
    axis_idx, axis_amps = state.arrays()
    control = state.layout.control
    target = control.mask if branch else 0
    idx, amps = axis_idx, axis_amps
    for _ in range(k):
        amps = np.where((idx & control.mask) == target, -amps, amps)
        on_axis = np.zeros_like(axis_amps)
        on_axis[np.searchsorted(axis_idx, idx)] = amps
        if axis_idx.size <= idx.size:
            coeff = 2.0 * complex(np.vdot(axis_amps, on_axis))
        else:
            axis_on_state = axis_amps[np.searchsorted(axis_idx, idx)]
            coeff = 2.0 * complex(np.vdot(axis_on_state, amps))
        amps = coeff * axis_amps - on_axis
        keep = amps != 0
        idx, amps = axis_idx[keep], amps[keep]
    return idx, amps


class TestAmplificationKernels:
    # The sparse reflections, round after round, against reference_amplify,
    # exactly. With quarter set, the good subspace holds mass 1/4, so the
    # first round leaves the other amplitudes at rounding level. Where
    # 2 <axis|s> rounds to exactly 1 they cancel to 0 and are dropped (the
    # second example), so later rounds see a support that is no longer the
    # axis's own index array; otherwise all of them are kept (the first).
    @PROPERTY
    @given(layouts, seeds, st.integers(0, 1), st.integers(0, 4), st.booleans())
    @example(RegisterLayout.retrieval(3, 2), 3, 0, 3, True)
    @example(RegisterLayout.retrieval(2, 3), 4, 1, 2, True)
    def test_sparse_amplification_equals_the_reference(
        self, layout, seed, branch, k, quarter
    ):
        control = layout.control
        target = control.mask if branch else 0
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, layout.dim + 1))
        idx = rng.choice(layout.dim, size=size, replace=False)
        # one good entry and one outside the good subspace
        idx[0] = (idx[0] & ~control.mask) | target
        idx[1] = (idx[1] & ~control.mask) | (target ^ control.mask)
        idx = np.unique(idx)
        amps = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
        good = (idx & control.mask) == target
        if quarter:
            amps[good] *= 0.5 / np.linalg.norm(amps[good])
            amps[~good] *= math.sqrt(0.75) / np.linalg.norm(amps[~good])
        else:
            amps /= np.linalg.norm(amps)
        state = StateVector.from_arrays(layout, idx, amps)
        got = amplitude_amplify(state, branch, k)
        want_idx, want_amps = reference_amplify(state, branch, k)
        assert np.array_equal(got.arrays()[0], want_idx)
        assert_same_bits(got.arrays()[1], want_amps)
        if quarter:
            # the first round keeps every good entry, and the rest at most at
            # rounding level
            first_idx, first_amps = amplitude_amplify(state, branch, 1).arrays()
            kept_good = (first_idx & control.mask) == target
            assert np.array_equal(first_idx[kept_good], idx[good])
            assert np.all(np.abs(first_amps[~kept_good]) <= 1e-15)


def argsort_flip(state, mask):
    """flip_bits of a sparse state by one stable argsort of its flipped support."""
    idx, amps = state.arrays()
    order = np.argsort(idx ^ mask, kind="stable")
    return idx[order] ^ mask, amps[order]


def equal_runs(state, mask):
    """Whether the runs of equal bits above the highest register mask touches
    have one length (a mask of 0 touches none; the lowest register is used)."""
    layout = state.layout
    cut = max(
        (r.offset + r.width for r in layout.registers if r.mask & mask),
        default=layout.registers[0].width,
    )
    counts = np.unique(state.arrays()[0] >> cut, return_counts=True)[1]
    return bool(np.all(counts == counts[0]))


def assert_flip_by_rows(state, mask, rows):
    """Sparse flip_bits against argsort_flip, bit for bit, with every support
    large enough to look for rows; rows says whether it finds them."""
    with mock.patch.object(statevector, "_ROW_SORT_MIN", 1):
        assert (statevector._flipped_rows(state, mask) is not None) == rows
        got = flip_bits(state, mask)
    want_idx, want_amps = argsort_flip(state, mask)
    assert_same_bits(got.arrays()[0], want_idx)
    assert_same_bits(got.arrays()[1], want_amps)


def retrieval_states(words, input_value, n, b, both=True):
    """A retrieval run's prepared and rotated states and its encoding mask."""
    layout = RegisterLayout.retrieval(n, b)
    patterns = PatternSet(tuple(int(w) for w in words), n)
    x = BitPattern(input_value, n)
    gamma_bar = 0.5 if both else 0.0
    prepared = prepare_initial(x, patterns, 1.0 - gamma_bar, gamma_bar, layout)
    rotated = apply_control_rotations(apply_difference_encoding(prepared, x))
    return prepared, rotated, (input_value ^ ((1 << n) - 1)) << layout.memory.offset


def rows_state(layout, seed, ragged):
    """(state, mask, whether the state's runs are rows of one length).

    A random register sets the cut at its end; the mask holds a random bit
    of that register and random bits below it, and the support is a few
    random values above the cut, each over a set of words below it: the
    previous row's words or new ones. ragged takes one word off one row of
    at least two, which leaves the rows unequal unless there is one row.
    """
    rng = np.random.default_rng(seed)
    top = layout.registers[int(rng.integers(len(layout.registers)))]
    cut = top.offset + top.width
    mask = int(rng.integers(1 << cut)) | (1 << int(rng.integers(top.offset, cut)))
    above = 1 << (layout.total_qubits - cut)
    highs = np.sort(rng.choice(above, size=min(4, above), replace=False))
    highs = highs[: int(rng.integers(1, highs.size + 1))]
    length = int(rng.integers(2 if ragged else 1, min(8, 1 << cut) + 1))
    rows, words = [], None
    for high in highs:
        if words is None or rng.random() < 0.5:
            words = rng.choice(1 << cut, size=length, replace=False)
        rows.append((int(high) << cut) | words)
    if ragged:
        short = int(rng.integers(len(rows)))
        rows[short] = rows[short][1:]
    idx = np.concatenate(rows)
    amps = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
    state = StateVector.from_arrays(layout, idx, amps / np.linalg.norm(amps))
    return state, mask, not ragged or len(rows) == 1


class TestFlipByRows:
    # flip_bits by rows against one argsort of the whole support, bit for
    # bit, and whether it finds rows, on retrieval states and random layouts.

    def test_two_branch_restore_takes_the_rows(self):
        # No stored word is the input or its complement, so every control
        # value of each branch holds all three words.
        prepared, rotated, mask = retrieval_states([0b0001, 0b0110, 0b1010], 0b0100, 4, 3)
        assert rotated.support_size == 2 * 3 * 8
        for state in (prepared, rotated):
            assert_flip_by_rows(state, mask, rows=True)

    def test_memory_holding_the_input_takes_the_argsort(self):
        # The input's own word has distance 0, so sin(0) = 0 drops it from
        # every branch-0 row with a control bit set: the rows differ.
        prepared, rotated, mask = retrieval_states([0b0100, 0b0110, 0b1011], 0b0100, 4, 3)
        assert_flip_by_rows(prepared, mask, rows=True)
        assert_flip_by_rows(rotated, mask, rows=False)

    def test_mask_over_two_registers_cuts_above_the_higher(self):
        # Memory and control bits flip; each ancilla value is one row.
        _, rotated, mask = retrieval_states([0b001, 0b110], 0b100, 3, 2)
        control = rotated.layout.control
        assert_flip_by_rows(rotated, mask | control.mask, rows=True)

    def test_one_row_support(self):
        # The ancilla flips, so the whole support is one run.
        _, rotated, _ = retrieval_states([0b001, 0b110], 0b100, 3, 2, both=False)
        assert_flip_by_rows(rotated, rotated.layout.ancilla.mask, rows=True)

    def test_stretches_under_the_minimum_take_the_argsort(self):
        # 4096 rows of 2 entries, words 0, 1 and 2, 3 by turns, so every
        # row is a stretch of its own.
        layout = RegisterLayout((("low", 2), ("high", 12)))
        high = np.arange(1 << 12, dtype=np.int64)[:, None]
        idx = ((high << 2) | (2 * (high % 2) + np.arange(2))).reshape(-1)
        state = StateVector.from_arrays(layout, idx, np.full(idx.size, idx.size**-0.5))
        assert statevector._flipped_rows(state, 0b01) is None
        want_idx, _ = argsort_flip(state, 0b01)
        assert np.array_equal(flip_bits(state, 0b01).arrays()[0], want_idx)

    def test_retrieval_restore_at_full_size_takes_the_rows(self):
        # 2 branches x 2^7 control values x 32 words: 8192 entries in 2
        # stretches, over _ROW_SORT_MIN without patching it.
        rng = np.random.default_rng(5)
        words = sorted(int(w) for w in rng.choice(1 << 10, size=32, replace=False))
        x = next(v for v in range(1 << 10) if v not in words and v ^ 1023 not in words)
        _, rotated, mask = retrieval_states(words, x, 10, 7)
        assert rotated.support_size == 8192
        assert statevector._flipped_rows(rotated, mask) is not None
        want_idx, want_amps = argsort_flip(rotated, mask)
        got = flip_bits(rotated, mask)
        assert_same_bits(got.arrays()[0], want_idx)
        assert_same_bits(got.arrays()[1], want_amps)

    @PROPERTY
    @given(st.integers(1, 6), st.integers(1, 3), seeds, st.booleans(), st.booleans())
    def test_retrieval_states(self, n, b, seed, both, stored):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, min(8, 2**n) + 1))
        words = sorted(int(w) for w in rng.choice(1 << n, size=p, replace=False))
        x = words[0] if stored else int(rng.integers(1 << n))
        prepared, rotated, mask = retrieval_states(words, x, n, b, both)
        for state in (prepared, rotated):
            assert_flip_by_rows(state, mask, equal_runs(state, mask))

    @PROPERTY
    @given(any_order_layouts(3), seeds, st.booleans())
    def test_rows_on_any_layout(self, layout, seed, ragged):
        state, mask, rows = rows_state(layout, seed, ragged)
        assert equal_runs(state, mask) == rows
        assert_flip_by_rows(state, mask, rows)

    @PROPERTY
    @given(any_order_layouts(3), seeds, seeds)
    def test_random_supports_on_any_layout(self, layout, seed, mask_seed):
        state = random_state(layout, seed)
        mask = mask_seed % layout.dim
        assert_flip_by_rows(state, mask, equal_runs(state, mask))


def split_patches(cpus=2, starts=None):
    """Patches that split every pass of _split over two threads.

    The size constant drops to 1 and _cpus reports cpus, so the split runs
    even on a one-CPU host; starts, when given, collects one entry per
    thread started.
    """
    patches = {"_SPLIT_MIN": 1, "_cpus": lambda: cpus}
    if starts is not None:
        def thread(**kwargs):
            starts.append(kwargs)
            return threading.Thread(**kwargs)

        patches["threading"] = SimpleNamespace(Thread=thread)
    return mock.patch.multiple(statevector, **patches)


def split_and_whole(call):
    """(call() split over two threads, call() on one, threads the split started)."""
    starts = []
    with split_patches(starts=starts):
        split = call()
    with mock.patch.object(statevector, "_SPLIT_MIN", 1 << 62):
        whole = call()
    return split, whole, len(starts)


def assert_same_result(got, want):
    """Equal kernel results, bit for bit: states, laws, arrays and numbers."""
    assert type(got) is type(want)
    if isinstance(got, StateVector):
        assert got.layout == want.layout and got.mode == want.mode
        if got.mode == "sparse":
            assert np.array_equal(got._idx, want._idx)
        assert_same_bits(got._amps, want._amps)
    elif isinstance(got, tuple):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_result(a, b)
    elif isinstance(got, np.ndarray) and got.dtype.kind in "fc":
        assert_same_bits(got, want)
    elif isinstance(got, float):
        assert_same_bits(np.array([got]), np.array([want]))
    else:
        assert np.array_equal(got, want)


@contextlib.contextmanager
def check(name):
    """Name the kernel in an assertion failure raised inside."""
    try:
        yield
    except AssertionError as exc:
        raise AssertionError(f"{name}: {exc}") from exc


def split_kernel_calls(state, axis, seed):
    """Every kernel _split serves, on state: (name, call) pairs."""
    layout = state.layout
    total = layout.total_qubits
    rng = np.random.default_rng(seed)
    calls = [
        ("rotations", lambda: apply_control_rotations(state)),
        ("reflect about", lambda: reflect_about_state(state, axis)),
        ("arrays", lambda: state.arrays()),
        ("support", lambda: state.support_size),
    ]
    for branch in (0, 1):
        calls.append((f"good {branch}", lambda b=branch: reflect_good_subspace(state, b)))
    for mask in {1 << (total - 1), layout.memory.mask, int(rng.integers(layout.dim))}:
        calls.append((f"flip {mask:#x}", lambda m=mask: flip_bits(state, m)))
    for reg in layout.registers:
        calls.append((f"law {reg.name}", lambda r=reg: register_law(state, r)))
        law = register_law(state, reg)
        value = int(law.outcomes[law.clamp]) if state.mode == "sparse" else law.clamp
        calls.append((f"collapse {reg.name}", lambda r=reg, v=value: collapse_register(state, r, v)))
    for qubit in (0, total - 1):
        outcome = 1 if subspace_mass(state, 1 << qubit, 1 << qubit) > 0 else 0
        calls.append((f"collapse q{qubit}", lambda q=qubit, o=outcome: collapse_qubit(state, q, o)))
    return calls


class TestSplitKernels:
    # Each pass _split runs over two halves computes every element as one
    # pass would, so the kernels return the same bits either way.
    @PROPERTY
    @given(any_order_layouts(3), seeds, seeds, st.sampled_from(["sparse", "dense"]))
    @example(RegisterLayout.retrieval(4, 3), 1, 2, "sparse")
    @example(RegisterLayout.retrieval(4, 3), 1, 2, "dense")
    def test_split_kernels_equal_one_thread(self, layout, seed, axis_seed, mode):
        # The axis is drawn apart from the state, so in sparse mode the state
        # usually reaches outside its support.
        state = random_state(layout, seed, mode)
        axis = random_state(layout, axis_seed, mode)
        started = 0
        for name, call in split_kernel_calls(state, axis, seed):
            split, whole, starts = split_and_whole(call)
            with check(name):
                assert_same_result(split, whole)
            started += starts
        assert started > 0 or mode == "sparse"

    def test_sparse_rotation_splits_its_two_groups(self):
        # Both ancilla values: the buffer has two groups, one per thread.
        layout = RegisterLayout.retrieval(4, 3)
        idx, amps = rotation_input(layout, 8, 0, 32)
        assert np.unique(idx >> layout.ancilla.offset).size == 2
        state = StateVector.from_arrays(layout, idx, amps)
        split, whole, starts = split_and_whole(lambda: apply_control_rotations(state))
        assert starts == 1
        assert_same_result(split, whole)
        assert_same_result(split, gate_sequence(state))

    def test_dense_rotation_with_filled_rows(self):
        # The lower half (ancilla 0) holds controls 0 and 1 only; the upper
        # half also holds control 5 and a -0.0 at control 6, so filled comes
        # from the upper half's share of the split scan.
        layout = RegisterLayout.retrieval(4, 3)
        idx, amps = rotation_input(layout, 9, 1, 64)
        upper = 1 << layout.ancilla.offset
        coff = layout.control.offset
        extra = [upper | 5 << coff | 3, upper | 6 << coff | 9]
        assert not np.isin(extra, idx).any()
        state = StateVector.from_arrays(
            layout, [*idx, *extra], [*(0.8 * amps), 0.6, complex(-0.0, 0.0)], "dense"
        )
        split, whole, starts = split_and_whole(lambda: apply_control_rotations(state))
        assert starts == 2  # the copy with its scan, then the rotation
        assert_same_result(split, whole)
        assert_same_bits(dense_vector(split), dense_vector(gate_sequence(state)))

    def test_top_qubit_flip_runs_on_one_thread(self):
        # The split axis of _blocks holds one entry when the mask reaches
        # the top qubit.
        layout = RegisterLayout.retrieval(3, 2)
        state = special_state(layout, 4)
        top = 1 << (layout.total_qubits - 1)
        split, whole, starts = split_and_whole(lambda: flip_bits(state, top | 1))
        assert starts == 0
        assert_same_result(split, whole)
        assert_same_bits(split._amps, np_flip(state._amps, top | 1, layout.total_qubits))

    def test_reflection_outside_the_axis_support(self):
        layout = RegisterLayout.retrieval(3, 2)
        axis = StateVector.from_arrays(layout, [0, 5], [0.6, 0.8])
        state = StateVector.from_arrays(layout, [5, 9, 33], [0.6, 0.0, 0.8])
        split, whole, starts = split_and_whole(lambda: reflect_about_state(state, axis))
        assert starts == 1
        assert_same_result(split, whole)
        assert split.arrays()[0].tolist() == [0, 5, 33]

    def test_top_qubit_projection_splits_its_columns(self):
        layout = RegisterLayout.retrieval(3, 2)
        state = random_state(layout, 12, "dense", size=layout.dim)
        top = layout.total_qubits - 1
        split, whole, starts = split_and_whole(lambda: collapse_qubit(state, top, 1))
        assert starts == 1
        assert_same_result(split, whole)

    @pytest.mark.parametrize("failing", ["lower", "upper"])
    def test_split_raises_either_half_exception(self, failing):
        out = np.zeros(8)
        alive = threading.active_count()

        def step(part):
            half = "upper" if part[0].start else "lower"
            if half == failing:
                raise RuntimeError(half)
            out[part] = 1.0

        with split_patches(), pytest.raises(RuntimeError, match=failing):
            statevector._split(step, out)
        assert threading.active_count() == alive
        assert out.sum() == 4.0  # the other half ran

    def test_one_cpu_starts_no_thread(self):
        layout = RegisterLayout.retrieval(4, 3)
        state = random_state(layout, 5, "dense")
        starts = []
        with split_patches(cpus=1, starts=starts):
            for _, call in split_kernel_calls(state, state, 5):
                call()
        assert starts == []
        if hasattr(os, "sched_getaffinity"):
            assert statevector._cpus() == len(os.sched_getaffinity(0))

    def test_stress_more_callers_than_cpus(self):
        # Each caller splits the passes of its own states while the others
        # do the same, with thread switches forced as often as the
        # interpreter allows; every result must equal its one-thread run.
        callers = 2 * statevector._cpus() + 2
        layout = RegisterLayout.retrieval(6, 3)
        jobs = []
        for j in range(callers):
            mode = ("sparse", "dense")[j % 2]
            state = random_state(layout, 100 + j, mode)
            axis = random_state(layout, 200 + j, mode)
            calls = split_kernel_calls(state, axis, j)
            with mock.patch.object(statevector, "_SPLIT_MIN", 1 << 62):
                jobs.append((calls, [call() for _, call in calls]))
        results = [None] * callers
        errors = []

        def run(j):
            calls, _ = jobs[j]
            try:
                results[j] = [[call() for _, call in calls] for _ in range(3)]
            except Exception as exc:  # noqa: BLE001 - reported by the test below
                errors.append(exc)

        interval = sys.getswitchinterval()
        threads = [threading.Thread(target=run, args=(j,)) for j in range(callers)]
        with split_patches():
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for (calls, want), got in zip(jobs, results):
            for repeat in got:
                for (name, _), a, b in zip(calls, repeat, want):
                    with check(name):
                        assert_same_result(a, b)


def signed_state(layout, seed, mode):
    """A random state whose amplitudes hold signed zeros in either part.

    A sparse state keeps only its nonzero amplitudes, so there a zero part
    sits beside a nonzero one; a dense state also holds whole zeros of
    either sign.
    """
    rng = np.random.default_rng(seed)
    idx = rng.choice(layout.dim, size=int(rng.integers(1, layout.dim + 1)), replace=False)
    parts = rng.normal(size=(idx.size, 2))
    zeros = rng.random(size=parts.shape) < 0.3
    parts[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    parts[0, 0] = 1.0  # so the state is never all zero
    parts /= np.linalg.norm(parts)  # a real division keeps the signs of zeros
    return StateVector.from_arrays(layout, idx, parts.view(np.complex128)[:, 0], mode)


class TestOneRulePerGate:
    # apply_hadamard shares _butterfly with the control-rotation kernel, and
    # measure_qubit and collapse_qubit are the register rules on one qubit,
    # so the kernel's comparison with the gate sequence no longer checks the
    # Hadamard's arithmetic apart: these tests check each rule against its
    # formula or its register form.

    @PROPERTY
    @given(any_order_layouts(2), seeds, st.sampled_from(["sparse", "dense"]))
    @example(RegisterLayout.memory_only(1), 0, "dense")
    def test_hadamard_is_the_pair_formula_bit_for_bit(self, layout, seed, mode):
        state = signed_state(layout, seed, mode)
        qubit = seed % layout.total_qubits
        vector = dense_vector(state)
        low = np.flatnonzero(((np.arange(layout.dim) >> qubit) & 1) == 0)
        high = low | (1 << qubit)
        want = np.empty(layout.dim, dtype=np.complex128)
        want[low] = (vector[low] + vector[high]) * SQ2
        want[high] = (vector[low] - vector[high]) * SQ2
        got = apply_hadamard(state, qubit)
        if mode == "dense":
            assert_same_bits(got._amps, want)
        else:
            keep = want != 0
            assert np.array_equal(got._idx, np.flatnonzero(keep))
            assert_same_bits(got._amps, want[keep])

    @PROPERTY
    @given(any_order_layouts(2), seeds, st.sampled_from(["sparse", "dense"]))
    def test_measure_qubit_is_a_one_qubit_measure_register(self, layout, seed, mode):
        state = random_state(layout, seed, mode)
        qubit = seed % layout.total_qubits
        bit, got = measure_qubit(state, qubit, np.random.default_rng(seed))
        word, want = measure_register(
            state, Register("q", 1, qubit), np.random.default_rng(seed)
        )
        assert bit == int(word)
        assert got.mode == want.mode == mode
        if mode == "sparse":
            assert np.array_equal(got._idx, want._idx)
        assert_same_bits(got._amps, want._amps)

    @PROPERTY
    @given(layouts, seeds)
    def test_sparse_reflection_about_a_wider_axis(self, layout, seed):
        # The state's support is a strict subset of the axis support, so the
        # reflection aligns the two before it combines them.
        axis = random_state(layout, seed, size=layout.dim)
        state = random_state(layout, seed + 1, size=1 + seed % (layout.dim - 1))
        got = reflect_about_state(state, axis)
        a, s = dense_vector(axis), dense_vector(state)
        want = 2 * np.vdot(a, s) * a - s
        assert np.allclose(dense_vector(got), want, rtol=0, atol=1e-13)
        assert all(amp != 0 for _, amp in got.items())

    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    @pytest.mark.parametrize("value", [4, -1])
    def test_collapse_refuses_a_value_outside_the_register(self, mode, value):
        layout = RegisterLayout.retrieval(2, 2)
        state = random_state(layout, 3, mode, size=layout.dim)
        with pytest.raises(ValueError, match=f"^register 'control' holds no value {value}$"):
            collapse_register(state, "control", value)
        with pytest.raises(ValueError, match=f"^register 'qubit 2' holds no value {value}$"):
            collapse_qubit(state, 2, value)
