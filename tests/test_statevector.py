import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorqam.errors import DimensionError
from mirrorqam.patterns import BitPattern
from mirrorqam.retrieval import apply_difference_encoding
from mirrorqam.statevector import (
    NORM_TOLERANCE,
    PRUNE_THRESHOLD,
    RegisterLayout,
    StateVector,
    apply_hadamard,
    apply_hamming_phase,
    apply_not,
    apply_xor,
    collapse_qubit,
    inner_product,
    measure_qubit,
    measure_register,
    probability_of_subspace,
    reflect_about_state,
    reflect_good_subspace,
    subspace_mass,
)

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
            assert reg.decode(reg.encode(bits)) == bits

    def test_leftmost_bit_is_least_significant(self):
        reg = RegisterLayout.memory_only(3).memory
        assert reg.encode((1, 0, 0)) == 0b001
        assert reg.encode((0, 0, 1)) == 0b100


class TestConstruction:
    def test_basis_state(self):
        st = one_qubit()
        assert st.amplitude(0) == 1.0 and st.support_size == 1

    def test_rejects_unnormalized(self):
        lay = RegisterLayout.memory_only(1)
        with pytest.raises(ValueError, match="not normalized"):
            StateVector.from_amplitudes(lay, {0: 0.5})

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

    def test_sparse_prunes_cancelled_amplitudes(self):
        st = apply_hadamard(apply_hadamard(one_qubit(), 0), 0)
        assert st.support_size == 1
        assert all(abs(a) > PRUNE_THRESHOLD for _, a in st.items())


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

    def test_sparse_never_stores_subthreshold_amplitudes(self, rng):
        lay = RegisterLayout.retrieval(3, 2)
        st = StateVector.basis_state(lay, 0)
        for _ in range(200):
            st = _random_op(st, rng)
        assert all(abs(a) > PRUNE_THRESHOLD for _, a in st.items())


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
        st.sampled_from(["not", "xor", "hadamard", "phase", "good", "reflect"]),
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
        assert all(abs(a) > PRUNE_THRESHOLD for _, a in sparse.items())

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
        word = BitPattern(tuple(int(x) for x in bits))
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

any_order_layouts = st.builds(
    lambda n, b, order: RegisterLayout(
        [(("memory", n), ("control", b), ("ancilla", 1))[k] for k in order]
    ),
    st.integers(1, 4),
    st.integers(1, 2),
    st.permutations(range(3)),
)
CONTROL_BELOW_MEMORY = RegisterLayout((("control", 2), ("memory", 3), ("ancilla", 1)))


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
        z = layout.memory.decode(i).count(0)
        sigma = -1 if (i >> control) & 1 else 1
        phases.append(cmath.exp(1j * math.pi * z * sigma / (2 * n)))
    return np.diag(phases)


class TestDenseAgainstOperators:
    @PROPERTY
    @given(
        any_order_layouts,
        seeds,
        st.sampled_from(["not", "xor", "hadamard", "phase", "good", "collapse"]),
    )
    @example(CONTROL_BELOW_MEMORY, 1, "phase")
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
    @given(any_order_layouts, seeds, st.sampled_from(["memory", "control", "ancilla"]))
    @example(CONTROL_BELOW_MEMORY, 3, "memory")
    def test_register_measurement_projects_onto_the_outcome(self, layout, seed, name):
        state = random_state(layout, seed, "dense")
        reg = layout.register(name)
        word, got = measure_register(state, reg, np.random.default_rng(seed))
        value = sum(1 << j for j, c in enumerate(word) if c == "1")
        kept = register_projector(layout, reg, value) @ dense_vector(state)
        expect = kept / np.linalg.norm(kept)
        assert np.max(np.abs(dense_vector(got) - expect)) <= 1e-12

    @pytest.mark.parametrize("mask, value", [(0b101, 0), (0b110, 0b001)])
    def test_dense_selection_off_a_contiguous_mask_is_refused(self, mask, value):
        state = StateVector.basis_state(RegisterLayout.memory_only(3), 0, "dense")
        with pytest.raises(ValueError, match="contiguous mask"):
            subspace_mass(state, mask, value)
