"""Exact state-vector simulation over named qubit registers.

Basis-state indices are little-endian over the composite register: qubit k
(1-based) of a register at offset o occupies bit (o + k - 1) of the index,
so a register's first qubit is its least significant bit and lines up with
the leftmost character of a pattern string.

Two storage modes exist. Sparse mode (default) holds a state as two aligned
arrays: the sorted, duplicate-free int64 basis indices of its support and
their complex128 amplitudes. Every gate is array arithmetic over the whole
support: NOT and XOR rewrite indices and re-sort, the distance phase is a
masked popcount, the Hadamard pairs each index with its partner, and
projection and measurement select by index masks. Amplitudes whose
magnitude is at most PRUNE_THRESHOLD are dropped when a state is built or
converted and after the amplitude-mixing operations (Hadamard and
reflection about a state); the other operations keep the support or
project it. int64 indices limit layouts to 63 qubits. Dense mode
keeps the full 2**total_qubits vector, at most 24 qubits, and is written
separately, as the reference that sparse results are cross-validated
against; both modes implement every operation and agree
amplitude-by-amplitude. Dense kernels never build a per-basis-state index
table: each reshapes the vector so that the qubit or register it acts on
is one axis, then reverses, swaps, combines, scales or sums along that
axis. The distance phase multiplies by a table over memory words only.
Dense code shares no kernel with the sparse code.

All operations return new StateVector values; the arrays of an existing
value are read-only and never mutated, so sharing across threads is safe.
Randomized operations take a seedable numpy Generator
(np.random.default_rng); outcomes are deterministic given the seed and
configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DimensionError

PRUNE_THRESHOLD = 1e-14
NORM_TOLERANCE = 1e-10
_MAX_DENSE_QUBITS = 24
_MAX_QUBITS = 63  # basis indices are int64

_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class Register:
    """A named contiguous block of qubits inside the composite index."""

    name: str
    width: int
    offset: int

    @property
    def mask(self) -> int:
        return ((1 << self.width) - 1) << self.offset

    def bits(self) -> range:
        """Global bit indices occupied by this register."""
        return range(self.offset, self.offset + self.width)

    def bit(self, k: int) -> int:
        """Global bit index of qubit k (1-based) of this register."""
        if not 1 <= k <= self.width:
            raise IndexError(f"register {self.name!r} has no qubit {k}")
        return self.offset + k - 1

    def encode(self, bits: Sequence[int]) -> int:
        """Pack register-local bits (first qubit first) into an index value."""
        if len(bits) != self.width:
            raise DimensionError(
                f"register {self.name!r} holds {self.width} qubits, got {len(bits)} bits"
            )
        value = 0
        for j, b in enumerate(bits):
            if b:
                value |= 1 << (self.offset + j)
        return value

    def decode(self, index: int) -> tuple[int, ...]:
        """Extract this register's bits (first qubit first) from a basis index."""
        return tuple((index >> (self.offset + j)) & 1 for j in range(self.width))


class RegisterLayout:
    """Named, disjoint registers covering all simulated qubits, in index order.

    A layout holds at most 63 qubits, so that every basis index fits in int64.
    """

    def __init__(self, widths: Sequence[tuple[str, int]]):
        offset = 0
        registers = []
        seen: set[str] = set()
        for name, width in widths:
            if width < 1:
                raise ValueError(f"register {name!r} must hold at least one qubit")
            if name in seen:
                raise ValueError(f"duplicate register name {name!r}")
            seen.add(name)
            registers.append(Register(name, width, offset))
            offset += width
        if offset > _MAX_QUBITS:
            raise DimensionError(
                f"a layout holds at most {_MAX_QUBITS} qubits (basis indices are"
                f" int64), these registers need {offset}"
            )
        self.registers: tuple[Register, ...] = tuple(registers)
        self.total_qubits: int = offset

    @classmethod
    def retrieval(cls, n: int, b: int) -> RegisterLayout:
        """Memory (n), control (b), and ancilla registers for retrieval runs.

        The input register stays classical and is not simulated; gates
        conditioned on input qubits become classically conditioned gates.
        """
        return cls((("memory", n), ("control", b), ("ancilla", 1)))

    @classmethod
    def cloning(cls, n: int) -> RegisterLayout:
        """Memory (n), copy (n), and ancilla registers for the cloning map."""
        return cls((("memory", n), ("copy", n), ("ancilla", 1)))

    @classmethod
    def memory_only(cls, n: int) -> RegisterLayout:
        return cls((("memory", n),))

    @property
    def dim(self) -> int:
        return 1 << self.total_qubits

    def register(self, name: str) -> Register:
        for reg in self.registers:
            if reg.name == name:
                return reg
        raise ValueError(f"layout has no register {name!r}")

    def __contains__(self, name: str) -> bool:
        return any(reg.name == name for reg in self.registers)

    @property
    def memory(self) -> Register:
        return self.register("memory")

    @property
    def control(self) -> Register:
        return self.register("control")

    @property
    def ancilla(self) -> Register:
        return self.register("ancilla")

    @property
    def n(self) -> int:
        return self.memory.width

    @property
    def b(self) -> int:
        return self.control.width if "control" in self else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, RegisterLayout) and self.registers == other.registers

    def __hash__(self) -> int:
        return hash(self.registers)

    def __repr__(self) -> str:
        body = ", ".join(f"{r.name}:{r.width}" for r in self.registers)
        return f"RegisterLayout({body})"


class StateVector:
    """Normalized complex amplitudes over a layout's basis states."""

    __slots__ = ("layout", "mode", "_idx", "_amps")

    def __init__(self, layout, idx, amps, mode, _internal=False):
        if not _internal:
            raise TypeError(
                "use StateVector.basis_state, from_amplitudes or from_arrays"
            )
        self.layout = layout
        self.mode = mode
        self._idx = idx
        self._amps = amps

    @classmethod
    def _sparse(
        cls, layout: RegisterLayout, idx: np.ndarray, amps: np.ndarray
    ) -> StateVector:
        """Wrap a sorted, duplicate-free index array and its aligned amplitudes."""
        idx.flags.writeable = False
        amps.flags.writeable = False
        return cls(layout, idx, amps, "sparse", _internal=True)

    @classmethod
    def _dense(cls, layout: RegisterLayout, amps: np.ndarray) -> StateVector:
        return cls(layout, None, amps, "dense", _internal=True)

    @classmethod
    def basis_state(
        cls, layout: RegisterLayout, index: int = 0, mode: str = "sparse"
    ) -> StateVector:
        if not 0 <= index < layout.dim:
            raise IndexError(f"basis index {index} out of range")
        return cls.from_arrays(layout, [index], [1.0], mode=mode)

    @classmethod
    def from_amplitudes(
        cls,
        layout: RegisterLayout,
        amplitudes: Mapping[int, complex],
        mode: str = "sparse",
    ) -> StateVector:
        """Build a state from a basis-index to amplitude mapping.

        The mapping must be normalized to within NORM_TOLERANCE; the
        constructor never renormalizes.
        """
        return cls.from_arrays(
            layout, list(amplitudes.keys()), list(amplitudes.values()), mode=mode
        )

    @classmethod
    def from_arrays(
        cls,
        layout: RegisterLayout,
        indices,
        amplitudes,
        mode: str = "sparse",
    ) -> StateVector:
        """Build a state from distinct basis indices and their amplitudes.

        The indices may come in any order. The amplitudes must be
        normalized to within NORM_TOLERANCE; the constructor never
        renormalizes.
        """
        if mode not in ("sparse", "dense"):
            raise ValueError(f"unknown mode {mode!r}")
        idx = np.asarray(indices).ravel()
        amps = np.asarray(amplitudes, dtype=np.complex128).ravel()
        if idx.shape != amps.shape:
            raise ValueError(
                f"{idx.size} basis indices but {amps.size} amplitudes"
            )
        if idx.size and (idx.min() < 0 or idx.max() >= layout.dim):
            raise IndexError(
                f"basis index out of range for a {layout.total_qubits}-qubit layout"
            )
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > NORM_TOLERANCE:
            raise ValueError(f"amplitudes are not normalized: |psi|^2 = {norm_sq!r}")
        idx = idx.astype(np.int64)
        order = np.argsort(idx, kind="stable")
        idx, amps = idx[order], amps[order]
        if np.any(idx[1:] == idx[:-1]):
            raise ValueError("basis indices must be distinct")
        if mode == "sparse":
            return _pruned(layout, idx, amps)
        _check_dense_size(layout)
        arr = np.zeros(layout.dim, dtype=np.complex128)
        arr[idx] = amps
        return cls._dense(layout, arr)

    def amplitude(self, index: int) -> complex:
        if self.mode == "dense":
            return complex(self._amps[index])
        return complex(_gather(self._idx, self._amps, np.array([index]))[0])

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted nonzero basis indices and their amplitudes; do not modify them.

        A sparse state returns its own (read-only) arrays.
        """
        if self.mode == "sparse":
            return self._idx, self._amps
        nonzero = np.flatnonzero(self._amps)
        return nonzero, self._amps[nonzero]

    def items(self) -> Iterator[tuple[int, complex]]:
        """Nonzero (basis index, amplitude) pairs in index order."""
        idx, amps = self.arrays()
        return zip(idx.tolist(), amps.tolist())

    @property
    def support_size(self) -> int:
        if self.mode == "sparse":
            return int(self._idx.size)
        return int(np.count_nonzero(self._amps))

    def norm(self) -> float:
        return float(np.linalg.norm(self._amps))

    def to_mode(self, mode: str) -> StateVector:
        if mode == self.mode:
            return self
        if mode == "dense":
            _check_dense_size(self.layout)
            arr = np.zeros(self.layout.dim, dtype=np.complex128)
            arr[self._idx] = self._amps
            return StateVector._dense(self.layout, arr)
        if mode == "sparse":
            kept = np.flatnonzero(np.abs(self._amps) > PRUNE_THRESHOLD)
            return StateVector._sparse(self.layout, kept, self._amps[kept])
        raise ValueError(f"unknown mode {mode!r}")

    def as_dict(self) -> dict[int, complex]:
        return dict(self.items())

    def allclose(self, other: StateVector, tol: float = 1e-12) -> bool:
        """Amplitude-by-amplitude agreement over the union of supports."""
        if self.layout != other.layout:
            return False
        (ia, aa), (ib, ab) = self.arrays(), other.arrays()
        union = np.union1d(ia, ib)
        gap = np.abs(_gather(ia, aa, union) - _gather(ib, ab, union))
        return bool(np.all(gap <= tol))

    def __repr__(self) -> str:
        return (
            f"StateVector({self.layout!r}, mode={self.mode},"
            f" support={self.support_size})"
        )


def _check_dense_size(layout: RegisterLayout) -> None:
    if layout.total_qubits > _MAX_DENSE_QUBITS:
        raise DimensionError(
            f"dense mode supports at most {_MAX_DENSE_QUBITS} qubits,"
            f" layout has {layout.total_qubits}"
        )


def _check_qubit(state: StateVector, qubit: int) -> None:
    if not 0 <= qubit < state.layout.total_qubits:
        raise IndexError(
            f"qubit {qubit} out of range for {state.layout.total_qubits}-qubit layout"
        )


def _blocks(amps: np.ndarray, offset: int, width: int) -> np.ndarray:
    """View dense amplitudes as (above, 2**width, 2**offset).

    The middle axis is the value of the width qubits starting at bit offset.
    """
    return amps.reshape(-1, 1 << width, 1 << offset)


def _dense_subspace(amps: np.ndarray, mask: int, value: int) -> np.ndarray:
    """View of the dense amplitudes at basis indices i with (i & mask) == value.

    The mask must cover contiguous qubits, as a qubit's or a register's
    does, and the value must lie under the mask.
    """
    offset = max((mask & -mask).bit_length() - 1, 0)
    width = mask.bit_count()
    if mask != ((1 << width) - 1) << offset or value & ~mask:
        raise ValueError(
            f"dense mode selects a value under a contiguous mask,"
            f" got value {value:#x} under mask {mask:#x}"
        )
    return _blocks(amps, offset, width)[:, value >> offset, :]


def _lookup(idx: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the query indices sit in the sorted, nonempty idx, and which are there."""
    pos = np.minimum(np.searchsorted(idx, query), idx.size - 1)
    return pos, idx[pos] == query


def _gather(idx: np.ndarray, amps: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Amplitudes at the query indices, 0 where the support idx lacks them.

    Returns amps itself when query is the support, the common case in
    amplification, where every state shares its axis's support.
    """
    if np.array_equal(idx, query):
        return amps
    pos, hit = _lookup(idx, query)
    return np.where(hit, amps[pos], 0j)


def _pruned(layout: RegisterLayout, idx: np.ndarray, amps: np.ndarray) -> StateVector:
    """Sparse state on sorted indices, without amplitudes of at most PRUNE_THRESHOLD."""
    keep = np.abs(amps) > PRUNE_THRESHOLD
    if keep.all():
        return StateVector._sparse(layout, idx, amps)
    return StateVector._sparse(layout, idx[keep], amps[keep])


def _permuted(state: StateVector, idx: np.ndarray) -> StateVector:
    """Sparse state with state's amplitudes moved to the rewritten indices idx."""
    # The rewritten indices form a few sorted runs, which a stable sort merges
    # in near-linear time.
    order = np.argsort(idx, kind="stable")
    return StateVector._sparse(state.layout, idx[order], state._amps[order])


def apply_not(state: StateVector, qubit: int) -> StateVector:
    """Flip one qubit on every basis state (Pauli X)."""
    _check_qubit(state, qubit)
    mask = 1 << qubit
    if state.mode == "sparse":
        return _permuted(state, state._idx ^ mask)
    flipped = _blocks(state._amps, qubit, 1)[:, ::-1, :]
    return StateVector._dense(state.layout, np.ascontiguousarray(flipped).reshape(-1))


def apply_xor(state: StateVector, control: int, target: int) -> StateVector:
    """Flip the target qubit on basis states whose control qubit is 1."""
    _check_qubit(state, control)
    _check_qubit(state, target)
    if control == target:
        raise ValueError("control and target must be different qubits")
    if state.mode == "sparse":
        idx = state._idx
        return _permuted(state, idx ^ (((idx >> control) & 1) << target))
    # Axis 1 holds the higher of the two qubits, axis 3 the lower one.
    lo, hi = sorted((control, target))
    shape = (-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    src = state._amps.reshape(shape)
    out = state._amps.copy()
    if control == hi:
        out.reshape(shape)[:, 1, :, :, :] = src[:, 1, :, ::-1, :]
    else:
        out.reshape(shape)[:, :, :, 1, :] = src[:, ::-1, :, 1, :]
    return StateVector._dense(state.layout, out)


def apply_hadamard(state: StateVector, qubit: int) -> StateVector:
    """Apply the 2x2 Hadamard to one qubit."""
    _check_qubit(state, qubit)
    mask = 1 << qubit
    if state.mode == "sparse":
        idx = state._idx
        bases, slot = np.unique(idx & ~mask, return_inverse=True)
        pair = np.zeros((2, bases.size), dtype=np.complex128)
        pair[(idx >> qubit) & 1, slot] = state._amps
        a0, a1 = pair
        new_idx = np.concatenate((bases, bases | mask))
        new_amps = np.concatenate(((a0 + a1) * _SQRT_HALF, (a0 - a1) * _SQRT_HALF))
        order = np.argsort(new_idx, kind="stable")
        return _pruned(state.layout, new_idx[order], new_amps[order])
    src = _blocks(state._amps, qubit, 1)
    out = np.empty_like(state._amps)
    pair = _blocks(out, qubit, 1)
    np.add(src[:, 0, :], src[:, 1, :], out=pair[:, 0, :])
    np.subtract(src[:, 0, :], src[:, 1, :], out=pair[:, 1, :])
    out *= _SQRT_HALF
    return StateVector._dense(state.layout, out)


def apply_hamming_phase(state: StateVector, control: int) -> StateVector:
    """Phase each basis state by exp(i * (pi/2n) * z * sigma).

    z counts the 0-bits of the memory register in that basis state and
    sigma is +1 when the given control qubit is 0, -1 when it is 1. This
    is the diagonal distance-counting step between the two Hadamards of a
    control rotation; diagonal operators on different controls commute.
    """
    layout = state.layout
    control_reg = layout.control
    if control not in control_reg.bits():
        raise ValueError(
            f"qubit {control} is not in the control register {list(control_reg.bits())}"
        )
    mem = layout.memory
    n = mem.width
    step = math.pi / (2 * n)
    cmask = 1 << control
    if state.mode == "sparse":
        idx = state._idx
        zeros = n - np.bitwise_count(idx & mem.mask).astype(np.int64)
        signed = np.where((idx & cmask) != 0, -zeros, zeros)
        # phases[n + k] = exp(i * step * k) for k = -n..n
        phases = np.exp(1j * step * np.arange(-n, n + 1))
        return StateVector._sparse(layout, idx, state._amps * phases[n + signed])
    words = np.arange(1 << n)
    zeros = np.full(1 << n, n)
    for k in range(n):
        zeros -= (words >> k) & 1
    # table[c, m] is the phase of memory word m under control bit value c.
    table = np.exp(1j * step * np.outer((1, -1), zeros))
    if control > mem.offset:
        # (above, control bit, gap, memory word, below)
        gap = control - mem.offset - n
        view = state._amps.reshape(-1, 2, 1 << gap, 1 << n, 1 << mem.offset)
        phases = table[:, None, :, None]
    else:
        # (above, memory word, gap, control bit, below)
        gap = mem.offset - control - 1
        view = state._amps.reshape(-1, 1 << n, 1 << gap, 2, 1 << control)
        phases = table.T[:, None, :, None]
    return StateVector._dense(layout, (view * phases).reshape(-1))


def collapse_qubit(
    state: StateVector, qubit: int, outcome: int
) -> tuple[float, StateVector]:
    """Project one qubit onto an outcome and renormalize.

    Returns (outcome probability, collapsed state). Collapsing onto a
    zero-probability outcome is an error.
    """
    _check_qubit(state, qubit)
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    mask = 1 << qubit
    want = mask if outcome else 0
    return _project(state, mask, want)


def _project(
    state: StateVector, select_mask: int, select_value: int
) -> tuple[float, StateVector]:
    if state.mode == "sparse":
        keep = (state._idx & select_mask) == select_value
        kept = state._amps[keep]
        probability = float(np.vdot(kept, kept).real)
        if probability <= 0.0:
            raise ValueError("projection onto a zero-probability subspace")
        return probability, StateVector._sparse(
            state.layout, state._idx[keep], kept / math.sqrt(probability)
        )
    kept = _dense_subspace(state._amps, select_mask, select_value)
    probability = float(np.vdot(kept, kept).real)
    if probability <= 0.0:
        raise ValueError("projection onto a zero-probability subspace")
    out = np.zeros_like(state._amps)
    _dense_subspace(out, select_mask, select_value)[...] = kept / math.sqrt(probability)
    return probability, StateVector._dense(state.layout, out)


def subspace_mass(state: StateVector, select_mask: int, select_value: int) -> float:
    """Born mass of basis states i with (i & select_mask) == select_value.

    In dense mode the mask must cover contiguous qubits.
    """
    if state.mode == "dense":
        kept = _dense_subspace(state._amps, select_mask, select_value)
        return float(np.vdot(kept, kept).real)
    idx, amps = state.arrays()
    kept = amps[(idx & select_mask) == select_value]
    return float(np.vdot(kept, kept).real)


def measure_qubit(state: StateVector, qubit: int, rng) -> tuple[int, StateVector]:
    """Born-rule measurement of one qubit; returns (bit, collapsed state)."""
    _check_qubit(state, qubit)
    mask = 1 << qubit
    p_one = subspace_mass(state, mask, mask)
    outcome = 1 if rng.random() < p_one else 0
    _, collapsed = collapse_qubit(state, qubit, outcome)
    return outcome, collapsed


def measure_register(
    state: StateVector, register: str | Register, rng
) -> tuple[str, StateVector]:
    """Born-rule measurement of a whole register.

    Returns (bit string, collapsed state); the string is written with the
    register's first qubit leftmost, matching the pattern convention. The
    outcome is the register value, in increasing order, at which the
    cumulative mass first exceeds one uniform draw.
    """
    reg = state.layout.register(register) if isinstance(register, str) else register
    if state.mode == "dense":
        blocks = np.abs(_blocks(state._amps, reg.offset, reg.width)) ** 2
        marginal = blocks.sum(axis=(0, 2))
        first = int(np.searchsorted(np.cumsum(marginal), rng.random(), side="right"))
        chosen = min(first, int(np.flatnonzero(marginal)[-1]))
    else:
        idx, amps = state.arrays()
        values = (idx & reg.mask) >> reg.offset
        order = np.argsort(values, kind="stable")
        cumulative = np.cumsum(np.abs(amps[order]) ** 2)
        first = int(np.searchsorted(cumulative, rng.random(), side="right"))
        chosen = int(values[order[min(first, idx.size - 1)]])
    _, collapsed = _project(state, reg.mask, chosen << reg.offset)
    word = "".join(str((chosen >> j) & 1) for j in range(reg.width))
    return word, collapsed


def probability_of_subspace(
    state: StateVector, predicate: Callable[[int], bool]
) -> float:
    """Total Born probability of basis states satisfying the predicate."""
    return sum(abs(a) ** 2 for i, a in state.items() if predicate(i))


def reflect_about_state(state: StateVector, axis: StateVector) -> StateVector:
    """Reflection 2 <axis|state> axis - state; unitary when axis is normalized."""
    if state.layout != axis.layout:
        raise DimensionError("layout mismatch between state and reflection axis")
    axis = axis.to_mode(state.mode)
    coeff = 2.0 * inner_product(axis, state)
    if state.mode == "dense":
        return StateVector._dense(state.layout, coeff * axis._amps - state._amps)
    support = axis._idx
    if not (
        np.array_equal(support, state._idx)
        or _lookup(support, state._idx)[1].all()
    ):
        # The state reaches outside the axis support (amplification never
        # does: pruning only shrinks the support), so merge the two.
        support = np.union1d(support, state._idx)
    amps = coeff * _gather(axis._idx, axis._amps, support) - _gather(
        state._idx, state._amps, support
    )
    return _pruned(state.layout, support, amps)


def reflect_good_subspace(state: StateVector, branch: int) -> StateVector:
    """Negate amplitudes whose control register is all-0 (branch 0) or all-1 (branch 1)."""
    if branch not in (0, 1):
        raise ValueError("branch must be 0 or 1")
    reg = state.layout.control
    target = reg.mask if branch else 0
    if state.mode == "sparse":
        flip = (state._idx & reg.mask) == target
        return StateVector._sparse(
            state.layout, state._idx, np.where(flip, -state._amps, state._amps)
        )
    out = state._amps.copy()
    _dense_subspace(out, reg.mask, target)[...] *= -1
    return StateVector._dense(state.layout, out)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> with the first argument conjugated."""
    if a.layout != b.layout:
        raise DimensionError("layout mismatch in inner product")
    if a.mode == "dense" and b.mode == "dense":
        return complex(np.vdot(a._amps, b._amps))
    (ia, aa), (ib, ab) = a.arrays(), b.arrays()
    if ia.size <= ib.size:
        return complex(np.vdot(aa, _gather(ib, ab, ia)))
    return complex(np.vdot(_gather(ia, aa, ib), ab))
