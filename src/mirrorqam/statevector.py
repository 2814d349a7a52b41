"""Exact state-vector simulation over named qubit registers.

Basis-state indices are little-endian over the composite register: qubit k
(1-based) of a register at offset o occupies bit (o + k - 1) of the index,
so a register's first qubit is its least significant bit and lines up with
the leftmost character of a pattern string.

Two storage modes exist, and a state's mode follows its storage. Sparse
mode (default) holds a state as two aligned arrays: the sorted,
duplicate-free int64 basis indices of its support and their complex128
amplitudes. The support is exactly the nonzero amplitudes, the entries
that a dense state's arrays() reports: building or converting a sparse
state, and the sparse amplitude-mixing operations (Hadamard, the control
rotations and reflection about a state), drop amplitudes that are exactly
0 and keep every other one, however small. So a branch is absent only
when its amplitudes are exactly 0, in either mode. Every gate is array
arithmetic over the whole support. int64 indices limit layouts to 63
qubits. Dense mode keeps the full 2**total_qubits vector (no index
array), at most 24 qubits, and is written separately, as the reference
that sparse results are cross-validated against; both modes implement
every operation and agree amplitude-by-amplitude. Each dense kernel
reshapes the vector so that the qubit or register it acts on is one axis,
then swaps, combines, scales or sums along that axis. flip_bits treats the
bits from the lowest to the highest flipped qubit as one axis and flips
them with one gather along it, which moves the blocks below the lowest
flipped qubit whole; its index array has one entry per value of that axis,
so only a mask that spans every qubit builds one per basis state.

A sparse selection (projection, masses, the good-subspace reflection,
register_law) takes the same entries in the same order whether _selection
finds them as a binary-searched run or by a boolean mask, so its results
agree bit for bit; the good-subspace reflection negates in both modes, so
their signed zeros agree. A gate that keeps the support
passes its input's index array on unchanged, so the states of one
amplification run share their axis's index array, and the reflections
and the inner product recognise that by identity before they compare or
look up indices. Each gate computes its output amplitudes in one array
and updates it in place rather than combining full-size intermediate
arrays.

Measuring a register is register_law, one draw from it and a projection.
A caller that draws many times from one state builds its law once, as
lists (RegisterLaw.as_lists).

The control rotations run one kernel in both modes; its output equals
that mode's own gate sequence (Hadamard, apply_hamming_phase, Hadamard)
bit for bit. The phase keeps independent judges: the sparse
apply_hamming_phase computes its phases per basis index, apart from the
kernel's _distance_phases; the tests compare the sparse kernel with that
gate sequence, the dense gates with explicit Kronecker-product operators,
and the two modes with each other over random gate sequences.

Inner products, masses and norm() in both modes sum np.vdot over
consecutive blocks of 8192 amplitudes: OpenBLAS splits a longer dot
product across its worker threads, which then spin between calls, so a
run would keep a second core busy, its speed would follow that core's
load, and the sum would depend on the host's thread count. A vector of at
most 8192 amplitudes is one np.vdot call. Every reduction (these sums,
cumsums and sums over axes) runs on the calling thread, since a block's
np.vdot is too short to gain from a second one. The full-size elementwise
passes instead run as two halves (_split) once their output holds 2**19
entries and the process may run on two CPUs: the upper half on a thread
started for the call, which is joined before the kernel goes on. They
are the reflections, the good-subspace copy, the dense projection, the
control rotations (split along the leading axis of their row view, so a
retrieval state's two branches rotate apart), the dense flip_bits, the
dense support scan of arrays() and support_size, and the squared
magnitudes of the dense register_law. Each element goes through the same
operations either way, so no result depends on the split. The thread
writes only into arrays the calling thread allocated, which keeps large
buffers out of a second malloc arena. 2**19 lies above the crossover,
2**17 to 2**18 entries on two cores, where the thread's start and join
(about 60 us) cost what half a pass saves; on one CPU the two halves
would only take turns.

All operations return new StateVector values. Every state, in either
mode, is built by one constructor that marks the arrays it wraps
read-only, so the arrays of an existing value are never mutated, even
where an output shares an array with its input (a sparse gate that keeps
the support passes its index array on), and sharing across threads is
safe. Randomized operations take a seedable numpy Generator
(np.random.default_rng); outcomes are deterministic given the seed and
configuration.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DimensionError
from .patterns import BitPattern

NORM_TOLERANCE = 1e-10
_MAX_DENSE_QUBITS = 24
# The dense cap's amplitude count; a retrieval run checks its support bound
# against it before it builds any state.
MAX_AMPLITUDES = 1 << _MAX_DENSE_QUBITS
_MAX_QUBITS = 63  # basis indices are int64

_SQRT_HALF = math.sqrt(0.5)
# Below this many entries, on average per stretch of rows, one argsort of the
# whole support is cheaper than _flipped_rows's row checks and per-stretch
# calls (in-process, the two meet near 3 000 entries).
_ROW_SORT_MIN = 4096
# The largest power of two that OpenBLAS's dot product keeps on the
# calling thread (it splits products of more than 10 000 elements).
_DOT_BLOCK = 8192
# An elementwise pass whose output holds at least this many entries runs as
# two halves, one on a thread started for the call (_split). In-process on
# two cores the split gains from 2**17 entries (multiply and subtract) or
# 2**18 (a copy); at 2**19 both take 30-40 % less time, and the sparse
# arrays of the wide-memory benchmark (2**18 entries at most) stay below.
_SPLIT_MIN = 1 << 19


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

    __slots__ = ("layout", "_idx", "_amps")

    def __init__(self, *args, **kwargs):
        raise TypeError("use StateVector.basis_state, from_amplitudes or from_arrays")

    @classmethod
    def _wrap(
        cls, layout: RegisterLayout, idx: np.ndarray | None, amps: np.ndarray
    ) -> StateVector:
        """The one constructor: sorted, duplicate-free indices and their amplitudes.

        idx None means dense: amps is the whole vector. Every array wrapped
        is marked read-only.
        """
        state = object.__new__(cls)
        for array in (idx, amps):
            if array is not None:
                array.flags.writeable = False
        state.layout, state._idx, state._amps = layout, idx, amps
        return state

    @property
    def mode(self) -> str:
        return "dense" if self._idx is None else "sparse"

    @classmethod
    def basis_state(
        cls, layout: RegisterLayout, index: int = 0, mode: str = "sparse"
    ) -> StateVector:
        _check_index(layout, index)
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

        The indices may come in any order and must be integers (TypeError
        otherwise, never truncation). The amplitudes must be normalized to
        within NORM_TOLERANCE; the constructor never renormalizes.
        """
        if mode not in ("sparse", "dense"):
            raise ValueError(f"unknown mode {mode!r}")
        idx = np.asarray(indices).ravel()
        if idx.size and idx.dtype.kind not in "iu":
            raise TypeError(f"basis indices must be integers, got dtype {idx.dtype}")
        amps = np.asarray(amplitudes, dtype=np.complex128).ravel()
        if idx.shape != amps.shape:
            raise ValueError(
                f"{idx.size} basis indices but {amps.size} amplitudes"
            )
        if idx.size and (idx.min() < 0 or idx.max() >= layout.dim):
            raise IndexError(
                f"basis index out of range for a {layout.total_qubits}-qubit layout"
            )
        norm_sq = _vdot(amps, amps).real
        if not abs(norm_sq - 1.0) <= NORM_TOLERANCE:  # a NaN norm fails too
            raise ValueError(f"amplitudes are not normalized: |psi|^2 = {norm_sq!r}")
        idx = idx.astype(np.int64)
        order = np.argsort(idx, kind="stable")
        idx, amps = idx[order], amps[order]
        if np.any(idx[1:] == idx[:-1]):
            raise ValueError("basis indices must be distinct")
        if mode == "sparse":
            return _nonzero(layout, idx, amps)
        _check_dense_size(layout)
        arr = np.zeros(layout.dim, dtype=np.complex128)
        arr[idx] = amps
        return cls._wrap(layout, None, arr)

    def amplitude(self, index: int) -> complex:
        """The amplitude of basis state index; IndexError outside [0, dim).

        TypeError when index is not an integer.
        """
        index = _check_index(self.layout, index)
        if self.mode == "dense":
            return complex(self._amps[index])
        return complex(_gather(self._idx, self._amps, np.array([index]))[0])

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted nonzero basis indices and their amplitudes; do not modify them.

        A sparse state returns its own (read-only) arrays.
        """
        if self.mode == "sparse":
            return self._idx, self._amps
        nonzero = np.flatnonzero(_support_mask(self._amps))
        return nonzero, self._amps[nonzero]

    def items(self) -> Iterator[tuple[int, complex]]:
        """Nonzero (basis index, amplitude) pairs in index order."""
        idx, amps = self.arrays()
        return zip(idx.tolist(), amps.tolist())

    @property
    def support_size(self) -> int:
        if self.mode == "sparse":
            return int(self._idx.size)
        return int(np.count_nonzero(_support_mask(self._amps)))

    def norm(self) -> float:
        return math.sqrt(_vdot(self._amps, self._amps).real)

    def to_mode(self, mode: str) -> StateVector:
        if mode == self.mode:
            return self
        if mode == "dense":
            _check_dense_size(self.layout)
            arr = np.zeros(self.layout.dim, dtype=np.complex128)
            arr[self._idx] = self._amps
            return StateVector._wrap(self.layout, None, arr)
        if mode == "sparse":
            return StateVector._wrap(self.layout, *self.arrays())
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


def _support_mask(amps: np.ndarray) -> np.ndarray:
    """amps != 0, the support of dense amplitudes.

    A boolean pass: numpy's own nonzero scan of complex values is slower,
    and keeps the same entries (NaN kept, -0.0 dropped).
    """
    mask = np.empty(amps.shape, dtype=bool)
    _split(lambda part: np.not_equal(amps[part], 0, out=mask[part]), mask)
    return mask


def _check_dense_size(layout: RegisterLayout) -> None:
    if layout.total_qubits > _MAX_DENSE_QUBITS:
        raise DimensionError(
            f"dense mode supports at most {_MAX_DENSE_QUBITS} qubits,"
            f" layout has {layout.total_qubits}"
        )


def _check_index(layout: RegisterLayout, index: int) -> int:
    """index as an int; TypeError unless it is an integer, IndexError outside [0, dim)."""
    try:
        index = operator.index(index)
    except TypeError:
        raise TypeError(f"basis index {index!r} is not an integer") from None
    if not 0 <= index < layout.dim:
        raise IndexError(f"basis index {index} out of range")
    return index


def _check_qubit(state: StateVector, qubit: int) -> None:
    if not 0 <= qubit < state.layout.total_qubits:
        raise IndexError(
            f"qubit {qubit} out of range for {state.layout.total_qubits}-qubit layout"
        )


def _register(state: StateVector, register: str | Register) -> Register:
    return state.layout.register(register) if isinstance(register, str) else register


def _blocks(amps: np.ndarray, offset: int, width: int) -> np.ndarray:
    """View dense amplitudes as (above, 2**width, 2**offset).

    The middle axis is the value of the width qubits starting at bit offset.
    """
    return amps.reshape(-1, 1 << width, 1 << offset)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    # On one CPU the two halves take turns, and a pass runs about 10 %
    # slower than on one thread. Not every platform has the affinity call.
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split(step: Callable[[tuple], None], out: np.ndarray, axis: int = 0) -> None:
    """Run step(part) over the two halves of out along axis.

    part is an index tuple that picks one half of axis; step computes the
    elements under it from its inputs under the same index and writes them
    into out[part] only, through out=, copyto, fill or take(..., out=), so
    each element goes through the same operations as in one step(all) call.
    Every array step writes must be allocated by the caller. With at least
    _SPLIT_MIN entries in out, two along axis and two CPUs to run on, the
    upper half runs on a thread started for this call and the lower half
    here; the thread is joined and any exception it raised is raised here.
    """
    count = out.shape[axis]
    if out.size < _SPLIT_MIN or count < 2 or _cpus() < 2:
        step((slice(None),) * (axis + 1))
        return
    lead = (slice(None),) * axis
    failures: list[BaseException] = []

    def upper() -> None:
        try:
            step((*lead, slice(count // 2, None)))
        except BaseException as exc:  # raised again on the calling thread
            failures.append(exc)

    thread = threading.Thread(target=upper)
    thread.start()
    try:
        step((*lead, slice(0, count // 2)))
    finally:
        thread.join()
    if failures:
        raise failures[0]


def _vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b> of equal-shape arrays: np.vdot summed over _DOT_BLOCK blocks."""
    a, b = a.reshape(-1), b.reshape(-1)
    if a.size <= _DOT_BLOCK:
        return complex(np.vdot(a, b))
    return sum(
        complex(np.vdot(a[i : i + _DOT_BLOCK], b[i : i + _DOT_BLOCK]))
        for i in range(0, a.size, _DOT_BLOCK)
    )


def _lookup(idx: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the query indices sit in the sorted, nonempty idx, and which are there."""
    pos = np.minimum(np.searchsorted(idx, query), idx.size - 1)
    return pos, idx[pos] == query


def _gather(idx: np.ndarray, amps: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Amplitudes at the query indices, 0 where the support idx lacks them.

    Returns amps itself when query is the support, the common case in
    amplification, where every state shares its axis's index array.
    """
    if idx is query or np.array_equal(idx, query):
        return amps
    pos, hit = _lookup(idx, query)
    return np.where(hit, amps[pos], 0j)


def _sorted_under(idx: np.ndarray, mask: int) -> bool:
    """Whether the sorted support idx is also sorted by the bits under mask.

    It is when mask covers contiguous qubits and every entry shares the bits
    above them, which idx[0] and idx[-1] then do.
    """
    return (
        idx.size > 0
        and mask > 0
        and not mask & (mask + (mask & -mask))
        and not (int(idx[0]) ^ int(idx[-1])) >> mask.bit_length()
    )


def _selection(idx: np.ndarray, mask: int, value: int) -> slice | np.ndarray:
    """The positions of the sorted support idx with (i & mask) == value.

    When _sorted_under(idx, mask) holds, they form one run, found by two
    binary searches and returned as a slice; otherwise this returns a
    boolean mask over the support.
    """
    if value & ~mask or not _sorted_under(idx, mask):
        return (idx & mask) == value
    top = mask.bit_length()
    first = (int(idx[0]) >> top << top) | value
    last = first | ((mask & -mask) - 1)
    return slice(int(idx.searchsorted(first)), int(idx.searchsorted(last, "right")))


def _select(
    amps: np.ndarray, idx: np.ndarray | None, mask: int, value: int
) -> tuple[np.ndarray, slice | tuple | np.ndarray]:
    """(view, key): view[key] are the amplitudes at indices i with (i & mask) == value.

    Sparse (idx the support): view is amps and key is _selection's slice
    or boolean mask. Dense (idx None): view is amps through _blocks over
    the mask, whose qubits must be contiguous as a qubit's or a register's
    are, and key picks the value's rows. view[key] is a view of amps except
    on the boolean path, and view[key] = x writes through on every path.
    """
    if idx is not None:
        return amps, _selection(idx, mask, value)
    offset = max((mask & -mask).bit_length() - 1, 0)
    width = mask.bit_count()
    if mask != ((1 << width) - 1) << offset or value & ~mask:
        raise ValueError(
            f"dense mode selects a value under a contiguous mask,"
            f" got value {value:#x} under mask {mask:#x}"
        )
    return _blocks(amps, offset, width), (slice(None), value >> offset)


def _nonzero(layout: RegisterLayout, idx: np.ndarray, amps: np.ndarray) -> StateVector:
    """Sparse state on sorted indices, without the amplitudes that are exactly 0."""
    # Most outputs hold no exact 0, and one all() pass shows it without
    # building the mask.
    if amps.all():
        return StateVector._wrap(layout, idx, amps)
    keep = amps != 0
    return StateVector._wrap(layout, idx[keep], amps[keep])


def _permuted(state: StateVector, flips) -> StateVector:
    """Sparse state with the amplitude of each index i moved to i ^ flips.

    flips is one mask or an array of masks aligned with the support.
    """
    # Flipping a bit swaps the two halves of aligned index blocks; the
    # stable kind (timsort for int64) finds the sorted stretches this leaves
    # and merges them, in near-linear time when they are long (apply_xor on
    # a high target). A mask over a register of random words scrambles the
    # order within every run of equal higher bits, and sorting that costs up
    # to O(N log N) comparisons; flip_bits sorts such supports by rows
    # instead (_flipped_rows). The flipped keys are dropped once sorted: a
    # gather of the originals, flipped in place, is the sorted indices.
    order = np.argsort(state._idx ^ flips, kind="stable")
    idx = state._idx[order]
    idx ^= flips[order] if isinstance(flips, np.ndarray) else flips
    return StateVector._wrap(state.layout, idx, state._amps[order])


def _flipped_rows(state: StateVector, mask: int) -> StateVector | None:
    """flip_bits of a sparse state by rows, or None where it has none.

    XOR with mask keeps every index in its run of equal bits above cut, the
    end of the highest register that mask touches, so the sorted output is
    each run sorted on its own. When the runs have one length they are the
    rows of a (runs, length) view, and a row's order depends only on its
    bits under cut: one argsort serves each stretch of consecutive rows
    with equal bits under cut (a retrieval state's branch), and gathers
    every row of it. None, for one argsort of the whole support, when the
    runs differ in length or the stretches average fewer than
    _ROW_SORT_MIN entries (small supports never look for rows).
    """
    idx = state._idx
    if idx.size < _ROW_SORT_MIN:
        return None
    top = mask.bit_length()
    cut = next(r.offset + r.width for r in state.layout.registers if r.offset + r.width >= top)
    low = (1 << cut) - 1
    # The runs are rows when the first run's length divides the support and
    # every row's first and last entries share bits above cut that no other
    # row has: no full-size array is read or made to find them.
    length = int(idx.searchsorted(int(idx[0]) | low, "right"))
    if idx.size % length:
        return None
    rows = idx.reshape(-1, length)
    heads = rows[:, 0] >> cut
    if not (np.array_equal(heads, rows[:, -1] >> cut) and np.all(heads[1:] != heads[:-1])):
        return None
    differs = rows[1:] ^ rows[:-1]
    differs &= low
    starts = [0, *(np.flatnonzero(differs.any(axis=1)) + 1).tolist(), len(rows)]
    del differs
    if (len(starts) - 1) * _ROW_SORT_MIN > idx.size:
        return None
    amps = state._amps.reshape(rows.shape)
    out_idx = np.empty(rows.shape, dtype=np.int64)
    out_amps = np.empty(rows.shape, dtype=np.complex128)
    for start, end in zip(starts, starts[1:]):
        keys = rows[start] ^ mask
        order = np.argsort(keys)  # the keys are distinct, so any kind agrees
        # Each row's bits above cut over the stretch's sorted bits below it.
        np.bitwise_or(rows[start:end, :1] & ~low, keys[order] & low, out=out_idx[start:end])
        # mode="clip" writes straight into out; the default mode buffers it.
        np.take(amps[start:end], order, axis=1, out=out_amps[start:end], mode="clip")
    return StateVector._wrap(state.layout, out_idx.reshape(-1), out_amps.reshape(-1))


def flip_bits(state: StateVector, mask: int) -> StateVector:
    """Flip every qubit set in mask on every basis state (a product of Pauli X)."""
    total = state.layout.total_qubits
    if not 0 <= mask < state.layout.dim:
        raise IndexError(f"mask {mask:#x} reaches outside the {total}-qubit layout")
    if state.mode == "sparse":
        flipped = _flipped_rows(state, mask)
        return _permuted(state, mask) if flipped is None else flipped
    # The middle axis of _blocks holds the bits from low up to the mask's
    # highest bit; output row v is input row v ^ (mask >> low).
    low = max((mask & -mask).bit_length() - 1, 0)
    width = mask.bit_length() - low
    src = _blocks(state._amps, low, width)
    rows = np.arange(1 << width) ^ (mask >> low)
    out = np.empty_like(state._amps)
    blocks = _blocks(out, low, width)
    # mode="clip" writes straight into out; the default mode buffers it.
    _split(
        lambda part: np.take(src[part], rows, axis=1, out=blocks[part], mode="clip"),
        blocks,
    )
    return StateVector._wrap(state.layout, None, out)


def apply_not(state: StateVector, qubit: int) -> StateVector:
    """Flip one qubit on every basis state (Pauli X)."""
    _check_qubit(state, qubit)
    return flip_bits(state, 1 << qubit)


def apply_xor(state: StateVector, control: int, target: int) -> StateVector:
    """Flip the target qubit on basis states whose control qubit is 1."""
    _check_qubit(state, control)
    _check_qubit(state, target)
    if control == target:
        raise ValueError("control and target must be different qubits")
    if state.mode == "sparse":
        idx = state._idx
        return _permuted(state, ((idx >> control) & 1) << target)
    # Axis 1 holds the higher of the two qubits, axis 3 the lower one.
    lo, hi = sorted((control, target))
    shape = (-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    src = state._amps.reshape(shape)
    out = state._amps.copy()
    if control == hi:
        out.reshape(shape)[:, 1, :, :, :] = src[:, 1, :, ::-1, :]
    else:
        out.reshape(shape)[:, :, :, 1, :] = src[:, ::-1, :, 1, :]
    return StateVector._wrap(state.layout, None, out)


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
        return _nonzero(state.layout, new_idx[order], new_amps[order])
    src = _blocks(state._amps, qubit, 1)
    out = np.empty_like(state._amps)
    pair = _blocks(out, qubit, 1)
    np.add(src[:, 0, :], src[:, 1, :], out=pair[:, 0, :])
    np.subtract(src[:, 0, :], src[:, 1, :], out=pair[:, 1, :])
    out *= _SQRT_HALF
    return StateVector._wrap(state.layout, None, out)


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
    cmask = 1 << control
    if state.mode == "sparse":
        idx = state._idx
        zeros = n - np.bitwise_count(idx & mem.mask).astype(np.int64)
        signed = np.where((idx & cmask) != 0, -zeros, zeros)
        phases = _phase_table(n)[n + signed]
        return StateVector._wrap(layout, idx, state._amps * phases)
    out = state._amps.copy()
    rows = _blocks(out, control_reg.offset, control_reg.width)
    _multiply_phases(rows, control - control_reg.offset, _dense_phases(layout, rows))
    return StateVector._wrap(layout, None, out)


def _phase_table(n: int) -> np.ndarray:
    """table[n + k] = exp(i * (pi/2n) * k) for k = -n..n, the distance phases."""
    return np.exp(1j * (math.pi / (2 * n)) * np.arange(-n, n + 1))


def _distance_phases(layout: RegisterLayout, words: np.ndarray) -> np.ndarray:
    """phases[g, 0, v, 0, j]: the distance phase of words[g, j] under control bit v.

    words[g, j] holds the bits outside the control register of column j of
    row group g of an (above, 2**b, below) row view; only its memory bits
    count. The array broadcasts over the view of _multiply_phases.
    """
    n = layout.n
    zeros = n - np.bitwise_count(words & layout.memory.mask).astype(np.int64)
    table = _phase_table(n)
    return np.stack((table[n + zeros], table[n - zeros]), axis=1)[:, None, :, None]


def _dense_phases(layout: RegisterLayout, rows: np.ndarray) -> np.ndarray:
    """_distance_phases of dense rows, _blocks over the control register."""
    control = layout.control
    above, _, below = rows.shape
    high = np.arange(above, dtype=np.int64) << (control.offset + control.width)
    return _distance_phases(layout, high[:, None] | np.arange(below, dtype=np.int64))


def _multiply_phases(rows: np.ndarray, k: int, phases: np.ndarray) -> None:
    """Multiply the (leading) rows of a row view by qubit k's phases, in place."""
    # One multiply over both halves, never a one-element product: numpy can
    # send that through a scalar loop that rounds differently from the
    # vector loop the sparse apply_hamming_phase runs.
    view = rows.reshape(rows.shape[0], -1, 2, 1 << k, rows.shape[2])
    view *= phases


def _butterfly(low, high, tmp) -> None:
    """apply_hadamard's arithmetic in place on the paired halves low and high."""
    np.add(low, high, out=tmp)
    np.subtract(low, high, out=high)
    np.multiply(tmp, _SQRT_HALF, out=low)
    high *= _SQRT_HALF


def _rotate_rows(rows: np.ndarray, filled: int, phases: np.ndarray) -> None:
    """Hadamard, distance phase, Hadamard on each control qubit, in place.

    rows is (above, 2**b, below), indexed by control value on its middle
    axis, and holds +0.0 at every control value of bit length above
    filled. phases is _distance_phases of the rows' words; each qubit's
    phase step is _multiply_phases, as in the dense apply_hamming_phase.
    Each leading row is rotated on its own, and _split runs the two halves
    of the leading axis apart, so a retrieval state's branches rotate on
    two threads. A view with one leading row runs on one thread: a column
    slice of it would not be contiguous, and _rotate_part's reshapes would
    copy it.
    """
    above, count, below = rows.shape
    scratch = np.empty((above, rows[:1].size // 2), dtype=np.complex128)
    _split(lambda part: _rotate_part(rows[part], filled, phases[part], scratch[part]), rows)


def _rotate_part(
    rows: np.ndarray, filled: int, phases: np.ndarray, scratch: np.ndarray
) -> None:
    """_rotate_rows on some leading rows, with half their size of scratch."""
    above, count, below = rows.shape
    scratch = scratch.reshape(-1)
    for k in range(count.bit_length() - 1):
        # Qubit k touches the first 2**max(filled, k + 1) rows, the live
        # ones. The gate sequence keeps the rows past them at +0.0: every
        # phase has a positive real part.
        live = rows[:, : 1 << max(filled, k + 1)]
        # Axis 2 of the view is control bit k.
        halves = live.reshape(above, -1, 2, below << k)
        low, high = halves[:, :, 0], halves[:, :, 1]
        tmp = scratch[: low.size].reshape(low.shape)
        if k >= filled:
            # The rows with bit k set are still +0.0, so the Hadamard's
            # difference is the lower half and its sum is the lower half
            # plus +0.0, which differs only where a part is -0.0: adding 0.0
            # after the scaling turns those into +0.0, as the sum does. Both
            # steps write through out=; an assignment between the two halves
            # would copy through a full-size temporary.
            np.multiply(low, _SQRT_HALF, out=high)
            np.add(high, 0.0, out=low)
        else:
            _butterfly(low, high, tmp)
        _multiply_phases(live, k, phases)
        _butterfly(low, high, tmp)


def apply_control_rotations(state: StateVector) -> StateVector:
    """Hadamard, distance phase, Hadamard on every control qubit, in ascending order.

    On a memory word with z zero bits, a control qubit that starts in |0>
    ends in cos(pi z / 2n)|0> + i sin(pi z / 2n)|1>. Both modes run one
    kernel, described in the module docstring, on phases from
    _distance_phases, the dense apply_hamming_phase's phases; its output
    equals that of the three gates applied qubit by qubit, bit for bit.
    Per qubit it works only on the leading control values that can be
    nonzero: a sparse block whose controls start at 0 fills as the
    gate-by-gate support would, and a dense vector whose controls start at
    0 costs about two passes per step instead of b.
    """
    layout = state.layout
    control = layout.control
    b = control.width
    if state.mode == "dense":
        src = _blocks(state._amps, control.offset, b)
        out = np.empty_like(state._amps)
        rows = _blocks(out, control.offset, b)
        # Each half scans the rows it has just copied; scanning the input
        # instead made the dense rotation about 5 % slower on one CPU.
        bits = rows.view(np.uint64)
        set_rows = np.empty(rows.shape[:2], dtype=bool)

        def copy(part):
            np.copyto(rows[part], src[part])
            np.any(bits[part], axis=2, out=set_rows[part])

        _split(copy, rows)
        # filled is the bit length of the largest control value whose row
        # holds any set bit, -0.0 included, so every row past it is +0.0.
        held = np.flatnonzero(set_rows.any(axis=0))
        filled = int(held.max(initial=0)).bit_length()
        _rotate_rows(rows, filled, _dense_phases(layout, rows))
        return StateVector._wrap(layout, None, out)
    rows = 1 << b
    idx = state._idx
    rest, r = np.unique(idx & ~control.mask, return_inverse=True)
    c = (idx & control.mask) >> control.offset
    # rest is sorted, so the entries with equal bits above the control
    # register form runs, the groups; rest[j] is column col[j] of group
    # group[j].
    above = rest >> (control.offset + b)
    col = np.arange(rest.size) - np.searchsorted(above, above)
    group = np.cumsum(col == 0) - 1
    # buf[group[j], c, col[j]] is the amplitude of basis index rest[j] |
    # (c << control.offset), so buf lists the basis states in index order.
    # Groups smaller than the largest are padded with columns of 0, which
    # every butterfly and phase keeps at 0. The padding costs time and
    # memory only where group sizes differ; the groups of a retrieval
    # state are its branches, which have one size.
    shape = (int(group[-1]) + 1, rows, int(col.max()) + 1)
    buf = np.zeros(shape, dtype=np.complex128)
    buf[group[r], c, col[r]] = state._amps
    words = np.zeros((shape[0], shape[2]), dtype=np.int64)
    words[group, col] = rest
    _rotate_rows(buf, int(c.max()).bit_length(), _distance_phases(layout, words))
    out_idx = np.empty(shape, dtype=np.int64)
    shifts = (np.arange(rows, dtype=np.int64) << control.offset)[:, None]
    np.bitwise_or(words[:, None, :], shifts, out=out_idx)
    # The padding is 0, and so is every amplitude the gate sequence drops.
    return _nonzero(layout, out_idx.reshape(-1), buf.reshape(-1))


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
    view, key = _select(state._amps, state._idx, select_mask, select_value)
    kept = view[key]
    probability = _vdot(kept, kept).real
    if probability <= 0.0:
        raise ValueError("projection onto a zero-probability subspace")
    if state.mode == "sparse":
        kept = kept / math.sqrt(probability)
        return probability, StateVector._wrap(state.layout, state._idx[key], kept)
    value = key[1]
    out = np.empty_like(view)

    def step(part):
        rows, src = out[part], view[part]
        rows[:, :value].fill(0)
        rows[:, value + 1 :].fill(0)
        np.divide(src[:, value], math.sqrt(probability), out=rows[:, value])

    # A qubit at the top of the layout leaves one leading row, so that
    # projection splits its columns instead.
    _split(step, out, 0 if view.shape[0] > 1 else 2)
    return probability, StateVector._wrap(state.layout, None, out.reshape(-1))


def subspace_mass(state: StateVector, select_mask: int, select_value: int) -> float:
    """Born mass of basis states i with (i & select_mask) == select_value.

    In dense mode the mask must cover contiguous qubits.
    """
    view, key = _select(state._amps, state._idx, select_mask, select_value)
    kept = view[key]
    return _vdot(kept, kept).real


def measure_qubit(state: StateVector, qubit: int, rng) -> tuple[int, StateVector]:
    """Born-rule measurement of one qubit; returns (bit, collapsed state)."""
    _check_qubit(state, qubit)
    mask = 1 << qubit
    p_one = subspace_mass(state, mask, mask)
    outcome = 1 if rng.random() < p_one else 0
    _, collapsed = collapse_qubit(state, qubit, outcome)
    return outcome, collapsed


class RegisterLaw(NamedTuple):
    """A register's Born law, ready for draws.

    cumulative holds the cumulative masses in register-value order and
    outcomes[i] is the register value at position i; clamp is the last
    position a draw may return, so a draw at or above the total mass (which
    rounding can leave below 1) lands on a value of nonzero mass. The
    fields are arrays, or lists after as_lists.
    """

    cumulative: Sequence[float]
    outcomes: Sequence[int]
    clamp: int

    def draw(self, u: float) -> int:
        """The value at which the cumulative mass first exceeds u."""
        return int(self.outcomes[min(bisect_right(self.cumulative, u), self.clamp)])

    def as_lists(self) -> RegisterLaw:
        """The same law on lists, whose draws skip numpy's per-element cost."""
        return RegisterLaw(
            np.asarray(self.cumulative).tolist(),
            np.asarray(self.outcomes).tolist(),
            self.clamp,
        )


def register_law(state: StateVector, register: str | Register) -> RegisterLaw:
    """The Born law that measure_register draws one outcome from.

    Sparse: clamped at the last support entry. Dense: clamped at the last
    register value of nonzero mass.
    """
    reg = _register(state, register)
    if state.mode == "dense":
        amps = _blocks(state._amps, reg.offset, reg.width)
        blocks = np.empty(amps.shape)

        def square(part):
            masses = blocks[part]
            np.abs(amps[part], out=masses)
            masses **= 2

        _split(square, blocks)
        marginal = blocks.sum(axis=(0, 2))
        return RegisterLaw(
            np.cumsum(marginal),
            np.arange(marginal.size),
            int(np.flatnonzero(marginal)[-1]),
        )
    idx, amps = state._idx, state._amps
    values = (idx & reg.mask) >> reg.offset
    if not _sorted_under(idx, reg.mask):
        order = np.argsort(values, kind="stable")
        values, amps = values[order], amps[order]
    return RegisterLaw(np.cumsum(np.abs(amps) ** 2), values, idx.size - 1)


def collapse_register(
    state: StateVector, register: str | Register, value: int
) -> tuple[float, StateVector]:
    """Project a register onto a value and renormalize.

    Returns (outcome probability, collapsed state). Collapsing onto a
    zero-probability value is an error.
    """
    reg = _register(state, register)
    return _project(state, reg.mask, value << reg.offset)


def measure_register(
    state: StateVector, register: str | Register, rng
) -> tuple[str, StateVector]:
    """Born-rule measurement of a whole register: one draw from register_law.

    Returns (bit string, collapsed state); the string is written with the
    register's first qubit leftmost, matching the pattern convention. The
    outcome is the register value, in increasing order, at which the
    cumulative mass first exceeds one uniform draw.
    """
    reg = _register(state, register)
    chosen = register_law(state, reg).draw(rng.random())
    _, collapsed = collapse_register(state, reg, chosen)
    return str(BitPattern(chosen, reg.width)), collapsed


def reflect_about_state(state: StateVector, axis: StateVector) -> StateVector:
    """Reflection 2 <axis|state> axis - state; unitary when axis is normalized."""
    if state.layout != axis.layout:
        raise DimensionError("layout mismatch between state and reflection axis")
    axis = axis.to_mode(state.mode)
    coeff = 2.0 * inner_product(axis, state)
    support = axis._idx
    if state.mode == "dense":
        along, start = axis._amps, state._amps
    else:
        if not (
            state._idx is support
            or np.array_equal(support, state._idx)
            or _lookup(support, state._idx)[1].all()
        ):
            # The state reaches outside the axis support (amplification
            # never does: each round keeps part of the axis support), so
            # merge the two.
            support = np.union1d(support, state._idx)
        along = _gather(axis._idx, axis._amps, support)
        start = _gather(state._idx, state._amps, support)
    amps = np.empty_like(start)

    def step(part):
        np.multiply(coeff, along[part], out=amps[part])
        np.subtract(amps[part], start[part], out=amps[part])

    _split(step, amps)
    if support is None:
        return StateVector._wrap(state.layout, None, amps)
    return _nonzero(state.layout, support, amps)


def good_control(control: Register, branch: int) -> int:
    """The control value of branch's good subspace: every qubit reads branch."""
    if branch not in (0, 1):
        raise ValueError("branch must be 0 or 1")
    return control.mask >> control.offset if branch else 0


def reflect_good_subspace(state: StateVector, branch: int) -> StateVector:
    """Negate amplitudes whose control register is all-0 (branch 0) or all-1 (branch 1)."""
    reg = state.layout.control
    target = good_control(reg, branch) << reg.offset
    out = np.empty_like(state._amps)
    _split(lambda part: np.copyto(out[part], state._amps[part]), out)
    view, key = _select(out, state._idx, reg.mask, target)
    view[key] = -view[key]
    return StateVector._wrap(state.layout, state._idx, out)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> with the first argument conjugated."""
    if a.layout != b.layout:
        raise DimensionError("layout mismatch in inner product")
    if a.mode == "dense" and b.mode == "dense":
        return _vdot(a._amps, b._amps)
    (ia, aa), (ib, ab) = a.arrays(), b.arrays()
    if ia.size <= ib.size:
        return _vdot(aa, _gather(ib, ab, ia))
    return _vdot(_gather(ia, aa, ib), ab)
