"""Memory-state construction, overlap, and the mirror-cloning transformation.

The memory state is the uniform superposition of the stored patterns on
the layout's memory register; the mirror state superposes their bitwise
complements. The cloning map produces a copy of the memory state or of
its mirror, flagged by an ancilla qubit, with branch weights gamma and
gamma_bar. Whether that map extends to a unitary is decided by comparing
the Gram matrices of its input and output state pairs, which pins the
efficiencies to gamma + gamma_bar = 1 and sqrt(gamma*gamma_bar) = 1/(2s)
for overlap s = <M|Mbar>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularOverlapError
from .patterns import PatternSet, check_width, mirror_set
from .statevector import RegisterLayout, StateVector

GRAM_TOLERANCE = 1e-10


@dataclass(frozen=True)
class CloningSolution:
    """Efficiency pair solving the cloning constraint, or an infeasibility verdict."""

    overlap: float
    gamma: float
    gamma_bar: float
    feasible: bool
    diagnostic: str


@dataclass(frozen=True)
class GramCheck:
    """Entrywise comparison of the input and output Gram matrices."""

    passed: bool
    overlap: float
    input_matrix: np.ndarray
    output_matrix: np.ndarray
    residual: np.ndarray
    max_residual: float


@dataclass(frozen=True)
class CloneResult:
    """Cloning-map image plus its norm, as the built state computes it."""

    state: StateVector
    norm: float


def check_branch_weights(gamma: float, gamma_bar: float) -> None:
    """Refuse branch weights that are not finite or are negative.

    Also refuse a pair whose sum misses 1 by more than 1e-12.
    """
    if not (math.isfinite(gamma) and math.isfinite(gamma_bar)):
        raise ValueError(f"branch weights must be finite, got {gamma!r}, {gamma_bar!r}")
    if gamma < 0 or gamma_bar < 0:
        raise ValueError("branch weights must be nonnegative")
    if abs(gamma + gamma_bar - 1.0) > 1e-12:
        raise ValueError(f"gamma + gamma_bar must be 1, got {gamma + gamma_bar!r}")


def build_memory_state(
    patterns: PatternSet, layout: RegisterLayout | None = None, mode: str = "sparse"
) -> StateVector:
    """Uniform superposition of the stored patterns on the memory register.

    All other registers of the layout are left in their all-zero basis
    state.
    """
    if layout is None:
        layout = RegisterLayout.memory_only(patterns.n)
    mem = layout.memory
    check_width(patterns.n, memory=mem.width)
    words = np.array(patterns.values, dtype=np.int64) << mem.offset
    amps = np.full(patterns.p, 1.0 / math.sqrt(patterns.p))
    return StateVector.from_arrays(layout, words, amps, mode=mode)


def build_mirror_state(
    patterns: PatternSet, layout: RegisterLayout | None = None, mode: str = "sparse"
) -> StateVector:
    """Uniform superposition of the bitwise-complemented patterns."""
    return build_memory_state(mirror_set(patterns), layout, mode)


def memory_overlap(patterns: PatternSet) -> float:
    """Overlap of memory and mirror states: complement-paired fraction of the set.

    Equals the inner product of the built states; computed combinatorially
    as |{i : mirror(p_i) stored}| / p, which is exact at any size.
    """
    stored = set(patterns.values)
    return len(stored.intersection(mirror_set(patterns).values)) / patterns.p


def solve_efficiencies(s: float) -> CloningSolution:
    """Solve gamma + gamma_bar = 1 with sqrt(gamma * gamma_bar) = 1/(2s).

    The product constraint gives gamma * (1 - gamma) = 1/(4 s^2), which has
    real roots only when the discriminant 1 - 1/s^2 is nonnegative; within
    s in [0, 1] that happens only at s = 1, where both roots coincide at
    1/2. Infeasibility is reported as a value because probing the boundary
    is a primary use; s = 0 makes the constraint itself undefined and
    raises SingularOverlapError.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"overlap must lie in [0, 1], got {s}")
    if s == 0.0:
        raise SingularOverlapError(
            "overlap is 0: the efficiency constraint sqrt(gamma*gamma_bar) = 1/(2s)"
            " divides by zero"
        )
    discriminant = 1.0 - 1.0 / (s * s)
    if discriminant < 0.0:
        product = 1.0 / (4.0 * s * s)
        return CloningSolution(
            overlap=s,
            gamma=math.nan,
            gamma_bar=math.nan,
            feasible=False,
            diagnostic=(
                f"no real efficiencies: gamma*(1-gamma) = 1/(4 s^2) = {product:.6g}"
                f" exceeds the maximum 1/4 (discriminant {discriminant:.6g} < 0)"
            ),
        )
    root = math.sqrt(discriminant)
    gamma = 0.5 * (1.0 + root)
    return CloningSolution(
        overlap=s,
        gamma=gamma,
        gamma_bar=1.0 - gamma,
        feasible=True,
        diagnostic="feasible",
    )


def gram_matrices(
    s: float, gamma: float, gamma_bar: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrices of the cloning map's input and output pairs, for real overlap s.

    Input pair {memory, mirror}: [[1, s], [s, 1]]. Output pair, written
    exactly as the map produces it: diagonal gamma + gamma_bar and
    off-diagonal sqrt(gamma*gamma_bar) * (2s) * s; no algebraic
    simplification is assumed.
    """
    if gamma < 0 or gamma_bar < 0:
        raise ValueError("efficiencies must be nonnegative")
    g_in = np.array([[1.0, s], [s, 1.0]])
    off = math.sqrt(gamma * gamma_bar) * (2.0 * s) * s
    diag = gamma + gamma_bar
    g_out = np.array([[diag, off], [off, diag]])
    return g_in, g_out


def gram_residual(s: float, gamma: float, gamma_bar: float) -> GramCheck:
    """Compare the two Gram matrices entrywise at tolerance GRAM_TOLERANCE."""
    g_in, g_out = gram_matrices(s, gamma, gamma_bar)
    residual = g_out - g_in
    max_residual = float(np.max(np.abs(residual)))
    return GramCheck(
        passed=max_residual <= GRAM_TOLERANCE,
        overlap=s,
        input_matrix=g_in,
        output_matrix=g_out,
        residual=residual,
        max_residual=max_residual,
    )


def gram_condition_check(
    patterns: PatternSet, gamma: float, gamma_bar: float
) -> GramCheck:
    """Gram comparison for a concrete pattern set's overlap."""
    return gram_residual(memory_overlap(patterns), gamma, gamma_bar)


def apply_clone(
    source: str,
    patterns: PatternSet,
    gamma: float,
    gamma_bar: float,
    layout: RegisterLayout | None = None,
    mode: str = "sparse",
) -> CloneResult:
    """Construct the cloning-map image of the memory or mirror state.

    source "memory" maps to sqrt(gamma)|M>|M>|0> + sqrt(gamma_bar)|M>|Mbar>|1>;
    source "mirror" maps to sqrt(gamma_bar)|Mbar>|Mbar>|0> + sqrt(gamma)|Mbar>|M>|1>.

    The construction is performed even when no unitary extension exists,
    so the feasibility boundary can be studied directly. The weights are
    checked by check_branch_weights and the state is never renormalized
    (from_arrays refuses a norm off 1); the built state's norm is reported.
    """
    check_branch_weights(gamma, gamma_bar)
    if layout is None:
        layout = RegisterLayout.cloning(patterns.n)
    master, copy_reg, anc = layout.memory, layout.register("copy"), layout.ancilla
    check_width(patterns.n, memory=master.width, copy=copy_reg.width)
    stored = np.array(patterns.values, dtype=np.int64)
    mirrored = np.array(mirror_set(patterns).values, dtype=np.int64)
    if source == "memory":
        first, weights, copies = stored, (gamma, gamma_bar), (stored, mirrored)
    elif source == "mirror":
        first, weights, copies = mirrored, (gamma_bar, gamma), (mirrored, stored)
    else:
        raise ValueError(f"source must be 'memory' or 'mirror', got {source!r}")

    # indices[a, i, j]: ancilla a, master word first[i], copy word copies[a][j].
    # They are distinct; a zero weight gives zero amplitudes, which the
    # constructor drops.
    indices = (
        (np.arange(2)[:, None, None] << anc.offset)
        | (first[:, None] << master.offset)
        | (np.stack(copies)[:, None, :] << copy_reg.offset)
    )
    amps = np.repeat(np.sqrt(weights) / patterns.p, patterns.p**2)
    state = StateVector.from_arrays(layout, indices, amps, mode=mode)
    return CloneResult(state=state, norm=state.norm())
