import math

import pytest

from mirrorqam.errors import DimensionError, SingularOverlapError
from mirrorqam.memory import (
    GRAM_TOLERANCE,
    apply_clone,
    build_memory_state,
    build_mirror_state,
    gram_condition_check,
    gram_matrices,
    gram_residual,
    memory_overlap,
    solve_efficiencies,
)
from mirrorqam.patterns import BitPattern, PatternSet, mirror_set, random_pattern_set
from mirrorqam.retrieval import GammaMode, prepare_initial
from mirrorqam.statevector import RegisterLayout, inner_product

from conftest import random_instance
from oracles import encode, probability_of_subspace


def ps(*words):
    return PatternSet.from_strings(words)


# Sets realizing specific overlaps: the paired-pattern count is always even,
# so s = 2m/p needs p patterns with m complement pairs.
SET_S_ONE = ps("00", "11")
SET_S_TWO_THIRDS = ps("000", "111", "001")
SET_S_HALF = ps("000", "111", "001", "010")
SET_S_QUARTER = ps("0000", "1111", "0001", "0010", "0100", "1000", "0011", "0101")


class TestBuildStates:
    def test_single_pattern(self):
        st = build_memory_state(ps("0"))
        assert abs(st.amplitude(0) - 1.0) < 1e-15

    def test_uniform_superposition(self):
        st = build_memory_state(SET_S_ONE)
        assert abs(st.amplitude(0b00) - 1 / math.sqrt(2)) < 1e-15
        assert abs(st.amplitude(0b11) - 1 / math.sqrt(2)) < 1e-15

    def test_norm_on_random_sets(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 11))
            p = min(50, 2**n, int(rng.integers(2, 51)))
            st = build_memory_state(random_pattern_set(n, p, rng))
            assert abs(st.norm() - 1.0) < 1e-12

    def test_mirror_singleton(self):
        st = build_mirror_state(ps("00"))
        assert abs(st.amplitude(0b11) - 1.0) < 1e-15

    def test_mirror_of_complement_closed_set_is_same_state(self):
        a = build_memory_state(SET_S_ONE)
        assert build_mirror_state(SET_S_ONE).allclose(a, 0.0)

    def test_mirror_norm(self):
        assert abs(build_mirror_state(SET_S_TWO_THIRDS).norm() - 1.0) < 1e-15

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            build_memory_state(ps("00"), RegisterLayout.memory_only(3))

    def test_other_registers_left_blank(self):
        lay = RegisterLayout.retrieval(2, 2)
        st = build_memory_state(SET_S_ONE, lay)
        for index, _ in st.items():
            assert index & ~lay.memory.mask == 0


class TestMemoryOverlap:
    def test_complement_closed(self):
        assert memory_overlap(SET_S_ONE) == 1.0

    def test_no_complements(self):
        assert memory_overlap(ps("00")) == 0.0

    def test_partial_pairing(self):
        assert memory_overlap(SET_S_TWO_THIRDS) == pytest.approx(2 / 3)
        assert memory_overlap(SET_S_HALF) == pytest.approx(0.5)
        assert memory_overlap(SET_S_QUARTER) == pytest.approx(0.25)

    def test_equals_inner_product_of_built_states(self, rng):
        # Dual route: combinatorial count vs simulated <M|Mbar>.
        for _ in range(20):
            patterns, _, _ = random_instance(rng)
            s = memory_overlap(patterns)
            bra = build_memory_state(patterns)
            ket = build_mirror_state(patterns)
            assert inner_product(bra, ket) == pytest.approx(s, abs=1e-12)

    def test_mirror_symmetry(self, rng):
        for _ in range(20):
            patterns, _, _ = random_instance(rng)
            assert memory_overlap(patterns) == memory_overlap(mirror_set(patterns))


class TestSolveEfficiencies:
    def test_unit_overlap_is_feasible_symmetric(self):
        sol = solve_efficiencies(1.0)
        assert sol.feasible
        assert sol.gamma == pytest.approx(0.5) and sol.gamma_bar == pytest.approx(0.5)
        assert abs(sol.gamma + sol.gamma_bar - 1.0) <= 1e-12
        assert abs(math.sqrt(sol.gamma * sol.gamma_bar) * 2 * 1.0 - 1.0) <= 1e-12

    def test_zero_overlap_is_singular(self):
        with pytest.raises(SingularOverlapError):
            solve_efficiencies(0.0)

    def test_half_overlap_is_infeasible(self):
        sol = solve_efficiencies(0.5)
        assert not sol.feasible
        assert "discriminant" in sol.diagnostic
        assert math.isnan(sol.gamma)

    def test_out_of_range_overlap(self):
        with pytest.raises(ValueError):
            solve_efficiencies(1.5)
        with pytest.raises(ValueError):
            solve_efficiencies(-0.1)

    def test_infeasible_on_grid(self):
        for step in range(1, 20):
            assert not solve_efficiencies(step * 0.05).feasible


class TestGram:
    def test_feasible_point_passes(self):
        check = gram_residual(1.0, 0.5, 0.5)
        assert check.passed and check.max_residual < 1e-12

    def test_asymmetric_efficiencies_fail_at_unit_overlap(self):
        g_in, g_out = gram_matrices(1.0, 0.9, 0.1)
        assert g_out[0, 1] == pytest.approx(0.6)
        check = gram_residual(1.0, 0.9, 0.1)
        assert not check.passed
        assert check.max_residual == pytest.approx(0.4)

    def test_unbalanced_sum_breaks_diagonal(self):
        check = gram_residual(1.0, 0.5, 0.3)
        assert not check.passed
        assert abs(check.residual[0, 0]) > GRAM_TOLERANCE

    def test_on_pattern_sets(self):
        assert gram_condition_check(SET_S_ONE, 0.5, 0.5).passed
        for patterns, s in (
            (SET_S_QUARTER, 0.25),
            (SET_S_HALF, 0.5),
            (SET_S_TWO_THIRDS, 2 / 3),
        ):
            check = gram_condition_check(patterns, 0.5, 0.5)
            assert not check.passed
            # off-diagonal residual is s^2 - s at the symmetric attempt
            assert check.max_residual == pytest.approx(s - s * s)

    def test_matches_solver_feasibility_on_grid(self):
        # The Gram condition holds exactly where the solver reports feasible.
        for step in range(1, 21):
            s = step * 0.05
            sol = solve_efficiencies(s)
            if sol.feasible:
                assert gram_residual(s, sol.gamma, sol.gamma_bar).passed
            else:
                for gamma in (0.1, 0.3, 0.5, 0.7, 0.9):
                    assert not gram_residual(s, gamma, 1 - gamma).passed

    def test_rejects_negative_efficiencies(self):
        with pytest.raises(ValueError):
            gram_matrices(0.5, -0.1, 1.1)


class TestApplyClone:
    def test_complement_closed_set(self):
        # Mirror state equals memory state, so both branches share the copy.
        result = apply_clone("memory", SET_S_ONE, 0.5, 0.5)
        assert result.norm == pytest.approx(1.0, abs=1e-15)
        expect = 1.0 / (2 * math.sqrt(2))
        lay = result.state.layout
        mem, copy_reg, anc = lay.memory, lay.register("copy"), lay.ancilla
        for a in SET_S_ONE:
            for b in SET_S_ONE:
                for anc_val in (0, 1):
                    index = (
                        encode(mem, a.bits)
                        | encode(copy_reg, b.bits)
                        | (anc.mask if anc_val else 0)
                    )
                    assert abs(result.state.amplitude(index) - expect) < 1e-14

    def test_single_pattern(self):
        result = apply_clone("memory", ps("0"), 0.5, 0.5)
        st = result.state
        assert result.norm == pytest.approx(1.0)
        w = 1 / math.sqrt(2)
        assert abs(st.amplitude(0b000) - w) < 1e-15  # |0>|0>|0>
        assert abs(st.amplitude(0b110) - w) < 1e-15  # |0>|1>|1>

    def test_branch_probabilities_match_efficiencies(self):
        gamma = 0.3
        result = apply_clone("memory", SET_S_ONE, gamma, 1 - gamma)
        anc = result.state.layout.ancilla
        p0 = probability_of_subspace(result.state, lambda i: not i & anc.mask)
        assert p0 == pytest.approx(gamma, abs=1e-12)

    def test_output_inner_product_matches_overlap_when_feasible(self):
        out_m = apply_clone("memory", SET_S_ONE, 0.5, 0.5).state
        out_mbar = apply_clone("mirror", SET_S_ONE, 0.5, 0.5).state
        s = memory_overlap(SET_S_ONE)
        assert inner_product(out_m, out_mbar) == pytest.approx(s, abs=1e-12)

    def test_infeasible_regime_still_constructs(self):
        result = apply_clone("memory", SET_S_TWO_THIRDS, 0.5, 0.5)
        assert result.norm == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValueError, match="must be 1"):
            apply_clone("memory", SET_S_ONE, 0.6, 0.6)

    def test_every_caller_shares_the_branch_weight_check(self):
        layout = RegisterLayout.retrieval(2, 1)
        callers = (
            lambda g, gb: GammaMode.fixed(g, gb),
            lambda g, gb: prepare_initial(
                BitPattern.from_string("00"), SET_S_ONE, g, gb, layout
            ),
            lambda g, gb: apply_clone("memory", SET_S_ONE, g, gb),
        )
        for call in callers:
            call(0.5, 0.5 + 1e-13)
            with pytest.raises(ValueError, match="must be 1"):
                call(0.5, 0.5 + 1e-11)
            with pytest.raises(ValueError, match="nonnegative"):
                call(-0.25, 1.25)
            # NaN fails every comparison, so only an explicit check sees it.
            for bad in ((math.nan, math.nan), (0.5, math.nan), (math.inf, -math.inf)):
                with pytest.raises(ValueError, match="finite"):
                    call(*bad)

    def test_rejects_unknown_source(self):
        with pytest.raises(ValueError, match="source"):
            apply_clone("copy", SET_S_ONE, 0.5, 0.5)

    def test_gamma_one_drops_mirror_branch(self):
        result = apply_clone("memory", ps("01"), 1.0, 0.0)
        anc = result.state.layout.ancilla
        assert probability_of_subspace(
            result.state, lambda i: bool(i & anc.mask)
        ) == 0.0
