import math

import numpy as np
import pytest

from mirrorqam.errors import (
    DimensionError,
    InfeasibleCloningError,
    SingularOverlapError,
    ZeroMassError,
)
from mirrorqam import retrieval
from mirrorqam.patterns import BitPattern, PatternSet
from mirrorqam.retrieval import (
    AmplificationMode,
    GammaMode,
    RetrievalConfig,
    amplified_success_probability,
    amplitude_amplify,
    analytic_distribution,
    apply_control_rotations,
    apply_difference_encoding,
    complexity_estimate,
    complexity_uniform_approx,
    cos_power_average,
    estimate_iterations,
    good_subspace_probability,
    grover_baseline,
    optimal_iterations,
    prepare_initial,
    resolve_gamma,
    retrieve,
    run_pipeline,
    run_retrieval,
    simulate_distribution,
    undo_difference_encoding,
)
from mirrorqam.statevector import (
    RegisterLayout,
    StateVector,
    collapse_qubit,
    probability_of_subspace,
)

from conftest import random_instance
from oracles import mirror_branch_conditional, quadrature_cos_power_average, tv_distance


def ps(*words):
    return PatternSet.from_strings(words)


def bp(text):
    return BitPattern.from_string(text)


class TestConfigTypes:
    def test_gamma_mode_parse(self):
        assert GammaMode.parse("memory-only").kind == "memory-only"
        assert GammaMode.parse("cloning").kind == "cloning"
        fixed = GammaMode.parse("fixed:0.3")
        assert fixed.gamma == pytest.approx(0.3)
        assert fixed.gamma_bar == pytest.approx(0.7)
        with pytest.raises(ValueError):
            GammaMode.parse("bogus")

    def test_fixed_gamma_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GammaMode("fixed", 0.5, 0.6)

    def test_amp_mode_parse(self):
        assert AmplificationMode.parse("exact").kind == "exact"
        assert AmplificationMode.parse("fixed:3").k == 3
        with pytest.raises(ValueError):
            AmplificationMode.parse("fixed:-1")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RetrievalConfig(b=0)
        with pytest.raises(ValueError):
            RetrievalConfig(b=1, shots=0)
        with pytest.raises(ValueError):
            RetrievalConfig(b=1, representation="tensor")

    def test_resolve_gamma(self):
        assert resolve_gamma(GammaMode.memory_only(), ps("01")) == (1.0, 0.0)
        assert resolve_gamma(GammaMode.cloning(), ps("00", "11")) == (0.5, 0.5)
        with pytest.raises(InfeasibleCloningError):
            resolve_gamma(GammaMode.cloning(), ps("000", "111", "001"))
        with pytest.raises(SingularOverlapError):
            resolve_gamma(GammaMode.cloning(), ps("00"))


class TestPrepareInitial:
    def test_memory_only_is_basis_superposition(self):
        lay = RegisterLayout.retrieval(2, 1)
        st = prepare_initial(bp("00"), ps("01"), 1.0, 0.0, lay)
        assert st.support_size == 1
        assert abs(st.amplitude(0b10) - 1.0) < 1e-15

    def test_balanced_branches(self):
        lay = RegisterLayout.retrieval(2, 1)
        st = prepare_initial(bp("00"), ps("00", "11"), 0.5, 0.5, lay)
        anc = lay.ancilla.mask
        amplitudes = {
            0b00: 0.5,  # |00> memory branch
            0b11: 0.5,  # |11> memory branch
            0b11 | anc: 0.5,  # mirror of 00
            0b00 | anc: 0.5,  # mirror of 11
        }
        assert st.support_size == 4
        for index, expect in amplitudes.items():
            assert abs(st.amplitude(index) - expect) < 1e-15

    def test_norm_is_one(self, rng):
        for _ in range(10):
            patterns, inp, b = random_instance(rng)
            lay = RegisterLayout.retrieval(patterns.n, b)
            gamma = float(rng.uniform(0, 1))
            st = prepare_initial(inp, patterns, gamma, 1 - gamma, lay)
            assert abs(st.norm() - 1.0) < 1e-12

    def test_width_and_weight_validation(self):
        lay = RegisterLayout.retrieval(2, 1)
        with pytest.raises(DimensionError):
            prepare_initial(bp("000"), ps("00"), 1.0, 0.0, lay)
        with pytest.raises(ValueError):
            prepare_initial(bp("00"), ps("00"), 0.7, 0.7, lay)


class TestDifferenceEncoding:
    def test_all_agree(self):
        lay = RegisterLayout.retrieval(2, 1)
        st = StateVector.basis_state(lay, 0b00)
        got = apply_difference_encoding(st, bp("00"))
        assert abs(got.amplitude(0b11) - 1.0) < 1e-15

    def test_partial_agreement(self):
        # input 01 vs memory 00: first bit agrees, second differs -> 10
        lay = RegisterLayout.retrieval(2, 1)
        st = StateVector.basis_state(lay, 0b00)
        got = apply_difference_encoding(st, bp("01"))
        assert abs(got.amplitude(lay.memory.encode((1, 0))) - 1.0) < 1e-15

    def test_round_trip_is_exact_identity(self, rng):
        for _ in range(20):
            patterns, inp, b = random_instance(rng, n_hi=6)
            lay = RegisterLayout.retrieval(patterns.n, b)
            st = prepare_initial(inp, patterns, 0.5, 0.5, lay)
            back = undo_difference_encoding(
                apply_difference_encoding(st, inp), inp
            )
            assert back.as_dict() == st.as_dict()


class TestControlRotations:
    def test_exact_match_leaves_controls_clear(self):
        for b in (1, 2, 3):
            patterns = ps("0110")
            st = run_pipeline(bp("0110"), patterns, 1.0, 0.0, b)
            lay = st.layout
            index = lay.memory.encode((0, 1, 1, 0))
            assert abs(st.amplitude(index) - 1.0) < 1e-12
            assert st.support_size == 1

    def test_distance_one_single_qubit(self):
        # n=1, b=1, stored pattern at distance 1: control becomes i|1>
        st = run_pipeline(bp("1"), ps("0"), 1.0, 0.0, 1)
        lay = st.layout
        index = lay.memory.encode((0,)) | lay.control.mask
        assert abs(st.amplitude(index) - 1j) < 1e-14

    def test_rotation_acts_after_encoding(self):
        # Rotations read zero counts of the encoded word, so applying them
        # to an un-encoded exact match must not leave controls clear.
        lay = RegisterLayout.retrieval(2, 1)
        st = prepare_initial(bp("00"), ps("00"), 1.0, 0.0, lay)
        rotated = apply_control_rotations(st)
        assert good_subspace_probability(rotated, 0) < 1.0


class TestAnalyticDistribution:
    def test_two_complement_patterns(self):
        dist = analytic_distribution(bp("00"), ps("00", "11"), 1)
        assert dist.unnormalized[bp("00")] == pytest.approx(0.5)
        assert dist.unnormalized[bp("11")] == 0.0
        assert dist.conditional[bp("00")] == pytest.approx(1.0)

    def test_known_values_b2(self):
        dist = analytic_distribution(bp("00"), ps("00", "01"), 2)
        assert dist.unnormalized[bp("00")] == pytest.approx(0.5)
        assert dist.unnormalized[bp("01")] == pytest.approx(0.125)
        assert dist.conditional[bp("00")] == pytest.approx(0.8)
        assert dist.conditional[bp("01")] == pytest.approx(0.2)

    def test_single_pattern_exact_match(self):
        for b in (1, 3, 7):
            dist = analytic_distribution(bp("101"), ps("101"), b)
            assert dist.conditional[bp("101")] == pytest.approx(1.0)
            assert dist.good_mass == pytest.approx(1.0)

    def test_conditional_sums_to_one(self, rng):
        for _ in range(20):
            patterns, inp, b = random_instance(rng)
            try:
                dist = analytic_distribution(inp, patterns, b)
            except ZeroMassError:
                continue
            assert abs(sum(dist.conditional.values()) - 1.0) <= 1e-12

    def test_zero_mass_raises(self):
        with pytest.raises(ZeroMassError):
            analytic_distribution(bp("00"), ps("11"), 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            analytic_distribution(bp("0"), ps("00"), 1)


class TestOracleEquivalence:
    def test_joint_probabilities_match_law(self, rng):
        # Simulated joint (ancilla, good controls, pattern) probabilities
        # against the closed-form branch law, both branches.
        for _ in range(50):
            patterns, inp, b = random_instance(rng)
            gamma = float(rng.uniform(0.1, 0.9))
            st = run_pipeline(inp, patterns, gamma, 1 - gamma, b)
            lay = st.layout
            mem, ctrl, anc = lay.memory, lay.control, lay.ancilla
            n, p = patterns.n, patterns.p
            for q in patterns:
                d = sum(x != y for x, y in zip(inp.bits, q.bits))
                weight = (
                    0.0 if d == n else math.cos(math.pi * d / (2 * n)) ** (2 * b)
                )
                index0 = mem.encode(q.bits)
                got0 = probability_of_subspace(st, lambda i: i == index0)
                assert abs(got0 - gamma * weight / p) <= 1e-10
                index1 = mem.encode(q.mirror().bits) | ctrl.mask | anc.mask
                got1 = probability_of_subspace(st, lambda i: i == index1)
                assert abs(got1 - (1 - gamma) * weight / p) <= 1e-10

    def test_pre_measurement_good_mass_carries_branch_weight(self, rng):
        # On the full pre-measurement state, (ancilla 0, controls all-0)
        # carries gamma times the analytic good mass.
        for _ in range(10):
            patterns, inp, b = random_instance(rng)
            try:
                dist = analytic_distribution(inp, patterns, b)
            except ZeroMassError:
                continue
            gamma = float(rng.uniform(0.1, 0.9))
            st = run_pipeline(inp, patterns, gamma, 1 - gamma, b)
            ctrl, anc = st.layout.control, st.layout.ancilla
            got = probability_of_subspace(
                st, lambda i: (i & ctrl.mask) == 0 and not i & anc.mask
            )
            assert got == pytest.approx(gamma * dist.good_mass, abs=1e-12)

    def test_good_subspace_mass_matches_analytic(self, rng):
        for _ in range(50):
            patterns, inp, b = random_instance(rng)
            try:
                dist = analytic_distribution(inp, patterns, b)
            except ZeroMassError:
                continue
            st = run_pipeline(inp, patterns, 0.5, 0.5, b)
            for branch in (0, 1):
                _, collapsed = collapse_qubit(st, st.layout.ancilla.offset, branch)
                mass = good_subspace_probability(collapsed, branch)
                assert abs(mass - dist.good_mass) <= 1e-12

    def test_branch_masses_are_equal(self, rng):
        for _ in range(10):
            patterns, inp, b = random_instance(rng)
            st = run_pipeline(inp, patterns, 0.5, 0.5, b)
            _, c0 = collapse_qubit(st, st.layout.ancilla.offset, 0)
            _, c1 = collapse_qubit(st, st.layout.ancilla.offset, 1)
            assert abs(
                good_subspace_probability(c0, 0) - good_subspace_probability(c1, 1)
            ) <= 1e-12

    def test_single_pattern_exact_match_mass_is_one(self):
        st = run_pipeline(bp("010"), ps("010"), 1.0, 0.0, 2)
        _, collapsed = collapse_qubit(st, st.layout.ancilla.offset, 0)
        assert good_subspace_probability(collapsed, 0) == pytest.approx(1.0)

    def test_branch_equivalence_analytic(self, rng):
        # Mirror-corrected branch-1 law via the sine route equals branch 0.
        for _ in range(25):
            patterns, inp, b = random_instance(rng)
            try:
                cond0 = analytic_distribution(inp, patterns, b).conditional
            except ZeroMassError:
                continue
            cond1 = mirror_branch_conditional(inp, patterns, b)
            for q in patterns:
                assert abs(cond0[q] - cond1[q]) <= 1e-12

    def test_sparse_support_bound(self, rng):
        for _ in range(10):
            patterns, inp, b = random_instance(rng)
            bound = 2 * patterns.p * 2**b
            lay = RegisterLayout.retrieval(patterns.n, b)
            st = prepare_initial(inp, patterns, 0.5, 0.5, lay)
            assert st.support_size <= bound
            st = apply_difference_encoding(st, inp)
            assert st.support_size <= bound
            st = apply_control_rotations(st)
            assert st.support_size <= bound
            st = undo_difference_encoding(st, inp)
            assert st.support_size <= bound


class TestAmplificationSchedule:
    def test_certain_success_needs_no_rounds(self):
        assert optimal_iterations(1.0) == 0

    def test_quarter_mass_needs_one_round(self):
        assert optimal_iterations(0.25) == 1
        assert amplified_success_probability(0.25, 1) == pytest.approx(1.0)

    def test_half_mass_floor_rule(self):
        k = optimal_iterations(0.5)
        assert k in (0, 1)
        assert amplified_success_probability(0.5, k) == pytest.approx(0.5)

    def test_zero_mass(self):
        with pytest.raises(ZeroMassError):
            optimal_iterations(0.0)

    def test_estimate_schedule_varies_plus_minus_two(self):
        base = max(0, round(complexity_uniform_approx(4)))
        got = [estimate_iterations(4, r) for r in range(5)]
        assert got == [
            max(0, base + off) for off in (0, 1, -1, 2, -2)
        ]


class TestAmplitudeAmplify:
    def test_zero_rounds_is_identity(self):
        st = run_pipeline(bp("00"), ps("00", "01"), 1.0, 0.0, 2)
        assert amplitude_amplify(st, 0, 0) is st

    def test_exact_quarter_reaches_certainty(self):
        # Synthetic state with good mass exactly 1/4.
        lay = RegisterLayout.retrieval(1, 2)
        good = lay.memory.encode((1,))  # controls all-0
        bad = good | lay.control.encode((1, 0))
        st = StateVector.from_amplitudes(lay, {good: 0.5, bad: math.sqrt(0.75)})
        assert good_subspace_probability(st, 0) == pytest.approx(0.25)
        amplified = amplitude_amplify(st, 0, 1)
        assert good_subspace_probability(amplified, 0) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_follows_sine_law_up_to_k20(self, rng):
        for _ in range(5):
            patterns, inp, b = random_instance(rng)
            try:
                analytic_distribution(inp, patterns, b)
            except ZeroMassError:
                continue
            st = run_pipeline(inp, patterns, 1.0, 0.0, b)
            _, collapsed = collapse_qubit(st, st.layout.ancilla.offset, 0)
            p_good = good_subspace_probability(collapsed, 0)
            theta = math.asin(math.sqrt(min(p_good, 1.0)))
            for k in range(1, 21):
                amplified = amplitude_amplify(collapsed, 0, k)
                got = good_subspace_probability(amplified, 0)
                assert abs(got - math.sin((2 * k + 1) * theta) ** 2) <= 1e-9
                assert abs(amplified.norm() - 1.0) <= 1e-10


class TestRetrieve:
    def test_single_pattern_exact_match(self):
        config = RetrievalConfig(b=2, seed=5)
        outcome = retrieve(bp("0110"), ps("0110"), config)
        assert outcome.succeeded
        assert outcome.output_pattern == bp("0110")
        assert outcome.amplification_iterations == 0
        assert outcome.ancilla_branch == 0
        assert outcome.good_probability_before == pytest.approx(1.0)

    def test_complement_pair_returns_input(self):
        # Good mass is 0.5 here, so single rounds may fail; every success
        # must return 00 (its conditional probability is 1).
        config = RetrievalConfig(b=1, seed=1)
        run = run_retrieval(bp("00"), ps("00", "11"), config, max_rounds=50)
        assert run.outcome is not None
        assert run.outcome.output_pattern == bp("00")

    def test_mirror_branch_outputs_are_corrected(self):
        # Pure mirror branch: raw patterns are complements of stored ones.
        config = RetrievalConfig(
            b=2, gamma_mode=GammaMode.fixed(0.0), seed=17
        )
        patterns = ps("0011", "0101", "0110")
        rng = np.random.default_rng(17)
        for _ in range(20):
            outcome = retrieve(bp("0011"), patterns, config, rng)
            assert outcome.ancilla_branch == 1
            if outcome.succeeded:
                assert outcome.raw_pattern == outcome.output_pattern.mirror()
                assert outcome.output_pattern in patterns

    def test_zero_mass_raises(self):
        with pytest.raises(ZeroMassError):
            retrieve(bp("00"), ps("11"), RetrievalConfig(b=1, seed=0))

    def test_cloning_mode_requires_feasible_memory(self):
        config = RetrievalConfig(b=1, gamma_mode=GammaMode.cloning(), seed=0)
        with pytest.raises(InfeasibleCloningError):
            retrieve(bp("000"), ps("000", "111", "001"), config)
        outcome = retrieve(bp("00"), ps("00", "11"), config)
        assert outcome.ancilla_branch in (0, 1)

    def test_run_retrieval_retries_until_success(self):
        config = RetrievalConfig(
            b=1, amplification_mode=AmplificationMode.fixed(0), seed=23
        )
        run = run_retrieval(bp("00"), ps("01", "10"), config, max_rounds=50)
        assert run.outcome is not None
        assert run.failed_rounds == len(run.rounds) - 1

    def test_run_retrieval_respects_budget(self):
        # Good mass 0.5 with k forced to leave it there; some seed fails twice.
        config = RetrievalConfig(
            b=1, amplification_mode=AmplificationMode.fixed(0), seed=2
        )
        run = run_retrieval(bp("00"), ps("01", "10"), config, max_rounds=2)
        assert len(run.rounds) <= 2

    def test_run_retrieval_runs_the_pipeline_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return run_pipeline(*args, **kwargs)

        monkeypatch.setattr(retrieval, "run_pipeline", counted)
        config = RetrievalConfig(
            b=1, amplification_mode=AmplificationMode.fixed(0), seed=8
        )
        run = run_retrieval(bp("00"), ps("01", "10"), config, max_rounds=50)
        assert len(run.rounds) == 3
        assert len(calls) == 1

    def test_run_retrieval_rounds_equal_independent_rounds(self):
        # Reusing the pipeline state draws nothing from the rng, so the
        # rounds equal retrieve calls that each recompute the pipeline.
        config = RetrievalConfig(
            b=2,
            gamma_mode=GammaMode.fixed(0.5),
            amplification_mode=AmplificationMode.estimate(),
        )
        patterns, x = ps("0011", "0101", "0110", "1100"), bp("0111")
        run = run_retrieval(x, patterns, config, rng=np.random.default_rng(5))
        rng = np.random.default_rng(5)
        expect = [
            retrieve(x, patterns, config, rng, round_index=index)
            for index in range(len(run.rounds))
        ]
        assert len(run.rounds) == 5
        assert list(run.rounds) == expect


class TestSimulateDistribution:
    def test_matches_analytic_within_tv(self, rng):
        for _ in range(10):
            patterns, inp, b = random_instance(rng)
            try:
                analytic_distribution(inp, patterns, b)
            except ZeroMassError:
                continue
            config = RetrievalConfig(
                b=b,
                gamma_mode=GammaMode.fixed(0.5),
                shots=100_000,
                seed=int(rng.integers(0, 2**31)),
            )
            report = simulate_distribution(inp, patterns, config)
            assert report.total_variation_distance < 0.01

    def test_counts_are_exact(self, rng):
        patterns, inp = ps("000", "011", "101"), bp("000")
        config = RetrievalConfig(b=2, shots=5000, seed=3)
        report = simulate_distribution(inp, patterns, config)
        assert sum(report.empirical_counts.values()) == report.successes
        assert report.successes + report.failed_rounds == report.shots
        assert sum(report.branch_shots.values()) == report.shots

    def test_strict_and_bulk_paths_agree_in_distribution(self):
        patterns, inp = ps("00", "01"), bp("00")
        config = RetrievalConfig(b=2, shots=4000, seed=11)
        bulk = simulate_distribution(inp, patterns, config)
        strict = simulate_distribution(inp, patterns, config, strict=True)
        assert tv_distance(bulk.empirical, strict.empirical) < 0.05
        assert strict.successes + strict.failed_rounds == strict.shots

    def test_strict_is_reproducible(self):
        patterns, inp = ps("000", "110"), bp("010")
        config = RetrievalConfig(b=1, shots=500, seed=7)
        a = simulate_distribution(inp, patterns, config, strict=True)
        b = simulate_distribution(inp, patterns, config, strict=True)
        assert a.empirical_counts == b.empirical_counts
        assert a.failed_rounds == b.failed_rounds

    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    @pytest.mark.parametrize("strict", [False, True])
    def test_successes_by_branch_sum_to_successes(self, mode, strict):
        config = RetrievalConfig(
            b=2, gamma_mode=GammaMode.fixed(0.5), shots=2000, seed=17,
            representation=mode,
        )
        report = simulate_distribution(
            bp("000"), ps("000", "011", "101"), config, strict=strict
        )
        by_branch = report.successes_by_branch
        assert sum(by_branch.values()) == report.successes
        for branch in (0, 1):
            assert 0 < by_branch[branch] <= report.branch_shots[branch]

    def test_branch_empiricals_cover_both_branches(self):
        config = RetrievalConfig(
            b=1, gamma_mode=GammaMode.fixed(0.5), shots=20_000, seed=13
        )
        report = simulate_distribution(bp("00"), ps("00", "01"), config)
        assert report.branch_shots[0] > 0 and report.branch_shots[1] > 0
        assert tv_distance(
            report.empirical_by_branch[0], report.empirical_by_branch[1]
        ) < 0.05


class TestComplexity:
    def test_exact_match_single_pattern_costs_one(self):
        for b in (1, 2, 8):
            assert complexity_estimate(bp("00"), ps("00"), b) == pytest.approx(1.0)

    def test_known_instance_value(self):
        got = complexity_estimate(bp("00"), ps("00", "01"), 2)
        assert got == pytest.approx(math.sqrt(1.6))
        assert got == pytest.approx(1.2649110640673518)

    def test_zero_mass_reports_infinite_cost(self):
        assert complexity_estimate(bp("00"), ps("11"), 1) == math.inf

    def test_consistency_with_good_mass(self, rng):
        # C^2 times the within-branch good mass is 1.
        for _ in range(20):
            patterns, inp, b = random_instance(rng)
            try:
                dist = analytic_distribution(inp, patterns, b)
            except ZeroMassError:
                continue
            c = complexity_estimate(inp, patterns, b)
            assert abs(c * c * dist.good_mass - 1.0) <= 1e-10

    def test_cos_power_average_values(self):
        assert cos_power_average(0) == 1.0
        assert cos_power_average(1) == 0.5
        assert cos_power_average(2) == 0.375

    def test_cos_power_average_matches_quadrature(self):
        for b in range(0, 31):
            exact = cos_power_average(b)
            numeric = quadrature_cos_power_average(b)
            assert abs(exact - numeric) <= 1e-8 * abs(numeric)

    def test_uniform_approx_values(self):
        assert complexity_uniform_approx(1) == pytest.approx(1.3313353638003897)
        assert complexity_uniform_approx(16) == pytest.approx(2.6626707276007795)

    def test_uniform_approx_converges_to_exact_average_cost(self):
        for b in (64, 100, 256):
            exact = math.sqrt(1.0 / cos_power_average(b))
            approx = complexity_uniform_approx(b)
            assert abs(approx / exact - 1.0) < 0.02

    def test_grover_baseline(self):
        assert grover_baseline(20) == pytest.approx(1024.0)

    def test_grover_baseline_beyond_double_exponent_range(self):
        assert grover_baseline(1023) == math.sqrt(2.0**1023)
        assert grover_baseline(1024) == 2.0**512
        assert grover_baseline(2047) == math.sqrt(2.0) * 2.0**1023
        assert grover_baseline(2048) == math.inf


class TestAccuracyTradeoff:
    def test_nearest_probability_nondecreasing_in_b(self):
        patterns = ps("0000", "1111", "1100", "0011")
        inp = bp("0000")
        previous = 0.0
        best = 0.0
        for b in range(1, 9):
            value = analytic_distribution(inp, patterns, b).conditional[bp("0000")]
            assert value >= previous - 1e-15
            previous = value
            best = max(best, value)
        assert best > 0.99

    def test_monotonicity_on_random_unique_nearest(self, rng):
        for _ in range(10):
            patterns, inp, _ = random_instance(rng)
            distances = sorted(
                sum(x != y for x, y in zip(inp.bits, q.bits)) for q in patterns
            )
            if len(distances) > 1 and distances[0] == distances[1]:
                continue  # nearest pattern not unique
            nearest = min(
                patterns, key=lambda q: sum(x != y for x, y in zip(inp.bits, q.bits))
            )
            previous = 0.0
            for b in range(1, 9):
                try:
                    value = analytic_distribution(inp, patterns, b).conditional[nearest]
                except ZeroMassError:
                    break
                assert value >= previous - 1e-12
                previous = value
