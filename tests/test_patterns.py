import itertools

import pytest

from mirrorqam.errors import DimensionError, PatternParseError
from mirrorqam.memory import apply_clone, build_memory_state
from mirrorqam.patterns import (
    BitPattern,
    PatternSet,
    check_width,
    hamming_distance,
    mirror,
    mirror_set,
    parse_pattern_file,
    random_pattern_set,
)
from mirrorqam.retrieval import (
    analytic_distribution,
    apply_difference_encoding,
    prepare_initial,
)
from mirrorqam.statevector import RegisterLayout, StateVector

from conftest import random_input


def bp(text):
    return BitPattern.from_string(text)


class TestBitPattern:
    def test_round_trip(self):
        assert str(bp("0110")) == "0110"
        assert bp("0110").bits == (0, 1, 1, 0)
        assert bp("0110").n == 4

    def test_rejects_empty_and_nonbinary(self):
        with pytest.raises(ValueError):
            BitPattern.from_string("")
        with pytest.raises(ValueError):
            BitPattern.from_string("01a")
        for value, n in ((4, 2), (-1, 2), (0, 0)):
            with pytest.raises(ValueError):
                BitPattern(value, n)

    def test_word_matches_per_bit_definitions(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 101))
            text, other = ("".join(str(x) for x in rng.integers(0, 2, n)) for _ in "ab")
            a, b = bp(text), bp(other)
            assert a.value == sum(int(c) << j for j, c in enumerate(text))
            assert (str(a), a.n, len(a)) == (text, n, n)
            assert a.bits == tuple(a) == tuple(int(c) for c in text)
            j = int(rng.integers(n))
            assert a[j] == int(text[j])
            assert str(a.mirror()) == "".join("10"[int(c)] for c in text)
            assert hamming_distance(a, b) == sum(x != y for x, y in zip(text, other))

    def test_hashable_and_iterable(self):
        assert len({bp("01"), bp("01"), bp("10")}) == 2
        assert list(bp("10")) == [1, 0]


class TestMirror:
    def test_complement(self):
        assert mirror(bp("010")) == bp("101")

    def test_involution(self):
        for word in ("0", "01", "0110", "11111"):
            assert mirror(mirror(bp(word))) == bp(word)

    def test_all_zeros(self):
        assert mirror(bp("0000")) == bp("1111")


class TestHammingDistance:
    def test_identity(self):
        assert hamming_distance(bp("000"), bp("000")) == 0

    def test_full_complement(self):
        assert hamming_distance(bp("000"), bp("111")) == 3

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            hamming_distance(bp("00"), bp("000"))

    def test_symmetry_and_mirror_identity_exhaustive(self):
        # Every pair for n up to 4.
        for n in (1, 2, 3, 4):
            words = [BitPattern(v, n) for v in range(2**n)]
            for a, b in itertools.product(words, words):
                d = hamming_distance(a, b)
                assert 0 <= d <= n
                assert d == hamming_distance(b, a)
                assert hamming_distance(a, mirror(b)) == n - d
            for a in words:
                assert hamming_distance(a, a) == 0
                assert hamming_distance(a, mirror(a)) == n

    def test_mirror_identity_random_n10(self, rng):
        for _ in range(500):
            a, b = random_input(10, rng), random_input(10, rng)
            assert hamming_distance(a, mirror(b)) == 10 - hamming_distance(a, b)


class TestPatternSet:
    def test_basic_properties(self):
        ps = PatternSet.from_strings(["00", "11"])
        assert ps.n == 2 and ps.p == 2
        assert bp("00") in ps and bp("01") not in ps

    def test_rejects_empty(self):
        with pytest.raises(PatternParseError):
            PatternSet(())

    def test_rejects_mixed_lengths(self):
        with pytest.raises(DimensionError):
            PatternSet.from_strings(["00", "000"])

    def test_rejects_duplicates(self):
        with pytest.raises(PatternParseError):
            PatternSet.from_strings(["01", "01"])


class TestCheckWidth:
    def test_names_the_first_mismatch(self):
        check_width(3, input=3, memory=3)
        with pytest.raises(DimensionError, match="^memory width is 2, the pattern"):
            check_width(3, input=3, memory=2, copy=4)

    def test_every_width_check_refuses_a_mismatch(self):
        # The pattern-length checks of memory and retrieval, one call each.
        patterns = PatternSet.from_strings(["00", "01"])
        layout = RegisterLayout.retrieval(3, 1)
        calls = [
            ("memory", lambda: build_memory_state(patterns, layout)),
            (
                "input",
                lambda: prepare_initial(
                    bp("000"), patterns, 1.0, 0.0, RegisterLayout.retrieval(2, 1)
                ),
            ),
            ("memory", lambda: prepare_initial(bp("00"), patterns, 1.0, 0.0, layout)),
            (
                "input",
                lambda: apply_difference_encoding(
                    StateVector.basis_state(layout), bp("00")
                ),
            ),
            (
                "copy",
                lambda: apply_clone(
                    "memory",
                    patterns,
                    0.5,
                    0.5,
                    RegisterLayout((("memory", 2), ("copy", 3), ("ancilla", 1))),
                ),
            ),
            ("input", lambda: analytic_distribution(bp("0"), patterns, 1)),
        ]
        for name, call in calls:
            with pytest.raises(DimensionError, match=f"^{name} width is"):
                call()


class TestMirrorSet:
    def test_complement_closed_set_is_fixed(self):
        ps = PatternSet.from_strings(["00", "11"])
        assert set(mirror_set(ps).patterns) == set(ps.patterns)

    def test_singleton(self):
        assert mirror_set(PatternSet.from_strings(["00"])).patterns == (bp("11"),)

    def test_elementwise(self):
        got = mirror_set(PatternSet.from_strings(["001", "010"]))
        assert got.patterns == (bp("110"), bp("101"))

    def test_preserves_count(self, rng):
        ps = random_pattern_set(5, 7, rng)
        assert mirror_set(ps).p == ps.p


class TestParsePatternFile:
    def test_plain_file(self):
        ps = parse_pattern_file("00\n11\n")
        assert ps.n == 2 and ps.p == 2

    def test_comments_and_blanks_ignored(self):
        ps = parse_pattern_file("# stored words\n\n01\n  10  \n# done\n")
        assert ps.p == 2 and ps.patterns[0] == bp("01")

    def test_nonbinary_character_reports_line(self):
        with pytest.raises(PatternParseError, match="line 2.*non-binary"):
            parse_pattern_file("00\n0a\n")

    def test_ragged_lengths_reports_line(self):
        with pytest.raises(PatternParseError, match="line 3.*ragged"):
            parse_pattern_file("00\n11\n111\n")

    def test_duplicate_reports_both_lines(self):
        with pytest.raises(PatternParseError, match="line 3.*duplicate.*line 1"):
            parse_pattern_file("01\n10\n01\n")

    def test_empty_input(self):
        with pytest.raises(PatternParseError, match="no patterns"):
            parse_pattern_file("# nothing here\n\n")


class TestRandomPatternSet:
    def test_shape_and_distinctness(self, rng):
        ps = random_pattern_set(6, 20, rng)
        assert ps.n == 6 and ps.p == 20
        assert len(set(ps.patterns)) == 20

    def test_rejects_oversubscription(self, rng):
        with pytest.raises(ValueError):
            random_pattern_set(2, 5, rng)
