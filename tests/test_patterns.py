import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorqam.errors import DimensionError, PatternParseError
from mirrorqam.memory import apply_clone, build_memory_state, memory_overlap
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
    law_distances,
    prepare_initial,
)
from mirrorqam.statevector import RegisterLayout, StateVector

from conftest import random_input


def bp(text):
    return BitPattern.from_string(text)


def word_string(value, n):
    """Character j is bit j of value."""
    return "".join(str((value >> j) & 1) for j in range(n))


def complement(text):
    return "".join("10"[int(c)] for c in text)


@st.composite
def word_sets(draw):
    """(values, n): up to 64 distinct n-bit words, n in 1..70, in drawn order.

    Some complements of the drawn words are appended, so the overlap is
    not almost always 0 at large n.
    """
    n = draw(st.integers(1, 70))
    values = draw(
        st.lists(
            st.integers(0, (1 << n) - 1), min_size=1, max_size=min(32, 1 << n),
            unique=True,
        )
    )
    full = (1 << n) - 1
    values += [v ^ full for v in values if draw(st.booleans())]
    return tuple(dict.fromkeys(values)), n


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
            PatternSet((), 2)
        with pytest.raises(PatternParseError):
            PatternSet.from_strings([])

    def test_holds_its_words_in_order(self):
        ps = PatternSet((2, 0, 3), 2)
        assert (ps.values, ps.n, ps.p, len(ps)) == ((2, 0, 3), 2, 3, 3)
        assert tuple(ps) == (bp("01"), bp("00"), bp("11"))
        assert PatternSet.from_strings(["01", "00", "11"]) == ps
        words = ["0" * 70, "1" * 70, "01" * 35]
        wide = PatternSet.from_strings(words)
        assert wide.values == (0, (1 << 70) - 1, sum(1 << j for j in range(1, 70, 2)))
        assert [str(q) for q in wide] == words

    def test_equality_and_hash_are_those_of_values_and_n(self):
        a, b = PatternSet((1, 2), 2), PatternSet((1, 2), 2)
        assert a == b and hash(a) == hash(b)
        assert a != PatternSet((2, 1), 2) and a != PatternSet((1, 2), 3)

    @pytest.mark.parametrize("values, n", [((4,), 2), ((0, -1), 2), ((0,), 0)])
    def test_rejects_words_outside_n_bits(self, values, n):
        with pytest.raises(ValueError, match=r"\[0, 2\^n\)"):
            PatternSet(values, n)

    def test_rejects_mixed_lengths(self):
        with pytest.raises(DimensionError):
            PatternSet.from_strings(["00", "000"])

    def test_rejects_duplicates(self):
        with pytest.raises(PatternParseError):
            PatternSet.from_strings(["01", "01"])
        with pytest.raises(PatternParseError, match="pairwise distinct"):
            PatternSet((1, 3, 1), 2)


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
        assert set(mirror_set(ps)) == set(ps)

    def test_singleton(self):
        assert tuple(mirror_set(PatternSet.from_strings(["00"]))) == (bp("11"),)

    def test_elementwise(self):
        got = mirror_set(PatternSet.from_strings(["001", "010"]))
        assert tuple(got) == (bp("110"), bp("101"))
        wide = mirror_set(PatternSet.from_strings(["0" * 70, "01" * 35]))
        assert [str(q) for q in wide] == ["1" * 70, "10" * 35]

    def test_preserves_count(self, rng):
        ps = random_pattern_set(5, 7, rng)
        assert mirror_set(ps).p == ps.p


class TestParsePatternFile:
    def test_plain_file(self):
        ps = parse_pattern_file("00\n11\n")
        assert ps.n == 2 and ps.p == 2
        assert parse_pattern_file("11\n00\n10\n") == PatternSet((3, 0, 1), 2)
        words = ["0" * 70, "1" * 70, "01" * 35]
        assert parse_pattern_file("\n".join(words)) == PatternSet.from_strings(words)

    def test_comments_and_blanks_ignored(self):
        ps = parse_pattern_file("# stored words\n\n01\n  10  \n# done\n")
        assert ps.p == 2 and tuple(ps)[0] == bp("01")

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


class TestConstructionPaths:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(word_sets())
    def test_every_path_builds_the_same_set(self, case):
        values, n = case
        strings = [word_string(v, n) for v in values]
        built = PatternSet(values, n)
        paths = (
            built,
            PatternSet.from_strings(strings),
            parse_pattern_file("".join(f"{w}\n" for w in strings)),
        )
        for ps in paths:
            assert ps == built and hash(ps) == hash(built)
            assert (ps.values, ps.n, ps.p) == (values, n, len(values))
            assert list(ps) == [BitPattern(v, n) for v in values]
            assert [str(q) for q in ps] == strings
        mirrored = mirror_set(built)
        assert [str(q) for q in mirrored] == [complement(w) for w in strings]
        assert mirror_set(mirrored) == built
        stored = set(strings)
        paired = sum(complement(w) in stored for w in strings)
        assert memory_overlap(built) == paired / len(strings)

    def test_set_consumers_build_no_bit_pattern(self, rng, monkeypatch):
        # The words are read as ints; only iterating a set builds patterns.
        n, p = 12, 40
        patterns = random_pattern_set(n, p, rng)
        text = "".join(f"{q}\n" for q in patterns)
        x = random_input(n, rng)
        built = []
        check = BitPattern.__post_init__

        def counting(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(BitPattern, "__post_init__", counting)
        parsed = parse_pattern_file(text)
        memory_overlap(parsed)
        law_distances(x, parsed)
        prepare_initial(x, parsed, 0.5, 0.5, RegisterLayout.retrieval(n, 2))
        build_memory_state(parsed)
        apply_clone("memory", parsed, 0.5, 0.5)
        assert built == []
        assert len(list(parsed)) == len(built) == p  # the counter sees iteration


class TestRandomPatternSet:
    def test_shape_and_distinctness(self, rng):
        ps = random_pattern_set(6, 20, rng)
        assert ps.n == 6 and ps.p == 20
        assert len(set(ps)) == 20

    def test_rejects_oversubscription(self, rng):
        with pytest.raises(ValueError):
            random_pattern_set(2, 5, rng)
