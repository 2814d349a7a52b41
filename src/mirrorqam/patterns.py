"""Bit patterns, pattern sets, Hamming arithmetic, and pattern-file parsing.

Bit-order convention: a pattern is written leftmost-first, so the leftmost
character of a line is qubit 1 of the corresponding register. A pattern is
stored as one word: bit j of BitPattern.value is character j of the string,
the little-endian order of basis indices, so a pattern shifted by a
register's offset is that register's part of a basis index. A PatternSet
is n plus its words (PatternSet.values, a tuple of ints in file order);
BitPattern values are built only when the set is iterated. This module
alone converts between bit strings and words. Pattern files are UTF-8
text with one pattern per line; blank lines and lines whose first
non-blank character is '#' are ignored, and a '#' after a pattern is a
non-binary character. Duplicate patterns are rejected rather than silently
deduplicated, because the stored superposition weights every pattern
equally and a silent dedup would change the pattern count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DimensionError, PatternParseError


@dataclass(frozen=True)
class BitPattern:
    """An ordered n-bit binary word; the unit of storage and retrieval.

    Bit j of value is character j of the pattern string. Equality and the
    hash are those of the dataclass fields, (value, n).
    """

    value: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a pattern needs at least one bit")
        if not 0 <= self.value < 1 << self.n:
            raise ValueError(f"value {self.value!r} does not fit in {self.n} bits")

    @classmethod
    def from_string(cls, text: str) -> BitPattern:
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"not a binary string: {text!r}")
        return cls(int(text[::-1], 2), len(text))

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.value >> j) & 1 for j in range(self.n))

    def mirror(self) -> BitPattern:
        """Bitwise complement; an involution."""
        return BitPattern(self.value ^ ((1 << self.n) - 1), self.n)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, j: int) -> int:
        return self.bits[j]

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __str__(self) -> str:
        return format(self.value, f"0{self.n}b")[::-1]


@dataclass(frozen=True)
class PatternSet:
    """p pairwise-distinct n-bit words; the memory content.

    values holds the words in file order, bit j of a word being character
    j of its pattern string, exact at any n. Equality and the hash are
    those of (values, n). Iterating yields BitPatterns in that order, built
    on demand.
    """

    values: tuple[int, ...]
    n: int

    def __post_init__(self):
        if not self.values:
            raise PatternParseError("pattern set is empty")
        if self.n < 1 or min(self.values) < 0 or max(self.values) >> self.n:
            raise ValueError(f"words must lie in [0, 2^n), n >= 1; got n = {self.n}")
        if len(set(self.values)) != len(self.values):
            raise PatternParseError("patterns must be pairwise distinct")

    @classmethod
    def from_strings(cls, words: Iterable[str]) -> PatternSet:
        patterns = [BitPattern.from_string(w) for w in words]
        n = patterns[0].n if patterns else 1  # an empty set is refused below
        for q in patterns:
            if q.n != n:
                raise DimensionError(
                    f"patterns must share one length: got {q.n} and {n}"
                )
        return cls(tuple(q.value for q in patterns), n)

    @property
    def p(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[BitPattern]:
        return (BitPattern(v, self.n) for v in self.values)


def check_width(n: int, **widths: int) -> None:
    """Raise DimensionError unless every named width equals the pattern length n.

    Callers name what they check, e.g. check_width(patterns.n, input=...,
    memory=...); the first mismatch is reported.
    """
    for name, width in widths.items():
        if width != n:
            raise DimensionError(
                f"{name} width is {width}, the pattern length is {n}"
            )


def hamming_distance(a: BitPattern, b: BitPattern) -> int:
    """Number of positions where the two patterns differ."""
    if a.n != b.n:
        raise DimensionError(f"length mismatch: {a.n} vs {b.n}")
    return (a.value ^ b.value).bit_count()


def mirror(a: BitPattern) -> BitPattern:
    return a.mirror()


def mirror_set(s: PatternSet) -> PatternSet:
    """Elementwise bitwise complement; preserves order, count and distinctness."""
    full = (1 << s.n) - 1
    return PatternSet(tuple(v ^ full for v in s.values), s.n)


def parse_pattern_file(text: str) -> PatternSet:
    """Parse pattern-file text into a PatternSet.

    Raises PatternParseError with a distinct diagnostic (and line number)
    for non-binary characters, ragged lengths, duplicates, and empty input.
    """
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.strip("01"):
            bad = next(c for c in line if c not in "01")
            raise PatternParseError(
                f"non-binary character {bad!r} in pattern {line!r}", line=lineno
            )
        rows.append((lineno, line))
    if not rows:
        raise PatternParseError("no patterns found in input")
    width = len(rows[0][1])
    for lineno, word in rows:
        if len(word) != width:
            raise PatternParseError(
                f"ragged pattern length: {word!r} has {len(word)} bits, expected {width}",
                line=lineno,
            )
    first_seen: dict[str, int] = {}
    for lineno, word in rows:
        if word in first_seen:
            raise PatternParseError(
                f"duplicate pattern {word!r} (first on line {first_seen[word]})",
                line=lineno,
            )
        first_seen[word] = lineno
    return PatternSet(tuple(int(word[::-1], 2) for word in first_seen), width)


def random_pattern_set(n: int, p: int, rng) -> PatternSet:
    """Uniform-random set of p distinct n-bit patterns (test helper)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 1 <= p <= 2**n:
        raise ValueError(f"cannot draw {p} distinct patterns of {n} bits")
    chosen: set[int] = set()
    while len(chosen) < p:
        chosen.add(int(rng.integers(0, 2**n)))
    return PatternSet(tuple(sorted(chosen)), n)
