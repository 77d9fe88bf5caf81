"""Component words: strings of file flags, plus periodic stopping patterns.

A component of the pawns game is a maximal run of initial files.  Each file
is either open (flag 0) or stopped (flag 1), and no two stopped files may
be adjacent.  The empty word denotes the null component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


class Word:
    """Immutable flag sequence, packed into an int for O(1) memo keys.

    Bit i of ``bits`` holds the flag of position i counted from the left,
    so slicing a subword is a shift and a mask.  Equality and hashing go
    by (bits, length); a Word is usable directly as a dict key.
    """

    __slots__ = ("bits", "length")

    def __init__(self, flags: "str | Iterable[int] | Word" = ""):
        if isinstance(flags, Word):
            bits, length = flags.bits, flags.length
        else:
            bits = 0
            length = 0
            for f in flags:
                if isinstance(f, str):
                    if f not in "01":
                        raise ValueError(f"flag must be 0 or 1, got {f!r}")
                    f = int(f)
                elif f not in (0, 1):
                    raise ValueError(f"flag must be 0 or 1, got {f!r}")
                bits |= f << length
                length += 1
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "length", length)

    @classmethod
    def from_bits(cls, bits: int, length: int) -> "Word":
        w = cls.__new__(cls)
        object.__setattr__(w, "bits", bits)
        object.__setattr__(w, "length", length)
        return w

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return self.length

    def __bool__(self) -> bool:
        return self.length > 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            start, stop, step = i.indices(self.length)
            if step != 1:
                raise ValueError("Word slices must be contiguous")
            n = max(0, stop - start)
            return Word.from_bits((self.bits >> start) & ((1 << n) - 1), n)
        if i < 0:
            i += self.length
        if not 0 <= i < self.length:
            raise IndexError("file index out of range")
        return (self.bits >> i) & 1

    def __iter__(self) -> Iterator[int]:
        b = self.bits
        for _ in range(self.length):
            yield b & 1
            b >>= 1

    def __add__(self, other: "Word | str") -> "Word":
        other = other if isinstance(other, Word) else Word(other)
        return Word.from_bits(self.bits | (other.bits << self.length),
                              self.length + other.length)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Word)
                and self.bits == other.bits and self.length == other.length)

    def __hash__(self) -> int:
        return hash((self.bits, self.length))

    def __str__(self) -> str:
        return "".join(str((self.bits >> i) & 1) for i in range(self.length))

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    @property
    def key(self) -> int:
        """Self-delimiting packed form: bits plus a marker above the top flag."""
        return self.bits | (1 << self.length)

    @property
    def is_valid(self) -> bool:
        return (self.bits & (self.bits >> 1)) == 0

    def reversed(self) -> "Word":
        return Word.from_bits(reverse_bits(self.bits, self.length), self.length)


def reverse_bits(bits: int, n: int) -> int:
    if n == 0:
        return 0
    return int(format(bits, f"0{n}b")[::-1], 2)


def validate(word: Word):
    """Return None if no two stopped flags are adjacent, else the index of
    the first offending pair (the position of its left flag)."""
    bad = word.bits & (word.bits >> 1)
    if bad == 0:
        return None
    return (bad & -bad).bit_length() - 1


def count_words(m: int) -> int:
    """Number of valid words of length m (the (m+2)-nd Fibonacci number)."""
    if m < 0:
        raise ValueError("length must be nonnegative")
    a, b = 1, 2  # counts for lengths 0 and 1
    for _ in range(m):
        a, b = b, a + b
    return a


def enumerate_words(m: int) -> Iterator[Word]:
    """All valid words of length m in lexicographic order (0 before 1)."""
    flags = [0] * m
    while True:
        yield Word(flags)
        for i in range(m - 1, -1, -1):
            if flags[i] == 0 and (i == 0 or flags[i - 1] == 0):
                flags[i] = 1
                for j in range(i + 1, m):
                    flags[j] = 0
                break
        else:
            return


@dataclass(frozen=True)
class PeriodicPattern:
    """Stopping pattern with period p: file f is stopped iff f mod p is in
    ``stopped``.  Files are numbered from 1; ``file_origin`` is the file
    number of the first component file."""

    period: int
    stopped: frozenset = field(default_factory=frozenset)
    file_origin: int = 1

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if self.file_origin < 1:
            raise ValueError("file_origin must be >= 1")
        object.__setattr__(self, "stopped",
                           frozenset(r % self.period for r in self.stopped))
        for r in self.stopped:
            if (r + 1) % self.period in self.stopped:
                raise ValueError(
                    f"residues {r} and {(r + 1) % self.period} would stop "
                    f"adjacent files")

    def flag(self, file: int) -> int:
        """Flag of 1-based file number ``file``, or of phase ``file``: both
        are read modulo the period."""
        return 1 if (file % self.period) in self.stopped else 0

    def describe(self) -> str:
        res = ",".join(str(r) for r in sorted(self.stopped)) or "-"
        return f"p={self.period};stopped={res};origin={self.file_origin}"


def word_from_pattern(pattern: PeriodicPattern, length: int) -> Word:
    """Expand a pattern to the word covering files origin..origin+length-1."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    bits = 0
    for t in range(length):
        bits |= pattern.flag(pattern.file_origin + t) << t
    w = Word.from_bits(bits, length)
    if not w.is_valid:
        raise ValueError("pattern expands to adjacent stopped files")
    return w

