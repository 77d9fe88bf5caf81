"""Nim values of components: the (phase, length) engine that evaluates
periodic stopping patterns and, as one period of a pattern, single words;
the closed form for unstopped components; and period detection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import reference
from .words import PeriodicPattern, Word, validate


def mex(values) -> int:
    """Least nonnegative integer not in ``values``."""
    seen = 0
    for v in values:
        if v >= 0:
            seen |= 1 << v
    m = 0
    while seen & 1:
        seen >>= 1
        m += 1
    return m


def nim_sum(a: int, b: int) -> int:
    """Value of a sum of two Nim heaps: bitwise exclusive or."""
    if a < 0 or b < 0:
        raise ValueError("Nim values are nonnegative")
    return a ^ b


class GrundyTable:
    """Values and move classes of single words, read from phase tables.

    A word is one period of a periodic stopping pattern: its smallest
    period P when P < n, else the word padded with an open file to period
    n + 1.  ``ensure`` fills the pattern's ``PeriodicTable`` to the word's
    length and records, under the word's key, the value ``E[0, n]`` in
    ``eps`` and, for a nonempty word, the class ``CF[1 % P, n - 1]`` of a
    move to the colon component with colon file ``word[0]`` and tail
    ``word[1:]`` in ``colon``.  Tables of words with a shorter period are
    kept per pattern and extend in place, so words of one pattern (runs of
    open files, prefixes of ``1000...``) share one table.  A padded table
    serves only its word, so ``ensure`` records that word's move row and
    drops the table; a longer word of the same pattern builds it again.
    A word with a short period costs one phase per length; a word with no
    shorter period costs O(n^3).
    """

    def __init__(self):
        self.eps = {}  # word key -> value
        self.colon = {}  # word key -> colon class, -1 for loony
        self._done = {}  # word key -> move row, or the shared phase table
        self._tables = {}  # PeriodicPattern -> shared PeriodicTable

    def ensure(self, word: Word) -> None:
        """Fill the phase table of ``word`` to its length and record the
        word's value and colon class."""
        key = word.key
        if key in self._done:
            return
        if not word.is_valid:
            raise ValueError("invalid word: adjacent stopped files at index "
                             f"{validate(word)}")
        bits, n = word.bits, word.length
        # a valid word repeating with period P < n never puts two stopped
        # files side by side when repeated, since w[P-1] w[P] is in it
        period = next((P for P in range(1, n)
                       if not (bits ^ (bits >> P)) & ((1 << (n - P)) - 1)),
                      n + 1)
        top = min(period, n)
        pattern = PeriodicPattern(
            period, frozenset(t for t in range(top) if (bits >> t) & 1),
            file_origin=period)  # phase t is word position t
        table = self._tables.get(pattern) or PeriodicTable(pattern)
        table.extend(n)
        # a shared table may have grown past n, so read lengths <= n only
        self.eps[key] = int(table.E[0, n])
        if n:
            self.colon[key] = int(table.CF[1 % period, n - 1])
        if period < n:
            self._tables[pattern] = self._done[key] = table
        else:
            self._done[key] = table.move_classes([0], n)[0]

    def move_classes(self, word: Word) -> list:
        """Class of the move at each file of ``word``; -1 means loony."""
        self.ensure(word)
        row = self._done[word.key]
        if isinstance(row, PeriodicTable):  # read a shared table's row once
            row = self._done[word.key] = row.move_classes([0], word.length)[0]
        return row.tolist()

    def colon_class(self, word: Word) -> int:
        """Class of a move to the colon component whose colon file is
        ``word[0]`` and whose tail is ``word[1:]``; -1 means loony."""
        if not word:
            raise ValueError("a colon component needs its colon file")
        self.ensure(word)
        return self.colon[word.key]

    def epsilon(self, word: Word) -> int:
        self.ensure(word)
        return self.eps[word.key]

    def __len__(self) -> int:
        return len(self.eps)


def epsilon(word: "Word | str", table: Optional[GrundyTable] = None) -> int:
    """Nim value of the component ``word`` (empty word counts 0)."""
    w = word if isinstance(word, Word) else Word(word)
    if table is None:
        table = GrundyTable()
    return table.epsilon(w)


def epsilon_plain(m: int) -> int:
    """Closed form for a run of m unstopped files; period 10 in m."""
    if m < 0:
        raise ValueError("length must be nonnegative")
    return 0 if m % 10 in reference.PLAIN_ZERO_RESIDUES else 1


def loony_plain(m: int) -> bool:
    """Whether the end move leaving m unstopped files behind the colon is
    loony; true exactly for m = 5k +- 1."""
    if m < 1:
        raise ValueError("length must be positive")
    return m % 5 in (1, 4)


# ---------------------------------------------------------------------------
# periodic families
#
# For a word cut from a periodic stopping pattern, a subword's content is
# fixed by (start phase, length), so the whole family of lengths 1..n needs
# only p entries per length.  Three arrays indexed [phase, length] carry the
# values and the colon classes of forward and reversed tails; the implicit
# colon flag of an entry is the flag of the file adjacent to the tail, which
# the phase determines.

class InsufficientTableError(ValueError):
    pass


def _colon_class(und, cap, adv, adv_u):
    """Class of a move to a colon component, per phase, -1 for loony.

    ``cap`` is the value of the tail after the capture, ``adv`` the class
    of the colon component one file shorter that the advance leaves, and
    ``adv_u`` the class two files shorter that a stopped colon file
    (``und`` 1) leaves after its forced advance.  A plain colon file is
    loony when adv == cap, and worth cap otherwise; a stopped one is worth
    cap when adv_u == cap, and loony otherwise.
    """
    return np.where(und == 1, np.where(adv_u == cap, cap, -1),
                    np.where(adv == cap, -1, cap))


class PeriodicTable:
    """Value and colon-class arrays for one stopping pattern, filled bottom
    up over lengths and extendable in place.

    ``E``, ``CF`` and ``CR`` are indexed [start phase, length].  Next to
    them the table keeps end-phase copies of ``E`` and ``CF``, indexed by
    the phase of the file just past the subword's last file:
    ``EE[e, l] = E[(e - l) % p, l]`` and ``CFE[e, l] = CF[(e - l) % p, l]``.
    The right-hand pieces a move leaves in a length-L word all end at the
    same file, so in this layout they are one reversed row slice.  The
    copies are derived from ``E`` and ``CF`` whenever the arrays grow or
    are loaded, and ``save`` writes only ``E``, ``CF`` and ``CR``.
    """

    def __init__(self, pattern: PeriodicPattern, max_length: int = 0):
        self.pattern = pattern
        self.p = pattern.period
        self.flags = np.array([pattern.phase_flag(q) for q in range(self.p)],
                              dtype=bool)
        self.n = 0
        p = self.p
        self.E = np.zeros((p, 1), dtype=np.int32)
        self.CF = np.full((p, 1), -1, dtype=np.int32)
        self.CR = np.full((p, 1), -1, dtype=np.int32)
        self._derive_end_phase()
        if max_length:
            self.extend(max_length)

    def _derive_end_phase(self) -> None:
        """Derive EE, CFE and the tiled flags from E, CF and their size."""
        p, width = self.E.shape
        e, l = np.ogrid[:p, :width]
        rows = (e - l) % p
        self.EE, self.CFE = self.E[rows, l], self.CF[rows, l]
        # flags of files 0 .. p + width - 1 (file t has phase t % p), so the
        # flags along any word of the table are one contiguous slice
        self._tiled = np.resize(self.flags, p + width)

    def extend(self, n: int) -> None:
        if n <= self.n:
            return
        p = self.p
        grown = np.zeros((p, n + 1), dtype=np.int32)
        grown[:, :self.n + 1] = self.E
        self.E = grown
        for name in ("CF", "CR"):
            arr = np.full((p, n + 1), -1, dtype=np.int32)
            arr[:, :self.n + 1] = getattr(self, name)
            setattr(self, name, arr)
        self._derive_end_phase()
        start = self.n + 1
        if start <= 1 <= n:
            self.E[:, 1] = self.EE[:, 1] = 1
            start = 2
        for length in range(start, n + 1):
            self._fill(length)
        self.n = n

    def move_classes(self, phases, L: int) -> np.ndarray:
        """Class of the move at each file of the length-L words starting at
        the given phases: a (len(phases), L) array, -1 for loony.  Reads
        only lengths below L.

        An end move is classified by the colon class of the rest of the
        word.  An interior move at file k is non-loony when each side
        either has a stopped neighbour or a non-loony colon class, and
        then it is worth the value of the two remaining sides, e1 ^ e2.
        The left side of file k is the subword at phase q of length k - 1;
        the right side, and the colon tail read from it, end at file L - 1,
        so they are reversed slices of the end-phase row (q + L) % p.
        """
        p = self.p
        q = np.asarray(phases)
        out = np.zeros((q.size, L), dtype=self.E.dtype)
        if L <= 1:
            return out  # the lone pawn's move is a move to 0
        out[:, 0] = self.CF[(q + 1) % p, L - 1]
        out[:, L - 1] = self.CR[q, L - 1]
        if L == 2:
            return out
        end = (q + L) % p
        e1 = self.E[q, :L - 2]  # E[q, k - 1] for k = 1 .. L - 2
        e2 = self.EE[end, L - 3::-1]  # E[(q + k + 2) % p, L - 2 - k]
        sf = self.CFE[end, L - 2:0:-1]  # CF[(q + k + 1) % p, L - 1 - k]
        sr = self.CR[q, 1:L - 1]  # CR[q, k]
        win = np.lib.stride_tricks.sliding_window_view(self._tiled, L - 2)
        ok = (win[q] | (sr >= 0)) & (win[q + 2] | (sf >= 0))
        inner = out[:, 1:L - 1]
        np.bitwise_xor(e1, e2, out=inner)
        # ok - 1 is 0 or -1, all bits set, so this writes -1 for loony
        np.bitwise_or(inner, np.subtract(ok, 1, dtype=inner.dtype), out=inner)
        return out

    def _fill(self, L: int) -> None:
        p, flags = self.p, self.flags
        E, CF, CR = self.E, self.CF, self.CR
        q = np.arange(p)
        end = (q + L) % p
        # mex of each row: L moves leave one of the values 0..L unused, and
        # no class exceeds L (e1 ^ e2 <= e1 + e2 <= L - 3).  Loony moves
        # (-1) land in the spare last column of the row before.
        cls = self.move_classes(q, L)
        seen = np.zeros((p, L + 2), dtype=bool)
        seen.ravel()[cls + (q * (L + 2))[:, None]] = True
        E[:, L] = self.EE[end, L] = seen[:, :L + 1].argmin(axis=1)
        # colon classes for tails of length L, both reading directions.  CF
        # and CR hold -1 at lengths 0 and 1, which equals no value, so every
        # tail shorter than 3 behind a stopped colon file comes out loony
        r = (q + 1) % p
        CF[:, L] = self.CFE[end, L] = _colon_class(
            flags[q - 1], E[r, L - 1], CF[r, L - 1], CF[(q + 2) % p, L - 2])
        CR[:, L] = _colon_class(flags[end], E[q, L - 1], CR[q, L - 1],
                                CR[q, L - 2])

    def values(self, phase: Optional[int] = None) -> np.ndarray:
        """Component values for lengths 0..n at the given start phase
        (default: the pattern's file origin)."""
        if phase is None:
            phase = self.pattern.file_origin % self.p
        return self.E[phase % self.p].copy()

    def save(self, path) -> None:
        np.savez_compressed(
            path, E=self.E, CF=self.CF, CR=self.CR, n=self.n,
            period=self.pattern.period,
            stopped=np.array(sorted(self.pattern.stopped), dtype=np.int64),
            file_origin=self.pattern.file_origin)

    @classmethod
    def load(cls, path) -> "PeriodicTable":
        """Read back a table written by ``save``.  Raises ValueError unless
        E, CF and CR are signed integer arrays of shape (period, n + 1)."""
        with np.load(path) as data:
            pattern = PeriodicPattern(int(data["period"]),
                                      frozenset(int(r) for r in data["stopped"]),
                                      int(data["file_origin"]))
            n = int(data["n"])
            E, CF, CR = data["E"], data["CF"], data["CR"]
        if n < 0:
            raise ValueError(f"table length must be nonnegative, got {n}")
        shape = (pattern.period, n + 1)
        for name, arr in (("E", E), ("CF", CF), ("CR", CR)):
            if arr.dtype.kind != "i" or arr.shape != shape:
                raise ValueError(f"{name} must be a signed integer array of "
                                 f"shape {shape}, got {arr.dtype} {arr.shape}")
        table = cls(pattern)
        table.E, table.CF, table.CR, table.n = E, CF, CR, n
        table._derive_end_phase()
        return table


@dataclass
class PeriodReport:
    """Observed eventual periodicity of a value sequence.  ``verified``
    is set only when the doubling-window check passed on every phase."""

    pattern: PeriodicPattern
    preperiod: int
    period: int
    verified: bool
    window: tuple


def detect_period(values, pattern: PeriodicPattern,
                  table: Optional[PeriodicTable] = None):
    """Smallest (period, preperiod) with the matched stretch spanning at
    least two periods; None when nothing repeats within the data.

    With a phase table the search runs over every start phase at once:
    the recursion for one phase reads the others, so only a simultaneous
    repeat supports the window argument (single rows can settle into a
    proper divisor of the family period).  Without a table only the given
    value row is examined, which is an observation, never verified.
    """
    if table is not None:
        rows = table.E[:, :table.n + 1]
    else:
        rows = np.asarray(values)[None, :]
    nmax = rows.shape[1] - 1
    for P in range(1, nmax // 2 + 1):
        eq = (rows[:, P:] == rows[:, :-P]).all(axis=0)
        bad = np.flatnonzero(~eq)
        n0 = 0 if bad.size == 0 else int(bad[-1]) + 1
        if n0 + 2 * P <= nmax:
            window = (n0 + P, 2 * (n0 + P) + 3)
            verified = False
            if table is not None and table.n >= window[1]:
                verified = verify_period_window(table, pattern, n0, P)
            return PeriodReport(pattern, n0, P, verified, window)
    return None


def verify_period_window(table: PeriodicTable, pattern: PeriodicPattern,
                         preperiod: int, period: int) -> bool:
    """Doubling-window proof check: values must repeat with the claimed
    period, on every start phase, for all lengths from preperiod+period up
    to twice (preperiod+period) plus three.  Three is the most files one
    compound move removes (interior exchanges delete three, end exchanges
    two), so agreement on this window forces agreement everywhere above
    the preperiod."""
    hi = 2 * (preperiod + period) + 3
    lo = preperiod + period
    if table.n < hi:
        raise InsufficientTableError(
            f"table filled to {table.n}, need {hi}")
    E = table.E
    return bool(np.array_equal(E[:, lo:hi + 1], E[:, lo - period:hi + 1 - period]))


# ---------------------------------------------------------------------------
# value-dump format, as experiments.write_report writes it for periodic
# runs: '#' provenance line, a '#phase-table:' checkpoint that records what
# was computed (enough to rebuild and extend a run), then one
# 'length,value' record per line.

def load_dump(fh):
    """Read a value dump back: returns (pattern, values array).  Lines
    starting '#' other than the checkpoint are ignored."""
    pattern = None
    lengths = []
    vals = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#phase-table:"):
            meta = json.loads(line.split(":", 1)[1])
            pattern = PeriodicPattern(meta["period"],
                                      frozenset(meta["stopped"]),
                                      meta["file_origin"])
            continue
        if line.startswith("#"):
            continue
        a, b = line.split(",")
        lengths.append(int(a))
        vals.append(int(b))
    if lengths != list(range(len(lengths))):
        raise ValueError("dump records must cover lengths 0..n in order")
    return pattern, np.array(vals, dtype=np.int64)
