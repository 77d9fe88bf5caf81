"""Nim values of components: the (phase, length) engine that evaluates
periodic stopping patterns and, as one period of a pattern, single words;
the closed form for unstopped components; and period detection.
"""

from __future__ import annotations

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
    ``word[1:]`` in ``colon``.  Tables of words that span at least two
    periods (n >= 2P) are kept per pattern and extend in place, so words
    of one pattern (runs of open files, repeats of ``1000``) share one
    table.  Any other table, padded or not, is dropped once ``ensure`` has
    recorded its word's move row: a word with w[0] == w[n-1] already has
    period n - 1, so few such tables would ever be shared, and a longer
    word of the same pattern builds the table again.  A word with a short
    period costs one phase per length; a word with no shorter period
    costs O(n^3).
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
        if 2 * period <= n:
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
    return np.where(np.where(und, adv_u != cap, adv == cap), -1, cap)


class PeriodicTable:
    """Value and colon-class arrays for one stopping pattern, filled bottom
    up over lengths and extendable in place.

    Stored, and the only arrays ``save`` writes: ``E``, ``CF`` and ``CR``,
    int32 and indexed [start phase, length].  Derived from them whenever
    the arrays grow or are loaded, then kept in step by the fill:

    - ``EE``, int32: the values by end phase, the phase of the file just
      past the subword's last file, with the length axis reversed:
      ``EE[e, w - 1 - l] = E[(e - l) % p, l]`` for width w = n + 1;
    - ``left_loony``, bool, [start phase, length]: the subword's last file
      is open and its reversed colon class ``CR`` is loony;
    - ``right_loony``, bool, laid out like ``EE``: the subword's first file
      is open and its forward colon class ``CF`` is loony.

    The right-hand pieces a move leaves in a length-L word all end at the
    same file, so in the end-phase layout they lie along one row, and with
    the length axis reversed that row reads forward.  A cell takes 18
    bytes: 4 each in E, CF, CR and EE, and 1 in each side bit.
    """

    def __init__(self, pattern: PeriodicPattern, max_length: int = 0):
        self.pattern = pattern
        self.p = p = pattern.period
        self.flags = np.array([pattern.phase_flag(q) for q in range(p)],
                              dtype=bool)
        # indices the fill reads at every length, made once per table:
        # phases and flags over two periods, so the (q + L) % p of all
        # phases is the slice starting at L % p
        self._phases = np.arange(p, dtype=np.int32)
        self._cycle = np.tile(self._phases, 2)
        self._flags2 = np.tile(self.flags, 2)
        self._open2 = ~self._flags2
        self._next = (self._phases + 1) % p
        self._after_next = (self._phases + 2) % p
        self._flag_before = self.flags[self._phases - 1]
        self.n = 0
        self.E = np.zeros((p, 1), dtype=np.int32)
        self.CF = np.full((p, 1), -1, dtype=np.int32)
        self.CR = np.full((p, 1), -1, dtype=np.int32)
        self._derive_end_phase()
        if max_length:
            self.extend(max_length)

    def _derive_end_phase(self) -> None:
        """Derive EE and the side bits from E, CF, CR and their width."""
        p, width = self.E.shape
        e = self._phases[:, None]
        lengths = np.arange(width)
        l = lengths[::-1]  # the length at each reversed column
        start = (e - l) % p
        self.EE = self.E[start, l]
        self.right_loony = ~self.flags[start] & (self.CF[start, l] < 0)
        # the last file of the subword at phase q and length l is q + l - 1
        self.left_loony = (~self.flags[(e + lengths - 1) % p]
                           & (self.CR < 0))

    def extend(self, n: int) -> None:
        if n <= self.n:
            return
        p = self.p
        for name, fill in (("E", 0), ("CF", -1), ("CR", -1)):
            arr = np.full((p, n + 1), fill, dtype=np.int32)
            arr[:, :self.n + 1] = getattr(self, name)
            setattr(self, name, arr)
        self._derive_end_phase()
        start = self.n + 1
        if start <= 1 <= n:
            self.E[:, 1] = self.EE[:, n - 1] = 1
            start = 2
        for length in range(start, n + 1):
            self._fill(length)
        self.n = n

    def move_classes(self, phases, L: int) -> np.ndarray:
        """Class of the move at each file of the length-L words starting at
        the given consecutive phases (such as ``[q]`` or ``range(p)``): a
        (len(phases), L) array, -1 for loony.  Reads only lengths below L.
        Raises ValueError unless the phases are consecutive in 0..p-1 and
        0 <= L <= n + 1 for a table of length n.

        An end move is classified by the colon class of the rest of the
        word.  An interior move at file k is non-loony when each side
        either has a stopped neighbour or a non-loony colon class, and
        then it is worth the value of the two remaining sides, e1 ^ e2.
        The left side of file k is the subword at phase q of length k - 1;
        the right side, and the colon tail read from it, end at file L - 1,
        so they are forward slices of the end-phase row (q + L) % p.
        """
        p = self.p
        q = np.asarray(phases)
        m = q.size
        a = int(q[0]) if m else 0
        if a < 0 or a + m > p or not np.array_equal(q, self._phases[a:a + m]):
            raise ValueError(f"phases must be consecutive phases of 0..{p - 1}")
        # the arrays hold lengths 0..width - 1, ahead of n during a fill
        width = self.E.shape[1]
        if not 0 <= L <= width:
            raise ValueError(f"L = {L} is outside 0..{width} for a table "
                             f"of length {width - 1}")
        out = np.zeros((m, L), dtype=np.int32)
        if L <= 1:
            return out  # the lone pawn's move is a move to 0
        out[:, 0] = self.CF[self._next[a:a + m], L - 1]
        out[:, L - 1] = self.CR[a:a + m, L - 1]
        if L == 2:
            return out
        # for k = 1 .. L - 2: E[q, k - 1] and the side bit of CR[q, k] by
        # start row; E[(q + k + 2) % p, L - 2 - k] and the side bit of
        # CF[(q + k + 1) % p, L - 1 - k] by end row, in reversed columns
        e1 = self.E[a:a + m, :L - 2]
        left = self.left_loony[a:a + m, 1:L - 1]
        e2 = self.EE[:, width - L + 2:]
        right = self.right_loony[:, width - L + 1:width - 1]
        inner = out[:, 1:L - 1]
        loony = np.empty(inner.shape, dtype=bool)
        # the end rows (q + L) % p of consecutive phases wrap past p - 1 at
        # most once, so they are two row slices
        end = (a + L) % p
        split = min(m, p - end)
        for lo, hi, e in ((0, split, end), (split, m, 0)):
            if lo < hi:
                np.bitwise_xor(e1[lo:hi], e2[e:e + hi - lo], out=inner[lo:hi])
                np.bitwise_or(left[lo:hi], right[e:e + hi - lo],
                              out=loony[lo:hi])
        # a loony bit read as int8 and negated is 0 or -1, all bits set, so
        # this writes -1 for loony
        mask = loony.view(np.int8)
        np.bitwise_or(inner, np.negative(mask, out=mask), out=inner)
        return out

    def _fill(self, L: int) -> None:
        p = self.p
        E, CF, CR = self.E, self.CF, self.CR
        col = E.shape[1] - 1 - L  # the reversed column of length L
        end = self._cycle[L % p:L % p + p]  # (q + L) % p
        # mex of each row: L moves leave one of the values 0..L unused, and
        # no class exceeds L (e1 ^ e2 <= e1 + e2 <= L - 3).  Loony moves
        # (-1) land in the spare last column of the row before.
        cls = self.move_classes(self._phases, L)
        seen = np.zeros((p, L + 2), dtype=bool)
        cls += (L + 2) * self._phases[:, None]  # offset of each row in seen
        seen.ravel()[cls.ravel().astype(np.intp)] = True
        E[:, L] = self.EE[end, col] = seen[:, :L + 1].argmin(axis=1)
        # colon classes for tails of length L, both reading directions.  CF
        # and CR hold -1 at lengths 0 and 1, which equals no value, so every
        # tail shorter than 3 behind a stopped colon file comes out loony
        r1 = self._next
        CF[:, L] = cf = _colon_class(self._flag_before, E[r1, L - 1],
                                     CF[r1, L - 1], CF[self._after_next, L - 2])
        CR[:, L] = cr = _colon_class(self._flags2[L % p:L % p + p],
                                     E[:, L - 1], CR[:, L - 1], CR[:, L - 2])
        self.right_loony[end, col] = self._open2[:p] & (cf < 0)
        last = (L - 1) % p  # phase of the last file, q + L - 1
        self.left_loony[:, L] = self._open2[last:last + p] & (cr < 0)

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
                verified = verify_period_window(table, n0, P)
            return PeriodReport(pattern, n0, P, verified, window)
    return None


def verify_period_window(table: PeriodicTable, preperiod: int,
                         period: int) -> bool:
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

