"""Exhaustive and periodic scans: first occurrences of each value, value
distributions over all words of a length, and long periodic runs with
power-of-two milestones.

The exhaustive engine stores one value array per word length, indexed by
lexicographic rank.  Rank doubles as a content key, and the ranks of a
word's suffixes and reversed prefixes obey one-step recurrences in the
Fibonacci base, so a full sweep of length m costs O(m) operations per
word with every subword value shared across words.  The words of one
length that share their first files are a run of consecutive ranks, and a
length is filled in such blocks: a move on a shared file reads one side
as a slice and the other as a single byte.  The remaining files are the
same suffixes in every block, so their rank steps and right sides are
computed once per length, and a move there gathers one byte.  The
compiled kernel ``_fill.c`` does the arithmetic of every block.

Only the rank scan imports numpy, when it first runs.  A periodic run
reads the phase table's ``array`` buffers, so ``periodic`` and ``tables
--which p6`` processes never load it.
"""

from __future__ import annotations

import json
import mmap
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from . import __version__
from .grundy import PeriodicTable, PeriodReport, _kernel, detect_period
from .words import (PeriodicPattern, Word, count_words, enumerate_words,
                    require_valid)

if TYPE_CHECKING:  # the rank scan imports numpy when it first runs
    import numpy as np

MAX_SCAN_LENGTH = 44  # rank steps are int32, and C[44] < 2^31 <= C[45]


@dataclass
class FirstOccurrenceTable:
    """Least length attaining each value, with one witness word per value.
    Monotonicity in the value is observed, not assumed."""

    lengths: dict = field(default_factory=dict)    # value -> least length
    witnesses: dict = field(default_factory=dict)  # value -> Word
    max_length_scanned: int = 0


@dataclass
class DistributionRow:
    """Exact value counts over all valid words of one length."""

    length: int
    counts: dict
    total: int


@dataclass
class PeriodicScanResult:
    pattern: PeriodicPattern
    max_length: int
    values: array                            # indexed by length, 0..max
    milestones: dict                         # 2**alpha -> least length
    report: Optional[PeriodReport]


def two_sig_figs(x: float) -> float:
    """Round to two significant figures (for percentage tables)."""
    if x == 0:
        return 0.0
    import math
    return round(x, 1 - int(math.floor(math.log10(abs(x)))))


def _mapped(size: int, dtypes) -> list:
    """Arrays of ``size`` entries, one of each dtype, as views of one
    anonymous memory map, which goes back to the system when the last view
    is dropped and leaves the allocator's thresholds alone."""
    import numpy as np
    dtypes = [np.dtype(t) for t in dtypes]
    at = np.cumsum([0] + [size * t.itemsize for t in dtypes]).tolist()
    buf = mmap.mmap(-1, max(at[-1], 1))  # an empty map is an error
    return [np.frombuffer(buf, t, size, o) for t, o in zip(dtypes, at)]


class ScanTables:
    """Per-length value and colon tables over all valid words.

    ``values(m)[r]`` is the value of the rank-r word of length m.
    CL[m], uint8 with C[m + 1] entries, serves the colon words u of length
    m + 1: the colon file u[0] and a tail u[1:] of length m.  It is
    indexed by the rank of u, which is ``c * C[m] + r`` for a colon file
    that is stopped (c = 1) or open (c = 0) and a tail of rank r.  Each
    byte holds

    - bits 0-5: the value of u[2:], the piece a capture leaves; values are
      at most the length, so below 64;
    - bit 7: the colon class of (u[0]; u[1:]) is loony;
    - bit 6: bit 7 is set and u[1] is open.

    A colon class that is not loony is the value of u[2:], so a byte below
    64 is the class itself.  An end move reads CL[m - 1] at the rank of the
    word or of its reverse.  An interior move at file k leaves a piece on
    each side.  The right side r is CL[m - k - 1] at the rank of w[k:]; the
    left side l is CL[k] at the rank of reversed w[:k+1], whose piece is
    the reverse of w[:k-1] and has its value.  The move is loony when bit 6
    of l or r is set, else its class is ``(l ^ r) & 63``.  The colon
    entries of ``PeriodicTable`` carry the same information in int32, and
    ``_fill.c`` writes both through one colon rule.

    The colon byte of the word 0 + w holds the value of w in bits 0-5, so
    the values of length m are ``CL[m + 1][:C[m]] & 63``.  After a build
    to length M, the int8 array EPS[m] holds the values of length m only
    for the top two lengths, M - 1 and M; every lower slot is a
    zero-length int8 array, so that EPS keeps one slot per length.
    ``values`` reads either.  CL[M] is built at the start of tier M + 1,
    the first that reads it, and EPS[M - 1] is dropped then.  So the
    tables hold C[1] + ... + C[M] colon bytes and C[M - 1] + C[M] value
    bytes, about 4.2 bytes per word of length M; every value and colon
    tier up to M would take 6.9.

    A tier is filled in blocks: the words that share their first j files,
    for the least j that keeps every block within ``chunk_size`` words.
    Such words are consecutive ranks, and the word i of a block with prefix
    p has w[k:] at rank ``off_k + i`` for k <= j, where off_k counts the
    stopped files of p[k:].  So the move at a prefix file k reads its right
    side as a slice of CL[m - k - 1] and its left side as one byte of CL[k]
    at the rank of reversed p[:k+1].  The rest of word i is the suffix of
    rank i in every block, so a tier computes once, for each suffix file k,
    the byte r and the step from the rank rho of reversed p to that of
    reversed w[:k+1], and a block's move at k gathers only CL[k][rho +
    step].  That takes a byte and an int32 step per suffix file and rank:
    3.0 MB at the default 2^15, where blocks hold at most 28,657 words of
    21 suffix files.  With w workers, worker i fills blocks i, i + w,
    i + 2w, ... in its own thread, with scratch of its own, and the
    threads run in parallel, since the kernel runs without the interpreter
    lock.  A colon tier CL[m] is written in chunks of ``chunk_size`` tail
    ranks, shared out the same way.  Blocks and chunks are independent, so
    worker threads and sequential runs produce identical tables.
    """

    def __init__(self, chunk_size: int = 1 << 15, workers: int = 1):
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got "
                             f"{chunk_size}")
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        import numpy as np
        self.chunk_size = chunk_size
        self.workers = workers
        self._kernel = _kernel()  # loaded here, before any worker starts
        self.C = [1, 2]  # valid word counts by length
        self.EPS = [np.zeros(1, dtype=np.int8)]
        self.CL = [np.full(2, 128, dtype=np.uint8)]  # 0 and 1 have no u[1]

    def _count(self, n: int) -> int:
        while len(self.C) <= n:
            self.C.append(self.C[-1] + self.C[-2])
        return self.C[n]

    @property
    def max_length(self) -> int:
        return len(self.EPS) - 1

    def build(self, max_m: int) -> None:
        if max_m > MAX_SCAN_LENGTH:
            raise ValueError(f"scan lengths above {MAX_SCAN_LENGTH} are "
                             f"not supported")
        for m in range(self.max_length + 1, max_m + 1):
            self._tier(m)

    def values(self, m: int, lo: int = 0, hi: Optional[int] = None
               ) -> np.ndarray:
        """Values of the length-m words of ranks lo..hi - 1 (to the end of
        the tier by default), as int8: a view of ``EPS[m]`` while it is
        held, else decoded from the low six bits of ``CL[m + 1]``."""
        if not 0 <= m <= self.max_length:
            raise ValueError(f"length {m} is outside the tables' 0.."
                             f"{self.max_length}")
        hi = self.C[m] if hi is None else min(hi, self.C[m])
        if self.EPS[m].size:
            return self.EPS[m][lo:hi]
        import numpy as np
        return np.bitwise_and(self.CL[m + 1][lo:hi], 63).view(np.int8)

    def _tier(self, m: int) -> None:
        import numpy as np
        if len(self.CL) < m:  # else a failed try at tier m built it
            self._colon_tier(m - 1)
        eps = np.empty(self._count(m), dtype=np.int8)
        if m == 1:
            eps[:] = 1
        else:
            blocks = self._blocks(m)
            j = len(blocks[0][0])
            size = self.C[m - j]  # the first block's, the largest
            steps, right = _mapped((m - j) * size, (np.int32, np.uint8))
            counts = np.array(self.C, dtype=np.int64)
            cls = np.array([a.ctypes.data for a in self.CL], dtype=np.uintp)
            tier = tuple(a.ctypes.data for a in (counts, cls, steps, right))
            self._kernel.scan_suffix(m, j, *tier)

            def fill(share):
                mask, = _mapped(size, (np.uint64,))
                for block in share:
                    self._eps_block(m, *block, tier, mask, eps)

            self._run(blocks, fill)
        self.EPS.append(eps)

    def _colon_tier(self, m: int) -> None:
        """Append CL[m], then drop EPS[m - 1], whose values it holds."""
        import numpy as np
        C, size = self.C, self.chunk_size
        cl = np.empty(self._count(m + 1), dtype=np.uint8)
        if m == 1:
            # 00, 01 and 10 are loony and leave an empty piece; 01 has a
            # stopped u[1]
            cl[:] = (192, 128, 192)
        else:
            args = (C[m - 1], C[m], *(a.ctypes.data for a in (
                self.EPS[m - 1], self.CL[m - 1], self.CL[m - 2], cl)))

            def fill(share):
                for lo in share:
                    self._kernel.scan_colon(lo, min(lo + size, C[m]), *args)

            self._run(range(0, C[m], size), fill)
        self.CL.append(cl)
        self.EPS[m - 1] = np.empty(0, dtype=np.int8)

    def _blocks(self, m: int) -> list:
        """(prefix, first rank, word count) of each block of tier m, in
        rank order."""
        C = self.C
        j = next(j for j in range(m + 1) if C[m - j] <= self.chunk_size)
        blocks, start = [], 0
        for prefix in enumerate_words(j):
            # a stopped file is followed by an open one
            n = C[m - j - (0 < j < m and prefix[j - 1])]
            blocks.append((tuple(prefix), start, n))
            start += n
        return blocks

    def _run(self, items, work) -> None:
        """Call ``work`` on worker i's share ``items[i::workers]``: in the
        caller when there is one share, else one thread per share.  A
        worker's exception reaches the caller.  An exception in a worker,
        or one that ends the caller's wait (an interrupt), sets a stop flag
        that the other workers read between items, so the caller goes on
        once each has finished the item at hand."""
        shares = [items[i::self.workers]
                  for i in range(min(self.workers, len(items)))]
        if len(shares) < 2:
            work(items)
            return
        # imported here: it loads logging, which one-worker runs never need
        import threading
        from concurrent.futures import ThreadPoolExecutor
        from itertools import takewhile
        stop = threading.Event()

        def run(share):
            try:
                work(takewhile(lambda _: not stop.is_set(), share))
            except BaseException:
                stop.set()
                raise

        with ThreadPoolExecutor(max_workers=len(shares)) as pool:
            try:
                list(pool.map(run, shares))
            except BaseException:
                stop.set()
                raise

    def _eps_block(self, m: int, prefix: tuple, start: int, n: int,
                   tier: tuple, mask: np.ndarray, out: np.ndarray) -> None:
        self._kernel.scan_block(m, len(prefix), start, n, *tier,
                                bytes(prefix), mask.ctypes.data,
                                out.ctypes.data)

    # -- queries ------------------------------------------------------------

    def unrank(self, m: int, rank: int) -> Word:
        if m < 0 or not 0 <= rank < self._count(m):
            raise ValueError(f"no word of length {m} has rank {rank}")
        flags = []
        n, r = m, int(rank)
        while n > 0:
            if r < self._count(n - 1):
                flags.append(0)
                n -= 1
            else:
                r -= self._count(n - 1)
                flags.append(1)
                if n >= 2:
                    flags.append(0)
                n -= 2
        return Word(flags)

    def rank(self, word: Word) -> int:
        require_valid(word)
        r = 0
        n = len(word)
        for i, flag in enumerate(word):
            if flag:
                r += self._count(n - 1 - i)
        return r


def _chunks(tables: ScanTables, m: int):
    """(first rank, values) of each ``chunk_size``-word slice of tier m.
    The readers below walk a tier this way so that the temporaries they
    make, a decoded tier's values among them, are of chunk size, not a
    byte or more per word of the tier."""
    for lo in range(0, tables.C[m], tables.chunk_size):
        yield lo, tables.values(m, lo, lo + tables.chunk_size)


def first_occurrence(max_k: int, max_m: int,
                     tables: ScanTables) -> FirstOccurrenceTable:
    """Scan lengths 1..max_m for the least length attaining each value
    1..max_k, with a witness word; stops early once all are found."""
    import numpy as np
    result = FirstOccurrenceTable()
    missing = list(range(1, max_k + 1))
    for m in range(1, max_m + 1):
        if not missing:
            break
        tables.build(m)
        for lo, eps in _chunks(tables, m):
            for k in missing:
                hits = np.flatnonzero(eps == k)
                if hits.size:
                    result.lengths[k] = m
                    result.witnesses[k] = tables.unrank(m, lo + int(hits[0]))
            missing = [k for k in missing if k not in result.lengths]
        result.max_length_scanned = m
    return result


def value_distribution(m: int, tables: ScanTables) -> DistributionRow:
    """Exact counts of each value over all valid words of length m."""
    import numpy as np
    tables.build(m)
    # bincount widens its input to intp, 8 bytes per word; values are
    # six-bit
    counts = np.zeros(64, dtype=np.int64)
    for _, eps in _chunks(tables, m):
        counts += np.bincount(eps, minlength=64)
    return DistributionRow(
        length=m,
        counts={v: int(c) for v, c in enumerate(counts) if c},
        total=count_words(m))


def periodic_scan(pattern: PeriodicPattern, max_length: int,
                  detect: bool = True) -> PeriodicScanResult:
    """Values of the pattern family up to max_length, the least length
    attaining each power of two, and the detected period if any."""
    table = PeriodicTable(pattern, max_length)
    values = table.values()
    milestones = power_milestones(values)
    report = detect_period(values, pattern, table) if detect else None
    return PeriodicScanResult(pattern, max_length, values, milestones, report)


def power_milestones(values) -> dict:
    """Least length attaining each power-of-two value present, from one
    pass over a sequence of ints indexed by length."""
    out = {}
    for length, value in enumerate(values):
        value = int(value)
        if value > 0 and not value & (value - 1) and value not in out:
            out[value] = length
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# serialization: CSV or JSON-lines, deterministic, each file starting with
# a '#' provenance line recording what produced it.

def _provenance(kind: str, params: str) -> str:
    return f"# pawnnim {__version__} {kind} {params}"


def write_report(result, format: str, fh) -> None:
    """Write a scan result to ``fh`` as CSV or JSON-lines."""
    if isinstance(result, FirstOccurrenceTable):
        fh.write(_provenance(
            "first-occurrence",
            f"max_length={result.max_length_scanned}") + "\n")
        items = sorted(result.lengths.items())
        if format == "csv":
            fh.write("k,m,witness\n")
            for k, m in items:
                fh.write(f"{k},{m},{result.witnesses[k]}\n")
        else:
            for k, m in items:
                fh.write(json.dumps({"k": k, "m": m,
                                     "witness": str(result.witnesses[k])})
                         + "\n")
        return
    if isinstance(result, DistributionRow):
        fh.write(_provenance("distribution", f"length={result.length}") + "\n")
        if format == "csv":
            fh.write("value,count,percent\n")
            for v, c in sorted(result.counts.items()):
                pct = two_sig_figs(100.0 * c / result.total)
                fh.write(f"{v},{c},{pct}\n")
        else:
            fh.write(json.dumps({
                "length": result.length,
                "counts": {str(v): c for v, c in sorted(result.counts.items())},
                "total": result.total}) + "\n")
        return
    if isinstance(result, PeriodicScanResult):
        fh.write(_provenance("periodic", result.pattern.describe()
                             + f" max_length={result.max_length}") + "\n")
        meta = {"period": result.pattern.period,
                "stopped": sorted(result.pattern.stopped),
                "file_origin": result.pattern.file_origin,
                "max_length": result.max_length}
        fh.write(f"#phase-table: {json.dumps(meta, sort_keys=True)}\n")
        if format == "csv":
            for length, value in enumerate(result.values):
                fh.write(f"{length},{int(value)}\n")
        else:
            for length, value in enumerate(result.values):
                fh.write(json.dumps({"length": length, "value": int(value)})
                         + "\n")
        return
    raise TypeError(f"cannot export {type(result).__name__}")
