"""Exhaustive and periodic scans: first occurrences of each value, value
distributions over all words of a length, and long periodic runs with
power-of-two milestones.

The exhaustive engine stores one value array per word length, indexed by
lexicographic rank.  Rank doubles as a content key, and the ranks of a
word's suffixes and reversed prefixes obey one-step recurrences in the
Fibonacci base, so a full sweep of length m costs O(m) array operations
per word with every subword value shared across words.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .grundy import PeriodicTable, PeriodReport, detect_period
from .words import PeriodicPattern, Word, count_words

MAX_SCAN_LENGTH = 60  # value bitmasks live in uint64


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
    values: np.ndarray                       # indexed by length, 0..max
    milestones: dict                         # 2**alpha -> least length
    report: Optional[PeriodReport]


def two_sig_figs(x: float) -> float:
    """Round to two significant figures (for percentage tables)."""
    if x == 0:
        return 0.0
    import math
    return round(x, 1 - int(math.floor(math.log10(abs(x)))))


class ScanTables:
    """Per-length value and colon tables over all valid words.

    EPS[m][r] is the value of the rank-r word of length m.  CL[m], uint8
    with C[m + 1] entries, serves the colon words u of length m + 1: the
    colon file u[0] and a tail u[1:] of length m.  It is indexed by the
    rank of u, which is ``c * C[m] + r`` for a colon file that is stopped
    (c = 1) or open (c = 0) and a tail of rank r.  Each byte holds

    - bits 0-5: the value of u[2:], the piece a capture leaves; values are
      at most the length, so below 64;
    - bit 7: the colon class of (u[0]; u[1:]) is loony;
    - bit 6: bit 7 is set and u[1] is open.

    A colon class that is not loony is the value of u[2:], so a byte below
    64 is the class itself.  An end move reads CL[m - 1] at the rank of the
    word or of its reverse, and folds a loony byte as a shift of 64 or
    more, which numpy defines as 0.  An interior move at file k leaves a
    piece on each side, and a side is loony when bit 6 is set.  The right
    side r is CL[m - k - 1] at the rank of w[k:]; the left side l is CL[k]
    at the rank of reversed w[:k+1], whose piece is the reverse of
    w[:k-1] and has its value.  The class is ``((l ^ r) & 127) | (l & 64)``:
    bit 7 drops out, and the class is 64 or more when either side is loony.
    The tables take 1 + C[m + 1] / C[m], about 2.6 bytes per word.

    Tiers are filled in chunks of ``chunk_size`` consecutive ranks.  A
    chunk holds one file-bit row and seven chunk-length rank and scratch
    arrays that every step of the sweep reuses in place, 43 bytes per
    rank, plus an 8-byte temporary for the final log2: 3.3 MB in all for
    the default 2^16 ranks, at any length.  Chunks are independent, so worker
    threads and sequential runs produce identical tables.
    """

    def __init__(self, chunk_size: int = 1 << 16, workers: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        self.chunk_size = chunk_size
        self.workers = workers
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

    def _tier(self, m: int) -> None:
        n_words = self._count(m)
        eps = np.empty(n_words, dtype=np.int8)
        cl = np.empty(self._count(m + 1), dtype=np.uint8)
        if m == 1:
            eps[:] = 1
            # 00, 01 and 10 are loony and leave an empty piece; 01 has a
            # stopped u[1]
            cl[:] = (192, 128, 192)
        else:
            self._run_chunks(n_words,
                             lambda lo, hi: self._eps_chunk(m, lo, hi, eps))
            self._run_chunks(n_words,
                             lambda lo, hi: self._cl_chunk(m, lo, hi, cl))
        self.EPS.append(eps)
        self.CL.append(cl)

    def _run_chunks(self, total: int, fn) -> None:
        spans = [(lo, min(lo + self.chunk_size, total))
                 for lo in range(0, total, self.chunk_size)]
        if self.workers == 1 or len(spans) == 1:
            for lo, hi in spans:
                fn(lo, hi)
            return
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            list(pool.map(lambda span: fn(*span), spans))

    def _eps_chunk(self, m: int, lo: int, hi: int, out: np.ndarray) -> None:
        C, CL = self.C, self.CL
        n = hi - lo
        s = np.arange(lo, hi, dtype=np.int64)  # rank of the suffix w[k:]
        rr = np.zeros(n, dtype=np.int64)  # rank of reversed w[:k]
        weighted = np.empty(n, dtype=np.int64)
        bit = np.empty(n, dtype=bool)
        left, right = np.empty(n, np.uint8), np.empty(n, np.uint8)
        mask = np.zeros(n, dtype=np.uint64)  # bit v set: some move is worth v
        shifted = np.empty(n, dtype=np.uint64)

        def fold(cls):
            # a loony class is a byte of 64 or more, a shift numpy defines as 0
            np.left_shift(np.uint64(1), cls, out=shifted)
            np.bitwise_or(mask, shifted, out=mask)

        def step(k):
            # w[k] is stopped exactly when w[k:] has rank >= C[m-1-k]; move
            # it from the suffix onto the front of the reversed prefix
            np.greater_equal(s, C[m - 1 - k], out=bit)
            np.subtract(s, np.multiply(bit, C[m - 1 - k], out=weighted), out=s)
            np.add(rr, np.multiply(bit, C[k], out=weighted), out=rr)

        # end move at file 0: colon file w[0] with tail w[1:] is the word
        fold(CL[m - 1][lo:hi])
        step(0)
        for k in range(1, m - 1):
            # the move at file k reads its right side from w[k:] and its
            # left side from reversed w[:k+1].  Ranks are in range by
            # construction; clip mode spares the buffered copy that
            # mode="raise" makes of ``out``
            np.take(CL[m - k - 1], s, out=right, mode="clip")
            step(k)
            np.take(CL[k], rr, out=left, mode="clip")
            np.bitwise_xor(left, right, out=right)
            # bit 7 marks a loony colon class, which need not make its side
            # loony
            np.bitwise_and(right, 127, out=right)
            np.bitwise_and(left, 64, out=left)  # two loony sides cancel in xor
            fold(np.bitwise_or(left, right, out=left))
        step(m - 1)
        # mirror end move: file m-1, tail reversed w[:m-1]
        fold(CL[m - 1][rr])
        np.add(mask, np.uint64(1), out=shifted)
        np.bitwise_and(np.invert(mask, out=mask), shifted, out=mask)
        out[lo:hi] = np.log2(mask)  # lowest unset bit of the move mask

    def _cl_chunk(self, m: int, lo: int, hi: int, out: np.ndarray) -> None:
        C, EPS, CL = self.C, self.EPS, self.CL
        # tails starting with 0 (rank < C[m-1]) and with 1 are two slices;
        # a tail's rank indexes its own colon byte at m - 1, and cap is the
        # value of tail[1:], which is u[2:]
        mid = min(max(C[m - 1], lo), hi)
        cap = np.concatenate((EPS[m - 1][lo:mid],
                              EPS[m - 1][mid - C[m - 1]:hi - C[m - 1]]
                              )).view(np.uint8)
        # open colon file: loony when the advance is worth the capture.  A
        # loony byte is at least 128 and equals no value
        loony = (CL[m - 1][lo:hi] == cap).view(np.uint8)
        out[lo:hi] = cap | loony << 7
        out[lo:mid] |= loony[:mid - lo] << 6  # u[1] = tail[0] is open
        # stopped colon file: the tail starts with 0, and the forced advance
        # leaves the colon file tail[1] with tail tail[2:]
        cap_u = cap[:mid - lo]
        loony_u = (CL[m - 2][lo:mid] != cap_u).view(np.uint8)
        # u[1] = tail[0] is open, so a loony class sets both bits
        out[C[m] + lo:C[m] + mid] = cap_u | loony_u * 192

    # -- queries ------------------------------------------------------------

    def unrank(self, m: int, rank: int) -> Word:
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
        r = 0
        n = len(word)
        for i, flag in enumerate(word):
            if flag:
                r += self._count(n - 1 - i)
        return r


def first_occurrence(max_k: int, max_m: int,
                     tables: ScanTables) -> FirstOccurrenceTable:
    """Scan lengths 1..max_m for the least length attaining each value
    1..max_k, with a witness word; stops early once all are found."""
    result = FirstOccurrenceTable()
    for m in range(1, max_m + 1):
        missing = [k for k in range(1, max_k + 1) if k not in result.lengths]
        if not missing:
            break
        tables.build(m)
        eps = tables.EPS[m]
        for k in missing:
            hits = np.flatnonzero(eps == k)
            if hits.size:
                result.lengths[k] = m
                result.witnesses[k] = tables.unrank(m, int(hits[0]))
        result.max_length_scanned = m
    return result


def value_distribution(m: int, tables: ScanTables) -> DistributionRow:
    """Exact counts of each value over all valid words of length m."""
    tables.build(m)
    eps = tables.EPS[m]
    # bincount widens its input to intp; counting chunk by chunk keeps
    # that copy at chunk size instead of 8 bytes per word of the tier
    counts = np.zeros(int(eps.max()) + 1, dtype=np.int64)
    for lo in range(0, eps.size, tables.chunk_size):
        counts += np.bincount(eps[lo:lo + tables.chunk_size],
                              minlength=counts.size)
    return DistributionRow(
        length=m,
        counts={v: int(c) for v, c in enumerate(counts) if c},
        total=count_words(m))


def periodic_scan(pattern: PeriodicPattern, max_length: int,
                  detect: bool = True) -> PeriodicScanResult:
    """Values of the pattern family up to max_length, the least length
    attaining each power of two, and the detected period if any."""
    table = PeriodicTable(pattern, max_length)
    values = table.values()[:max_length + 1]
    milestones = power_milestones(values)
    report = detect_period(values, pattern, table) if detect else None
    return PeriodicScanResult(pattern, max_length, values, milestones, report)


def power_milestones(values: np.ndarray) -> dict:
    """Least length attaining each power-of-two value present."""
    out = {}
    top = int(values.max(initial=0))
    power = 1
    while power <= top:
        hits = np.flatnonzero(values == power)
        if hits.size:
            out[power] = int(hits[0])
        power *= 2
    return out


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
