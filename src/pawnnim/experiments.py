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
    """Per-length value and colon-class arrays over all valid words.

    EPS[m][r] is the value of the rank-r word of length m.  CL[m] is a
    (2, count) array of colon classes for tails of length m, indexed by
    the colon-file flag and the tail's rank; -1 encodes loony.  A stopped
    first file adds C[m] to a rank, so the flat index ``c * C[m] + r`` into
    ``CL[m].ravel()`` is the rank of the length-(m + 1) word made of the
    colon file and the tail.  An end move therefore reads its colon class
    with one flat gather at the rank of the word or of its reverse.

    SIDE[j], uint8 and rank-indexed, serves the interior moves.  Read a
    length-j word u as the moving file u[0], its neighbour u[1] and the
    piece u[2:] left behind.  SIDE[j][rank u] is the value of u[2:], or a
    loony byte, one with bit 6 set, when u[1] is open and the colon class
    of (u[0]; u[1:]) is loony; values are at most the length, so below 64.
    The move at file k of a length-m word reads its right side r at the
    rank of w[k:] and its left side l at the rank of reversed w[:k+1],
    whose piece is the reverse of w[:k-1] and has its value.  Its class
    is ``(l ^ r) | (l & 64)``, loony when either side is.  Tier m reads
    SIDE[2..m-1], so SIDE[j] is built at the start of tier j + 1 and the
    top tier never has one (SIDE[0] and SIDE[1] are None): one byte per
    word below the top tier.

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
        self.CL = [np.full((2, 1), -1, dtype=np.int8)]
        self.SIDE = []  # lengths 0..max_length - 1; None below 2

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
        self.SIDE.append(self._side(m - 1) if m >= 3 else None)
        n_words = self._count(m)
        eps = np.empty(n_words, dtype=np.int8)
        if m == 1:
            eps[:] = 1
        else:
            self._run_chunks(n_words,
                             lambda lo, hi: self._eps_chunk(m, lo, hi, eps))
        self.EPS.append(eps)
        cl = np.full((2, n_words), -1, dtype=np.int8)
        if m >= 2:
            self._run_chunks(n_words,
                             lambda lo, hi: self._cl_chunk(m, lo, hi, cl))
        self.CL.append(cl)

    def _side(self, j: int) -> np.ndarray:
        C = self.C
        # a colon class is loony, -1 and so 0xFF here, or already the
        # value of u[2:]
        side = self.CL[j - 1].ravel()[:C[j]].view(np.uint8).copy()
        # u = 0 1 0...: a stopped neighbour is never loony
        side[C[j - 2]:C[j - 1]] = self.EPS[j - 2][:C[j - 1] - C[j - 2]]
        return side

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
        C, SIDE = self.C, self.SIDE
        CL = self.CL[m - 1].ravel()
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
            np.left_shift(np.uint64(1), cls.view(np.uint8), out=shifted)
            np.bitwise_or(mask, shifted, out=mask)

        def step(k):
            # w[k] is stopped exactly when w[k:] has rank >= C[m-1-k]; move
            # it from the suffix onto the front of the reversed prefix
            np.greater_equal(s, C[m - 1 - k], out=bit)
            np.subtract(s, np.multiply(bit, C[m - 1 - k], out=weighted), out=s)
            np.add(rr, np.multiply(bit, C[k], out=weighted), out=rr)

        # end move at file 0: colon file w[0] with tail w[1:] is the word
        fold(CL[lo:hi])
        step(0)
        for k in range(1, m - 1):
            # the move at file k reads its right side from w[k:] and its
            # left side from reversed w[:k+1].  Ranks are in range by
            # construction; clip mode spares the buffered copy that
            # mode="raise" makes of ``out``
            np.take(SIDE[m - k], s, out=right, mode="clip")
            step(k)
            np.take(SIDE[k + 1], rr, out=left, mode="clip")
            np.bitwise_xor(left, right, out=right)
            np.bitwise_and(left, 64, out=left)  # two loony sides cancel in xor
            fold(np.bitwise_or(left, right, out=left))
        step(m - 1)
        # mirror end move: file m-1, tail reversed w[:m-1]
        fold(CL[rr])
        np.add(mask, np.uint64(1), out=shifted)
        np.bitwise_and(np.invert(mask, out=mask), shifted, out=mask)
        out[lo:hi] = np.log2(mask)  # lowest unset bit of the move mask

    def _cl_chunk(self, m: int, lo: int, hi: int, out: np.ndarray) -> None:
        C, EPS, CL = self.C, self.EPS, self.CL
        # tails starting with 0 (rank < C[m-1]) and with 1 are two slices;
        # the tail itself is the flat index of its colon class at m - 1
        mid = min(max(C[m - 1], lo), hi)
        cap = np.concatenate((EPS[m - 1][lo:mid],
                              EPS[m - 1][mid - C[m - 1]:hi - C[m - 1]]))
        adv = CL[m - 1].ravel()[lo:hi]
        out[0, lo:hi] = np.where(adv == cap, -1, cap)
        if m >= 3 and lo < mid:
            # stopped colon file: the tail starts with 0, and the forced
            # advance leaves the colon file tail[1] with tail tail[2:]
            cap_u = cap[:mid - lo]
            adv_u = CL[m - 2].ravel()[lo:mid]
            out[1, lo:mid] = np.where(adv_u == cap_u, cap_u, -1)

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
                  table: Optional[PeriodicTable] = None,
                  detect: bool = True) -> PeriodicScanResult:
    """Values of the pattern family up to max_length, the least length
    attaining each power of two, and the detected period if any."""
    if table is None:
        table = PeriodicTable(pattern, max_length)
    else:
        table.extend(max_length)
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
