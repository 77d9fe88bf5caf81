"""Exhaustive and periodic scans: first occurrences of each value, value
distributions over all words of a length, and long periodic runs with
power-of-two milestones.

The exhaustive engine stores one value array per word length, indexed by
lexicographic rank.  Rank doubles as a content key, and the ranks of a
word's suffixes and reversed prefixes obey one-step recurrences in the
Fibonacci base, so a full sweep of length m costs O(m) array operations
per word with every subword value shared across words.  The words of one
length that share their first files are a run of consecutive ranks, and a
length is filled in such blocks: a move on a shared file reads one side
as a slice and the other as a single byte, and only the remaining files
step the rank recurrences and gather.
"""

from __future__ import annotations

import json
import mmap
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from queue import SimpleQueue
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


def _mask_dtype(top: int):
    """Move-mask dtype for a tier whose pieces have values up to ``top``.

    A class is the XOR of two such values, so it is below 2^b for b the
    bit length of ``top``; the mask needs a bit for each class and one more
    for the mex.  Values never exceed the length, at most 60, so uint64
    always holds."""
    classes = 1 << top.bit_length()
    return (np.uint16 if classes < 16 else np.uint32 if classes < 32
            else np.uint64)


def _mex(mask: np.ndarray, tmp: np.ndarray, out: np.ndarray) -> None:
    """Write the lowest unset bit of each move mask to ``out``; ``mask`` is
    overwritten and ``tmp`` is scratch of its dtype and length."""
    np.add(mask, 1, out=tmp)
    np.bitwise_and(np.invert(mask, out=mask), tmp, out=mask)
    np.log2(mask, out=out, casting="unsafe")


def _scratch(size: int, width) -> tuple:
    """One worker's arrays for blocks of up to ``size`` words: the ranks
    0..size-1, three int64 arrays, a mask of dtype ``width`` and two uint8
    arrays.  They are views of one anonymous memory map, which goes back
    to the system when the last view is dropped and leaves the allocator's
    thresholds alone."""
    dtypes = [np.dtype(t) for t in (np.int64,) * 4 + (width, np.uint8,
                                                     np.uint8)]
    buf = np.frombuffer(mmap.mmap(-1, size * sum(t.itemsize for t in dtypes)),
                        dtype=np.uint8)
    arrays, at = [], 0
    for t in dtypes:
        arrays.append(buf[at:at + size * t.itemsize].view(t))
        at += size * t.itemsize
    arrays[0][:] = np.arange(size)
    return tuple(arrays)


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
    word or of its reverse, and folds a loony byte as a shift past the
    mask's width, which numpy defines as 0.  An interior move at file k
    leaves a piece on each side, and a side is loony when bit 6 is set.
    The right side r is CL[m - k - 1] at the rank of w[k:]; the left side l
    is CL[k] at the rank of reversed w[:k+1], whose piece is the reverse of
    w[:k-1] and has its value.  The class is ``((l ^ r) & 127) | (l & 64)``:
    bit 7 drops out, and the class is 64 or more when either side is loony.
    The tables take 1 + C[m + 1] / C[m], about 2.6 bytes per word.

    A tier is filled in blocks: the words that share their first j files,
    for the least j that keeps every block within ``chunk_size`` words.
    Such words are consecutive ranks, and the word i of a block with prefix
    p has w[k:] at rank ``off_k + i`` for k <= j, where off_k counts the
    stopped files of p[k:].  So the move at a prefix file k reads its right
    side as a slice of CL[m - k - 1] and its left side as one byte of CL[k]
    at the rank of reversed p[:k+1].  The sweep over the remaining files
    gathers both sides, starting from suffix ranks 0..n-1.  The move masks
    are uint16, uint32 or uint64, the narrowest that holds every class of
    the tier (``_mask_dtype``).  A worker's scratch is sized to the tier's
    largest block and reused for each block it fills: four int64 arrays
    (the initial suffix ranks, the two ranks, and one for the rank step and
    the class bits), the mask and two uint8 side arrays, 36 to 42 bytes
    per rank.  At the default 2^16 blocks hold at most 46,368 words, so
    that is at most 2.0 MB per worker, at any length.  Blocks are
    independent, so worker threads and sequential runs produce identical
    tables.
    """

    def __init__(self, chunk_size: int = 1 << 16, workers: int = 1):
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got "
                             f"{chunk_size}")
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
            blocks = self._blocks(m)
            self._eps_blocks(m, blocks, eps)
            self._run_blocks(blocks, lambda block: self._cl_block(
                m, block[1], block[1] + block[2], cl))
        self.EPS.append(eps)
        self.CL.append(cl)

    def _blocks(self, m: int) -> list:
        """(prefix, first rank, word count) of each block of tier m, in
        rank order."""
        C = self.C
        j = next(j for j in range(m + 1) if C[m - j] <= self.chunk_size)
        blocks = []

        def grow(prefix, start):
            k = len(prefix)
            if k == j:
                # a stopped file is followed by an open one
                short = j < m and prefix[-1:] == (1,)
                blocks.append((prefix, start, C[m - j - short]))
                return
            grow(prefix + (0,), start)
            if not (prefix and prefix[-1]):
                grow(prefix + (1,), start + C[m - 1 - k])

        grow((), 0)
        return blocks

    def _eps_blocks(self, m: int, blocks: list, out: np.ndarray) -> None:
        """Fill ``out`` with the values of tier m, block by block.  The
        scratch is freed on return, before the colon table is written."""
        size = max(n for _, _, n in blocks)
        # the pieces of a move have at most m - 2 files
        width = _mask_dtype(max(int(e.max()) for e in self.EPS[:m - 1]))
        free = SimpleQueue()  # one scratch set per worker thread
        for _ in range(min(self.workers, len(blocks))):
            free.put(_scratch(size, width))

        def fill(block):
            scratch = free.get()
            self._eps_block(m, *block, width, scratch, out)
            free.put(scratch)

        self._run_blocks(blocks, fill)

    def _run_blocks(self, blocks: list, fn) -> None:
        if self.workers == 1 or len(blocks) == 1:
            for block in blocks:
                fn(block)
            return
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            list(pool.map(fn, blocks))

    def _eps_block(self, m: int, prefix: tuple, start: int, n: int,
                   width, scratch: tuple, out: np.ndarray) -> None:
        C, CL = self.C, self.CL
        iota, s, rr, d, mask, left, right = (a[:n] for a in scratch)
        # bit v of a mask: some move is worth v.  The rank step's scratch d
        # also holds the class bits that a fold ORs into the mask
        tmp = scratch[3].view(width)[:n]
        one = width(1)

        def fold(cls):
            # a loony class is 64 or more, a shift numpy defines as 0
            np.left_shift(one, cls, out=tmp)
            np.bitwise_or(mask, tmp, out=mask)

        # end move at file 0: colon file w[0] with tail w[1:] is the word
        np.left_shift(one, CL[m - 1][start:start + n], out=mask)
        # the moves at prefix files: w[k:] has rank off + i for word i, and
        # reversed w[:k+1] is reversed p[:k+1] for every word
        off, rho = start, 0
        for k, flag in enumerate(prefix):
            rho += flag * C[k]
            if 0 < k < m - 1:
                lbyte = int(CL[k][rho])
                if not lbyte & 64:  # else every class of the move is loony
                    np.bitwise_xor(CL[m - k - 1][off:off + n], lbyte & 63,
                                   out=right)
                    fold(np.bitwise_and(right, 127, out=right))
            off -= flag * C[m - 1 - k]
        np.copyto(s, iota)  # rank of the suffix w[k:]
        rr.fill(rho)  # rank of reversed w[:k]
        su, du = s.view(np.uint64), d.view(np.uint64)
        for k in range(len(prefix), m):
            interior = 0 < k < m - 1
            if interior:
                # the move at file k reads its right side from w[k:] and its
                # left side from reversed w[:k+1].  Ranks are in range by
                # construction; clip mode spares the buffered copy that
                # mode="raise" makes of ``out``
                np.take(CL[m - k - 1], s, out=right, mode="clip")
            # w[k] is stopped exactly when w[k:] has rank >= C[m-1-k]; move
            # it from the suffix onto the front of the reversed prefix.  s - c
            # wraps when w[k] is open, so the unsigned minimum keeps s, and
            # its sign bit masks C[k] out of the step of rr
            np.subtract(su, C[m - 1 - k], out=du)
            np.minimum(su, du, out=su)
            np.right_shift(d, 63, out=d)
            np.bitwise_and(np.invert(d, out=d), C[k], out=d)
            np.add(rr, d, out=rr)
            if interior:
                np.take(CL[k], rr, out=left, mode="clip")
                np.bitwise_xor(left, right, out=right)
                # bit 7 marks a loony colon class, which need not make its
                # side loony
                np.bitwise_and(right, 127, out=right)
                np.bitwise_and(left, 64, out=left)  # two loony sides cancel
                fold(np.bitwise_or(left, right, out=left))
        # mirror end move: file m-1, tail reversed w[:m-1]
        fold(np.take(CL[m - 1], rr, out=left, mode="clip"))
        _mex(mask, tmp, out[start:start + n])

    def _cl_block(self, m: int, lo: int, hi: int, out: np.ndarray) -> None:
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
        r = 0
        n = len(word)
        for i, flag in enumerate(word):
            if flag:
                r += self._count(n - 1 - i)
        return r


def _chunks(eps: np.ndarray, size: int):
    """(first rank, values) of each ``size``-word slice of a tier.  The
    readers below walk a tier this way so that the temporaries they make
    are of chunk size, not a byte or more per word of the tier."""
    for lo in range(0, eps.size, size):
        yield lo, eps[lo:lo + size]


def first_occurrence(max_k: int, max_m: int,
                     tables: ScanTables) -> FirstOccurrenceTable:
    """Scan lengths 1..max_m for the least length attaining each value
    1..max_k, with a witness word; stops early once all are found."""
    result = FirstOccurrenceTable()
    missing = list(range(1, max_k + 1))
    for m in range(1, max_m + 1):
        if not missing:
            break
        tables.build(m)
        for lo, eps in _chunks(tables.EPS[m], tables.chunk_size):
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
    tables.build(m)
    # bincount widens its input to intp, 8 bytes per word
    counts = np.zeros(int(tables.EPS[m].max()) + 1, dtype=np.int64)
    for _, eps in _chunks(tables.EPS[m], tables.chunk_size):
        counts += np.bincount(eps, minlength=counts.size)
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
