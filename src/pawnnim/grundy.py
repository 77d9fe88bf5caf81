"""Nim values of components: the (phase, length) engine that evaluates
periodic stopping patterns and, as one period of a pattern, single words;
the closed form for unstopped components; and period detection.

The engine's tables are ``array`` buffers that the compiled kernel
``_fill.c`` fills and reads, period detection and the proof window
included, so single words and periodic runs never import numpy.  Only a
table's numpy views (``E``, ``R``, ``F``, ``CF``, ``CR``), ``save`` and
``load`` import it.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from typing import Optional

from . import KernelError, reference
from .words import PeriodicPattern, Word, require_valid


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


class GrundyTable:
    """Values and move classes of single words, read from phase tables.

    A word is one period of a periodic stopping pattern: its smallest
    period P when P < n, else the word padded with an open file to period
    n + 1.  ``ensure`` fills the pattern's ``PeriodicTable`` to the word's
    length and records, under the word's key, the value ``E[0, n]`` in
    ``eps``, the move row, a tuple of n ints, in ``_done`` and, for a
    nonempty word, the class of a move to the colon component with colon
    file ``word[0]`` and tail ``word[1:]`` in ``colon``: the end move at
    file 0, ``row[0]``, or -1 for an empty tail.  It reads the table's
    buffers directly, so single words never import numpy.  Tables of words
    that span at least two periods (n >= 2P) are kept per pattern and
    extend in place, so words of one pattern (runs of open files, repeats
    of ``1000``) share one table.  Any other table, padded or not, is
    dropped once ``ensure`` has recorded its word's move row: a word with
    w[0] == w[n-1] already has period n - 1, so few such tables would ever
    be shared, and a longer word of the same pattern builds the table
    again.  A word with a short period costs one phase per length; a word
    with no shorter period costs O(n^3).
    """

    def __init__(self):
        self.eps = {}  # word key -> value
        self.colon = {}  # word key -> colon class, -1 for loony
        self._done = {}  # word key -> move row
        self._tables = {}  # PeriodicPattern -> shared PeriodicTable

    def ensure(self, word: Word) -> None:
        """Fill the phase table of ``word`` to its length and record the
        word's value, move row and colon class."""
        key = word.key
        if key in self._done:
            return
        require_valid(word)
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
        # a shared table may have grown past n, so read lengths <= n only;
        # E[0, n] is the n-th int of the buffer, whose first row is phase 0
        self.eps[key] = table._E[n]
        self._done[key] = row = tuple(table._moves(n, 0, 1))
        if n:
            self.colon[key] = row[0] if n > 1 else -1
        if 2 * period <= n:
            self._tables[pattern] = table

    def move_classes(self, word: Word) -> list:
        """Class of the move at each file of ``word``; -1 means loony."""
        self.ensure(word)
        return list(self._done[word.key])

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
    w = Word(word)
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
# only p entries per length: the value, and the colon entries of the
# subword read forwards and backwards behind the file adjacent to it, whose
# flag the phase determines.

class InsufficientTableError(ValueError):
    pass


_LOONY = 1 << 30  # the loony bit of a colon entry

_KERNEL = None  # the loaded ``_fill.c``


def _kernel():
    """The compiled fill: ``_fill.c``, built with ``cc`` on first use and
    cached as ``_fill-<sha256 of the source>-<platform>.so`` in
    ``$XDG_CACHE_HOME/pawnnim``, ``~/.cache/pawnnim`` by default."""
    global _KERNEL
    if _KERNEL is None:
        import ctypes
        import sysconfig
        source = os.path.join(os.path.dirname(__file__), "_fill.c")
        with open(source, "rb") as fh:
            digest = _sha256(fh.read())
        cache = os.path.join(os.path.expanduser(
            os.environ.get("XDG_CACHE_HOME") or "~/.cache"), "pawnnim")
        path = os.path.join(
            cache, f"_fill-{digest}-{sysconfig.get_platform()}.so")
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # not built yet, or a damaged build
            lib = _compile(source, path)
        # every call passes integers, then array addresses
        for name, ints, arrays in (("fill", 3, 5), ("colon", 3, 4),
                                   ("moves", 5, 3), ("last_break", 5, 1),
                                   ("scan_suffix", 2, 4),
                                   ("scan_block", 4, 7), ("scan_colon", 4, 4)):
            fn = getattr(lib, name)
            fn.argtypes = [ctypes.c_int64] * ints + [ctypes.c_void_p] * arrays
            fn.restype = None
        lib.last_break.restype = ctypes.c_int64
        _KERNEL = lib
    return _KERNEL


def _sha256(data: bytes) -> str:
    """The sha256 of ``data`` in hex, from the interpreter's own module
    where it has one: importing hashlib loads OpenSSL, which adds 3.6 MB
    to the resident memory of every process that fills a table."""
    from importlib import import_module
    for name in ("_sha2", "_sha256", "hashlib"):  # _sha2 from Python 3.12
        try:
            return import_module(name).sha256(data).hexdigest()
        except ImportError:
            pass


def _compile(source: str, path: str):
    """Compile ``source`` to ``path`` and load it.  The library is built
    beside ``path``, loaded and renamed into place, so that processes
    compiling at once each load a whole one, or where that directory
    cannot be written, in a private temporary directory removed once it is
    loaded.  A build renamed into place keeps the most recent other build
    for its platform there, of another version of the source, and removes
    the older ones, so that two checkouts sharing the cache each keep
    theirs.  Raises KernelError if cc is missing, fails or builds nothing
    loadable."""
    import ctypes
    import shutil
    import subprocess
    import tempfile
    cc = shutil.which("cc")
    if cc is None:
        raise KernelError(f"the compiled kernel needs a C compiler: no cc "
                          f"on PATH, and no loadable build of {source} in "
                          f"{os.path.dirname(path)}")
    private = None
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
        os.close(fd)
    except OSError:
        private = tempfile.mkdtemp(prefix="pawnnim-")
        tmp = os.path.join(private, os.path.basename(path))
    try:
        proc = subprocess.run([cc, "-O2", "-shared", "-fPIC", "-o", tmp,
                               source], capture_output=True, text=True)
        if proc.returncode:
            detail = (proc.stderr.strip().splitlines() or ["no message"])[0]
            raise KernelError(f"cc could not build the compiled kernel "
                              f"{source}: {detail}")
        try:
            lib = ctypes.CDLL(tmp)
        except OSError as exc:
            raise KernelError(f"cannot load the build of {source}: {exc}")
        if private is None:
            os.replace(tmp, path)
            tmp = path
            cache, name = os.path.split(path)
            kind = name.split("-", 2)[::2]  # "_fill" and the platform
            try:
                others = sorted(
                    (os.path.join(cache, old) for old in os.listdir(cache)
                     if old != name and old.split("-", 2)[::2] == kind),
                    key=os.path.getmtime)
                for old in others[:-1]:  # all but the newest
                    os.remove(old)
            except OSError:  # kept for another run to remove
                pass
        return lib
    finally:
        if private is not None:
            shutil.rmtree(private, ignore_errors=True)
        elif tmp != path and os.path.exists(tmp):  # a failed link removes it
            os.remove(tmp)


class PeriodicTable:
    """Values and colon entries for one stopping pattern, filled bottom up
    over lengths and extendable in place.

    Three int32 arrays of width n + 1, indexed by phase and length, 12
    bytes per cell: ``E[q, l]``, the value of the subword of length l at
    start phase q; ``R[q, l]``, the colon entry of that subword read
    backwards behind the colon file q + l; and ``F[e, l]``, the colon entry
    of the subword of length l that ends before end phase e, read forwards
    behind the colon file e - l - 1.  Each is held in one ``array("i")``
    buffer, ``_E``, ``_R`` and ``_F``, in C order, and ``E``, ``R`` and
    ``F`` are numpy views of them for readers of whole arrays.  The
    compiled kernel (``_fill.c``) states the entry format and the rules:
    its ``fill`` writes one length of all three arrays at every phase,
    lengths 0 and 1 included, ``colon`` the colon entries alone, for
    ``load``, ``moves`` the classes that ``move_classes`` returns, and
    ``last_break`` the last length at which a buffer breaks a period, for
    ``detect_period`` and ``verify_period_window``.  ``save`` writes E
    alone, and ``CF`` and ``CR`` decode F and R by start phase, -1 for
    loony.
    """

    def __init__(self, pattern: PeriodicPattern, max_length: int = 0):
        self._kernel = _kernel()
        self.pattern = pattern
        self.p = p = pattern.period
        # the flag of each phase over two periods, so that phase
        # (s + q) % p is index s + q for s, q < p
        self._flags2 = array("B", [pattern.flag(q) for q in range(2 * p)])
        self.n = 0
        self._E = self._R = self._F = array("i")
        self._grow(0)
        self._kernel.fill(p, 0, *self._args)
        if max_length:
            self.extend(max_length)

    def _view(self, buf: array):
        import numpy as np
        return np.frombuffer(buf, dtype=np.int32).reshape(self.p, -1)

    E = property(lambda self: self._view(self._E))
    R = property(lambda self: self._view(self._R))
    F = property(lambda self: self._view(self._F))

    @property
    def CF(self):
        import numpy as np
        F = self.F
        l = np.arange(F.shape[1])
        F = F[(np.arange(self.p)[:, None] + l) % self.p, l]
        return np.where(F & _LOONY, -1, F)

    @property
    def CR(self):
        import numpy as np
        R = self.R
        return np.where(R & _LOONY, -1, R)

    def extend(self, n: int) -> None:
        if n <= self.n:
            return
        self._grow(n)
        fill, p, args = self._kernel.fill, self.p, self._args
        for length in range(self.n + 1, n + 1):
            fill(p, length, *args)
        self.n = n

    def _grow(self, n: int) -> None:
        """Widen E, R and F to lengths 0..n with zeros, and record the row
        width and addresses the kernel reads: E, R, F, the flags and a mex
        scratch of n + 2 bytes."""
        p, width = self.p, n + 1
        old = len(self._E) // p
        grown = []
        for a in (self._E, self._R, self._F):
            b = array("i", [0]) * (p * width)
            for q in range(p):
                b[q * width:q * width + old] = a[q * old:(q + 1) * old]
            grown.append(b)
        self._E, self._R, self._F = grown
        self._seen = array("B", [0]) * (n + 2)
        self._args = (width, *(a.buffer_info()[0] for a in (
            *grown, self._flags2, self._seen)))

    def move_classes(self, L: int) -> list:
        """Class of the move at each file of the length-L word at every
        start phase: p lists of L ints, -1 for loony.  Reads only lengths
        below L.  Raises ValueError unless 0 <= L <= n + 1 for a table of
        length n."""
        out = self._moves(L, 0, self.p).tolist()
        return [out[q * L:(q + 1) * L] for q in range(self.p)]

    def _moves(self, L: int, first: int, count: int) -> array:
        """The classes ``move_classes`` gives at the ``count`` start phases
        from ``first`` on, one after another in one array."""
        # the arrays hold lengths 0..width - 1
        width, _, R, F = self._args[:4]
        if not 0 <= L <= width:
            raise ValueError(f"L = {L} is outside 0..{width} for a table "
                             f"of length {width - 1}")
        out = array("i", [0]) * (count * L)
        if out:  # an empty buffer has no address to write to
            self._kernel.moves(self.p, L, width, first, count, R, F,
                               out.buffer_info()[0])
        return out

    def values(self) -> array:
        """Component values for lengths 0..n at the pattern's file origin."""
        width = len(self._E) // self.p
        start = self.pattern.file_origin % self.p * width
        return self._E[start:start + width]

    def save(self, path) -> None:
        import numpy as np
        np.savez_compressed(
            path, E=self.E, n=self.n, period=self.pattern.period,
            stopped=np.array(sorted(self.pattern.stopped), dtype=np.int64),
            file_origin=self.pattern.file_origin)

    @classmethod
    def load(cls, path) -> "PeriodicTable":
        """Read back a table written by ``save``; R and F come from E through
        the kernel's ``colon``.  Raises ValueError unless the file holds just
        the fields ``save`` writes, n, period and file_origin are integer
        scalars, stopped is a 1-d integer array, n >= 0, E is a signed
        integer array of shape (period, n + 1) and E[q, l] lies in 0..l."""
        import numpy as np
        with np.load(path) as data:
            fields = ", ".join(sorted(data.files))
            if fields != "E, file_origin, n, period, stopped":
                raise ValueError(f"a saved table holds E alone, got {fields}")
            saved = {name: data[name] for name in data.files}
        for name, ndim in (("n", 0), ("period", 0), ("file_origin", 0),
                           ("stopped", 1)):
            a = saved[name]
            if a.dtype.kind not in "iu" or a.ndim != ndim:
                kind = "a 1-d integer array" if ndim else "an integer scalar"
                raise ValueError(f"{name} must be {kind}, got {a.dtype} "
                                 f"{a.shape}")
        pattern = PeriodicPattern(int(saved["period"]),
                                  frozenset(int(r) for r in saved["stopped"]),
                                  int(saved["file_origin"]))
        n, E = int(saved["n"]), saved["E"]
        if n < 0:
            raise ValueError(f"table length must be nonnegative, got {n}")
        shape = (pattern.period, n + 1)
        if E.dtype.kind != "i" or E.shape != shape:
            raise ValueError(f"E must be a signed integer array of shape "
                             f"{shape}, got {E.dtype} {E.shape}")
        if E.min() < 0 or (E > np.arange(n + 1)).any():
            raise ValueError("E[q, l] must lie in 0..l")
        table = cls(pattern)
        table._grow(n)
        table.E[:] = E
        colon, args = table._kernel.colon, table._args[:-1]
        for length in range(1, n + 1):
            colon(pattern.period, length, *args)
        table.n = n
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
    proper divisor of the family period).  It tries only multiples of the
    pattern's period p, the periods ``verify_period_window`` can prove.
    Without a table only the given value row is examined, which is an
    observation, never verified.  Either way the kernel's ``last_break``
    finds, for each candidate period P, the last length that breaks it.
    """
    if table is not None:
        kernel, p, nmax = table._kernel, table.p, table.n
        width, E = table._args[:2]
    else:
        row = array("i", map(int, values))
        kernel, p, nmax = _kernel(), 1, len(row) - 1
        width, E = len(row), row.buffer_info()[0]
    for P in range(p, nmax // 2 + 1, p):
        n0 = kernel.last_break(p, width, P, nmax, P, E) + 1 - P
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
    the preperiod.  The moves also read the colon entries R and F, so they
    must repeat too, from one length above the window's start: an entry of
    length l is made from values of length l - 1.  And the period must be
    a multiple of the pattern's period p, or a shift by it would move a
    subword's colon file to another phase.  Raises ValueError for a
    negative preperiod or a period below 1."""
    if preperiod < 0 or period < 1:
        raise ValueError(f"need preperiod >= 0 and period >= 1, got "
                         f"{preperiod} and {period}")
    hi = 2 * (preperiod + period) + 3
    lo = preperiod + period
    if table.n < hi:
        raise InsufficientTableError(
            f"table filled to {table.n}, need {hi}")
    if period % table.p:
        return False
    width, E, R, F = table._args[:4]
    last_break = table._kernel.last_break
    return all(last_break(table.p, width, start, hi, period, X) < start
               for X, start in ((E, lo), (R, lo + 1), (F, lo + 1)))
