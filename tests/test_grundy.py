import gc
import hashlib
import io
import os
import random
import sysconfig
import tempfile
from array import array

import numpy as np
import pytest

from pawnnim import grundy
from pawnnim.engine import classify_move
from pawnnim.experiments import ScanTables, periodic_scan, write_report
from pawnnim.grundy import (GrundyTable, InsufficientTableError,
                            PeriodicTable, PeriodReport, detect_period,
                            epsilon, epsilon_plain, loony_plain,
                            verify_period_window)
from pawnnim.words import PeriodicPattern, Word, enumerate_words, \
    word_from_pattern

import reference_fill
import reference_period


@pytest.fixture(scope="module")
def table():
    return GrundyTable()


def test_epsilon_known_values(table):
    known = {"": 0, "0": 1, "1": 1, "00": 0, "10": 0, "000": 0,
             "0000": 1, "00000": 1, "0000000": 1, "1000": 2,
             "101001000": 4}
    for text, expected in known.items():
        assert epsilon(Word(text), table) == expected, text


def test_epsilon_minimal_power_witnesses(table):
    # published minimal-length components of value 8 and 16
    assert epsilon(Word("10100100010100001000"), table) == 8
    assert epsilon(
        Word("1010010001000000010100010000000101000100101"), table) == 16


def test_epsilon_rejects_invalid(table):
    with pytest.raises(ValueError):
        epsilon(Word("110"), table)


def test_epsilon_accepts_str(table):
    assert epsilon("1000", table) == 2


def test_epsilon_plain_closed_form():
    assert epsilon_plain(3) == 0
    assert epsilon_plain(5) == 1
    assert epsilon_plain(23) == 0
    assert [epsilon_plain(m) for m in range(10)] == [
        0, 1, 0, 0, 1, 1, 0, 1, 1, 0]
    with pytest.raises(ValueError):
        epsilon_plain(-1)


def test_epsilon_matches_plain_closed_form(table):
    for m in range(0, 160):
        assert epsilon(Word("0" * m), table) == epsilon_plain(m), m


def test_loony_plain():
    assert loony_plain(1)
    assert not loony_plain(3)
    assert loony_plain(6)
    assert [m for m in range(1, 12) if loony_plain(m)] == [1, 4, 6, 9, 11]


def test_epsilon_reversal_invariance(table):
    for m in range(1, 11):
        for w in enumerate_words(m):
            assert epsilon(w, table) == epsilon(w.reversed(), table), str(w)


def test_epsilon_bounded_by_length(table):
    for m in range(1, 11):
        for w in enumerate_words(m):
            assert 0 <= epsilon(w, table) <= m


def test_memo_idempotent(table):
    w = Word("100101")
    first = epsilon(w, table)
    snapshot = dict(table.eps)
    assert epsilon(w, table) == first
    assert table.eps == snapshot
    # recomputing any entry from scratch agrees with the stored value
    fresh = GrundyTable()
    assert epsilon(w, fresh) == first


def _live_phase_tables():
    gc.collect()
    return sum(isinstance(o, PeriodicTable) for o in gc.get_objects())


@pytest.fixture(scope="module")
def small_words():
    """One GrundyTable asked about every valid word of up to 14 files: its
    value, the class of each move and its colon classes.  Returns the
    table, the answers and how many phase tables the loop left alive."""
    before = _live_phase_tables()
    table = GrundyTable()
    answers = []
    for m in range(15):
        for w in enumerate_words(m):
            moves = [classify_move(w, k, table) for k in range(m)]
            colons = {und: table.colon_class(Word([und]) + w)
                      for und in (0, 1) if not (und and m and w[0] == 1)}
            answers.append((w, epsilon(w, table), moves, colons))
    return table, answers, _live_phase_tables() - before


def test_single_words_agree_with_rank_scan(small_words):
    # ScanTables indexes words by rank and shares no code with the phase
    # tables behind GrundyTable, so it is an independent check
    scan = ScanTables()
    scan.build(15)  # builds CL[14]
    values = [scan.values(m) for m in range(15)]
    for w, value, moves, colons in small_words[1]:
        m, rank = len(w), scan.rank(w)
        assert value == values[m][rank], str(w)
        # the value is the least class no move has; -1, loony, is no class
        assert value not in moves, str(w)
        assert set(range(value)) <= set(moves), str(w)
        for und, cls in colons.items():
            byte = scan.CL[m][und * scan.C[m] + rank]
            assert cls == (-1 if byte & 128 else byte), (und, str(w))


def test_random_longer_words_agree_with_rank_scan():
    # past the exhaustive check above: lengths 15..24 are read back from
    # the colon bytes, 25 and 26 from the value tiers the scan holds
    scan = ScanTables()
    scan.build(26)
    values = {m: scan.values(m) for m in range(15, 27)}
    table = GrundyTable()
    rng = random.Random(20261019)
    for _ in range(300):
        flags = []
        for _ in range(rng.randrange(15, 27)):
            flags.append(0 if flags and flags[-1] else rng.randrange(2))
        w = Word(flags)
        assert table.epsilon(w) == values[len(w)][scan.rank(w)], str(w)


def test_padded_tables_are_dropped(small_words):
    # a word with no shorter period is read from a table padded to period
    # n + 1, and a word shorter than two periods from a table few words
    # share; both are dropped, and only the tables of words spanning at
    # least two periods stay alive, one per pattern
    table, _, alive = small_words
    assert alive == len(table._tables)
    assert all(2 * t.p <= t.n for t in table._tables.values())
    # a longer word of a dropped table's pattern builds it again
    short, longer = Word("1000"), Word("100001000")
    table = GrundyTable()
    table.ensure(short)
    assert not table._tables
    fresh = PeriodicTable(PeriodicPattern(5, frozenset({0}), file_origin=5), 9)
    assert table.epsilon(longer) == fresh.E[0, 9]
    assert table.move_classes(longer) == fresh.move_classes(9)[0]
    assert table.move_classes(short) == fresh.move_classes(4)[0]
    # a recorded row holds its own n classes as ints, not every phase's
    assert all(type(row) is tuple and all(type(c) is int for c in row)
               for row in table._done.values())
    assert len(table._done[longer.key]) == 9


@pytest.mark.parametrize("unit", ["0", "1000", "0010"])
def test_shared_table_reads_each_word_at_its_length(unit):
    # words of one pattern share a phase table that a long word has grown
    # past the shorter ones; each must be read at its own length
    period = len(unit)
    pattern = PeriodicPattern(
        period, frozenset(t for t, f in enumerate(unit) if f == "1"),
        file_origin=period)
    table = GrundyTable()
    for m in [40, *range(40), 60]:
        w = Word((unit * 60)[:m])
        fresh = PeriodicTable(pattern, m)
        assert table.epsilon(w) == fresh.E[0, m], m
        assert table.move_classes(w) == fresh.move_classes(m)[0]
        if m:
            assert table.colon_class(w) == fresh.CF[1 % period, m - 1], m


def test_long_word_records_one_entry():
    table = GrundyTable()
    table.ensure(Word("1000" * 50))
    assert len(table.eps) == 1 and len(table.colon) == 1
    with pytest.raises(ValueError):
        table.colon_class(Word(""))  # the empty word has no colon file


# a move class is the value v of the equivalent move to *v, or -1 for
# loony; a colon class is read from the word made of the colon file and
# the tail

def test_colon_end_cases(table):
    # single-file tails are always loony, as is the short stopped-colon tail
    assert table.colon_class(Word("00")) == -1
    assert table.colon_class(Word("01")) == -1
    assert table.colon_class(Word("100")) == -1
    assert table.colon_class(Word("101")) == -1
    # length-1 tail behind a stopped colon file: loony (forces eps(10) = 0)
    assert table.colon_class(Word("10")) == -1


def test_colon_values(table):
    assert table.colon_class(Word("000")) == 1
    assert table.colon_class(Word("00000")) == -1
    assert table.colon_class(Word("1000")) == -1


def test_colon_invariant_violation(table):
    # the file next to a stopped colon file cannot be stopped
    with pytest.raises(ValueError):
        table.colon_class(Word("110"))


def test_move_classes_of_the_star2_component(table):
    w = Word("1000")
    assert [classify_move(w, k, table) for k in range(4)] == [-1, 1, -1, 0]


def test_move_examples(table):
    assert classify_move(Word("00000"), 2, table) == 0
    assert classify_move(Word("00"), 0, table) == -1
    assert classify_move(Word("0"), 0, table) == 0
    assert classify_move(Word("1"), 0, table) == 0


def test_move_rejects_bad_input(table):
    with pytest.raises(ValueError):
        classify_move(Word("011"), 0, table)
    with pytest.raises(IndexError):
        classify_move(Word("00"), 2, table)


def test_interior_both_stopped_neighbours_never_loony(table):
    # any interior move flanked by two stopped files is a plain exchange
    for text in ("101", "10101", "01010"):
        w = Word(text)
        for k in range(1, len(w) - 1):
            if w[k - 1] == 1 and w[k + 1] == 1:
                assert classify_move(w, k, table) >= 0


def test_mirror_symmetry_exhaustive(table):
    for m in range(1, 9):
        for w in enumerate_words(m):
            rw = w.reversed()
            for k in range(m):
                assert classify_move(w, k, table) == classify_move(
                    rw, m - 1 - k, table), (str(w), k)


# -- periodic families -------------------------------------------------------

def test_periodic_table_plain_matches_closed_form():
    vals = PeriodicTable(PeriodicPattern(1, frozenset()), 60).values()
    assert [int(v) for v in vals] == [epsilon_plain(m) for m in range(61)]


def test_periodic_table_agrees_with_direct(table):
    patterns = [PeriodicPattern(6, frozenset({4})),
                PeriodicPattern(14, frozenset({0, 5})),
                PeriodicPattern(4, frozenset({1})),
                PeriodicPattern(5, frozenset({2}), file_origin=3)]
    for pattern in patterns:
        vals = PeriodicTable(pattern, 60).values()
        for length in range(61):
            w = word_from_pattern(pattern, length)
            assert vals[length] == epsilon(w, table), (pattern, length)


# a word of 20 files with no shorter period, padded to period 21
_PADDED20 = PeriodicPattern(
    21, frozenset(t for t, f in enumerate("10100100010100001000") if f == "1"),
    file_origin=21)


def _assert_same_table(got, fresh, n):
    for name in ("E", "R", "F", "CF", "CR"):
        assert np.array_equal(getattr(got, name),
                              getattr(fresh, name)[:, :n + 1]), (name, n)
    assert got.n == n, n
    # move_classes reads lengths below L, so a table of length n serves
    # every L up to n + 1
    for L in sorted({0, 1, 2, 3, n // 2, n, n + 1} & set(range(n + 2))):
        assert np.array_equal(got.move_classes(L), fresh.move_classes(L)), \
            (L, n)


_PATTERNS = pytest.mark.parametrize("pattern", [
    PeriodicPattern(1, frozenset()),
    PeriodicPattern(6, frozenset({4})),
    PeriodicPattern(14, frozenset({0, 5})),
    PeriodicPattern(5, frozenset({2}), file_origin=3),
    _PADDED20,
    # the kernel's phase offsets, such as (L + p - 1) % p, wrap the most
    # at the shortest periods
    PeriodicPattern(2, frozenset({1})),
    PeriodicPattern(3, frozenset({0})),
], ids=["p1", "p6", "p14", "p5-origin3", "padded20", "p2", "p3"])


@_PATTERNS
def test_periodic_table_extend_matches_fresh(pattern, tmp_path):
    # E, R and F are widened with zeros whenever the table grows, and
    # load fills R and F from E alone; growing in steps, or from a loaded
    # table, must match a one-shot fill.  p6 first reaches *32 at length
    # 202
    fresh = PeriodicTable(pattern, 260)
    grown = PeriodicTable(pattern)
    for n in (0, 1, 2, 3, 37, 201, 202, 260):
        grown.extend(n)
        _assert_same_table(grown, fresh, n)
    path = tmp_path / "table.npz"
    PeriodicTable(pattern, 210).save(path)
    back = PeriodicTable.load(path)
    _assert_same_table(back, fresh, 210)
    back.extend(260)
    _assert_same_table(back, fresh, 260)


_P6 = PeriodicPattern(6, frozenset({4}))


def _assert_matches_reference(table, n):
    E, R, F = reference_fill.fill(table.pattern, n)
    for name, want in (("E", E), ("R", R), ("F", F)):
        assert np.array_equal(getattr(table, name), want), (name, n)
    return R, F


@_PATTERNS
def test_kernel_matches_reference_fill(pattern):
    # the compiled fill against the numpy one in tests/reference_fill.py,
    # past p6's first *32 at length 202; move_classes reads lengths below
    # L, so a table of length n classifies every L up to n + 1
    n = 260
    table = PeriodicTable(pattern, n)
    assert (table.E.max() >= 32) == (pattern == _P6)
    R, F = _assert_matches_reference(table, n)
    for L in range(n + 2):
        assert np.array_equal(table.move_classes(L),
                              reference_fill.move_classes(R, F, L)), L


@pytest.mark.slow
def test_kernel_matches_reference_fill_p6_21208():
    # the reference fill takes about 13 s here, the kernel under 1 s
    n = 21208
    table = PeriodicTable(_P6, n)
    R, F = _assert_matches_reference(table, n)
    for L in (2, 3, 202, 10007, n, n + 1):
        assert np.array_equal(table.move_classes(L),
                              reference_fill.move_classes(R, F, L)), L


@pytest.mark.parametrize("writable, seeded",
                         [(True, False), (False, False), (True, True)],
                         ids=["True", "False", "stale"])
def test_kernel_build(writable, seeded, tmp_path, monkeypatch):
    # a fresh cache gets one library named by the digest of the source and
    # the platform, and no temporary file; a cache that cannot be written
    # (here a path under a regular file) gets nothing, and the build goes
    # to a private directory that is removed once the library is loaded.
    # A build keeps the newest library of another source for its platform
    # and removes older ones, and keeps other platforms' builds and
    # unrelated files
    source = os.path.join(os.path.dirname(grundy.__file__), "_fill.c")
    with open(source, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    platform = sysconfig.get_platform()
    built = f"_fill-{digest}-{platform}.so"
    cache = tmp_path / "cache"
    kept = []
    if not writable:
        cache.write_text("")
        cache = cache / "sub"
    elif seeded:
        (cache / "pawnnim").mkdir(parents=True)
        newer, older = (f"_fill-{c * 64}-{platform}.so" for c in "01")
        kept = [f"_fill-{digest}-other-{platform}.so", "notes.txt", newer]
        for name in kept + [older]:
            (cache / "pawnnim" / name).write_text("")
        # by modification time, not by name
        os.utime(cache / "pawnnim" / older, (1e9, 1e9))
    private = tmp_path / "tmp"
    private.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    monkeypatch.setattr(tempfile, "tempdir", str(private))
    monkeypatch.setattr(grundy, "_KERNEL", None)
    kernel = grundy._kernel()
    assert grundy._kernel() is kernel
    if writable:
        assert sorted(os.listdir(cache / "pawnnim")) == sorted(kept + [built])
    else:
        assert not cache.exists()
    assert os.listdir(private) == []
    table = PeriodicTable(_P6, 40)
    assert table._kernel is kernel
    assert np.array_equal(table.E, reference_fill.fill(_P6, 40)[0])


def test_two_sources_sharing_a_cache_keep_their_builds(tmp_path,
                                                       monkeypatch):
    # two checkouts whose _fill.c differ take turns over one cache: once
    # each has built its kernel, neither build removes the other's, so
    # the next turn loads its own without compiling
    source = os.path.join(os.path.dirname(grundy.__file__), "_fill.c")
    other = tmp_path / "_fill.c"
    with open(source, "rb") as fh:
        mine = fh.read()
    other.write_bytes(mine + b"/* another checkout */\n")
    cache = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    monkeypatch.setattr(grundy, "_KERNEL", None)
    grundy._kernel()
    (built,) = os.listdir(cache / "pawnnim")
    theirs = built.replace(grundy._sha256(mine),
                           grundy._sha256(other.read_bytes()))
    grundy._compile(str(other), str(cache / "pawnnim" / theirs))
    assert sorted(os.listdir(cache / "pawnnim")) == sorted([built, theirs])

    def no_compiler(source, path):
        raise AssertionError(f"compiled {source} again")

    monkeypatch.setattr(grundy, "_compile", no_compiler)
    monkeypatch.setattr(grundy, "_KERNEL", None)
    grundy._kernel()  # this checkout's build, loaded from the cache
    assert sorted(os.listdir(cache / "pawnnim")) == sorted([built, theirs])


def test_single_words_across_the_mex_switch():
    # one GrundyTable grows one shared period-6 table a length at a time,
    # through the first *32 at length 202
    vals = PeriodicTable(_P6, 215).values()
    assert vals[202] == 32 and max(vals[:202]) < 32
    table = GrundyTable()
    got = [table.epsilon(word_from_pattern(_P6, n)) for n in range(195, 216)]
    assert got == vals[195:].tolist()


def test_detect_period_plain():
    pattern = PeriodicPattern(1, frozenset())
    t = PeriodicTable(pattern, 30)
    report = detect_period(t)
    assert (report.preperiod, report.period) == (0, 10)
    assert report.verified
    assert report.window == (10, 23)
    # length 21 shows period 10 twice over, short of the proof window
    report = detect_period(PeriodicTable(pattern, 21))
    assert report == PeriodReport(0, 10, False)
    assert report.window == (10, 23)


def test_detect_period_tries_multiples_of_the_pattern_period():
    # the values of an unstopped pattern written with period 3 repeat
    # every 10 files, but only a multiple of 3 can be proved
    pattern = PeriodicPattern(3, frozenset())
    t = PeriodicTable(pattern, 80)
    report = detect_period(t)
    assert (report.preperiod, report.period) == (0, 30)
    assert report.verified
    assert report.window == (30, 63)


def test_verify_period_window_plain():
    pattern = PeriodicPattern(1, frozenset())
    t = PeriodicTable(pattern, 23)
    assert verify_period_window(t, 0, 10)
    assert not verify_period_window(t, 0, 5)
    with pytest.raises(InsufficientTableError):
        verify_period_window(PeriodicTable(pattern, 20), 0, 10)


def test_verify_period_window_reads_the_colon_entries():
    # E repeats on the window (10..23) in each case below, but a colon
    # entry the moves read does not, so the window proves nothing
    pattern = PeriodicPattern(1, frozenset())
    for name, l in (("R", 23), ("R", 11), ("F", 23), ("F", 11)):
        t = PeriodicTable(pattern, 23)
        getattr(t, name)[0, l] ^= 1
        assert not verify_period_window(t, 0, 10), (name, l)
        # an entry of length 0 pairs only with length 10, which is made
        # from values of length 9, below the window
        t = PeriodicTable(pattern, 23)
        getattr(t, name)[0, 0] ^= 1
        assert verify_period_window(t, 0, 10), name


def test_verify_period_window_needs_a_multiple_of_the_pattern_period():
    # every phase of an unstopped pattern holds the same values, which
    # repeat every 10 files; a shift by 10 moves a subword's colon file to
    # another phase of a period-3 pattern
    t = PeriodicTable(PeriodicPattern(3, frozenset()), 63)
    assert (t.E == t.E[:1]).all()
    assert not verify_period_window(t, 0, 10)
    assert verify_period_window(t, 0, 30)


def test_verify_period_window_needs_a_shift_of_one_length_or_more():
    # the kernel compares entries a period apart, which a negative shift
    # would read past the end of the table
    t = PeriodicTable(PeriodicPattern(1, frozenset()), 30)
    for preperiod, period in ((-1, 10), (0, 0), (0, -6)):
        with pytest.raises(ValueError, match="preperiod >= 0"):
            verify_period_window(t, preperiod, period)


# tables of periods 1, 3, 6 and 14 that reach the proof window of the
# period found, where there is one; p6's values grow, and nothing repeats
_PERIOD_CASES = [(PeriodicPattern(1, frozenset()), 30),
                 (PeriodicPattern(3, frozenset()), 80),
                 (_P6, 300),
                 (PeriodicPattern(14, frozenset({0, 5})), 3941)]


@pytest.mark.parametrize("pattern, n", _PERIOD_CASES,
                         ids=["p1", "p3", "p6", "p14"])
def test_period_checks_match_the_numpy_reference(pattern, n):
    # the kernel's last_break against tests/reference_period.py, on the
    # table as filled and with one E, R or F entry flipped one length
    # below the window, at its start and at its end, in the first and the
    # last row
    table = PeriodicTable(pattern, n)

    def checks(preperiod, period):
        return [(module.detect_period(table),
                 module.verify_period_window(table, preperiod, period))
                for module in (grundy, reference_period)]

    report = detect_period(table)
    assert (report is None) == (pattern == _P6)
    # p6 is checked on the window of its own period from length 0
    preperiod, period = ((report.preperiod, report.period) if report
                         else (0, table.p))
    got, want = checks(preperiod, period)
    assert got == want
    assert got[1] == (report is not None)
    lo = preperiod + period
    for name in ("E", "R", "F"):
        for length in (lo - 1, lo, 2 * lo + 3):
            for q in (0, table.p - 1):
                getattr(table, name)[q, length] ^= 1
                got, want = checks(preperiod, period)
                assert got == want, (name, length, q)
                assert not got[1], (name, length, q)
                getattr(table, name)[q, length] ^= 1


def test_moves_of_a_run_of_phases(monkeypatch):
    # the kernel's moves reads one phase row; move_classes asks it once
    # per phase, and each row matches the numpy reference
    pattern = PeriodicPattern(14, frozenset({0, 5}))
    table = PeriodicTable(pattern, 60)
    _, R, F = reference_fill.fill(pattern, 60)
    for L in (0, 1, 2, 3, 30, 61):
        want = reference_fill.move_classes(R, F, L).tolist()
        assert table.move_classes(L) == want, L
        for q in (0, 5, 13):
            assert table._moves(L, q).tolist() == want[q], (L, q)
    # a single word's table is asked for phase 0's moves alone;
    # 0010010001 has no shorter period, so it is padded to period 11, with
    # phase t at word position t
    padded = PeriodicPattern(11, frozenset({2, 5, 9}), file_origin=11)
    want = PeriodicTable(padded, 10).move_classes(10)[0]
    asked = []
    moves = PeriodicTable._moves

    def recorded(self, L, q):
        asked.append(q)
        return moves(self, L, q)

    monkeypatch.setattr(PeriodicTable, "_moves", recorded)
    assert GrundyTable().move_classes(Word("0010010001")) == want
    assert asked == [0]


def test_periodic_table_save_load(tmp_path):
    pattern = PeriodicPattern(6, frozenset({4}))
    t = PeriodicTable(pattern, 40)
    path = tmp_path / "p6.npz"
    t.save(path)
    with np.load(path) as data:
        assert sorted(data.files) == ["E", "file_origin", "n", "period",
                                      "stopped"]
    back = PeriodicTable.load(path)
    assert back.pattern == pattern
    assert back.n == 40
    assert np.array_equal(back.E, t.E)
    assert np.array_equal(back.move_classes(40), t.move_classes(40))
    # E, R and F, int32 each, are the only int buffers of a table, filled
    # or loaded
    for table in (t, back):
        assert sum(a.itemsize * len(a) for a in vars(table).values()
                   if isinstance(a, array) and a.typecode == "i") == \
            12 * 6 * 41
    back.extend(80)
    fresh = PeriodicTable(pattern, 80)
    # save writes E alone, so a loaded table fills its R and F entries
    # before it can classify or extend
    for name in ("E", "R", "F"):
        assert np.array_equal(getattr(back, name), getattr(fresh, name)), name


@pytest.mark.slow
def test_periodic_table_long_save_load(tmp_path):
    # p6 to 21208, past the first *32 and a hundred times the tier-1 tables
    t = PeriodicTable(_P6, 21208)
    path = tmp_path / "p6.npz"
    t.save(path)
    back = PeriodicTable.load(path)
    for name in ("E", "R", "F"):
        assert np.array_equal(getattr(back, name), getattr(t, name)), name
    assert back.n == t.n


@pytest.mark.parametrize("pattern, digest", [
    (PeriodicPattern(6, frozenset({4})),
     "c67b8380b2c3bb45f96934c0137958b775b057039f5e6a8a6fde22cb49e53f76"),
    (PeriodicPattern(14, frozenset({0, 5})),
     "0f9d6985c97ba4d6e611cf4d78657d0c3e187d7e22a70f8ff8aa414374c1c895"),
    (PeriodicPattern(5, frozenset({2}), file_origin=3),
     "3722af0f3ed956a15a17ff43be901d647cdbeeb22c71ff6fb05aa5b71686d415"),
])
def test_periodic_table_pinned(pattern, digest):
    # sha256 of E, CF and CR to length 600 as int64: a change to how the
    # tables are filled must reproduce them exactly
    t = PeriodicTable(pattern, 600)
    got = hashlib.sha256(b"".join(a.astype(np.int64).tobytes()
                                  for a in (t.E, t.CF, t.CR))).hexdigest()
    assert got == digest


@pytest.mark.parametrize("pattern", [
    PeriodicPattern(6, frozenset({4})),
    PeriodicPattern(5, frozenset({0, 2})),
    PeriodicPattern(1, frozenset()),
    PeriodicPattern(14, frozenset({0, 5})),
    _PADDED20,
])
def test_move_classes_follow_the_move_rule(pattern):
    # the end-phase slices behind move_classes wrap around the phases and
    # have edge cases at short L; check them against the move rule read
    # cell by cell from E, CF and CR by start phase
    t = PeriodicTable(pattern, 200)
    p, E, CF, CR = t.p, t.E, t.CF, t.CR

    def direct(q, L):
        if L <= 1:
            return [0] * L
        row = [int(CF[(q + 1) % p, L - 1])]
        for k in range(1, L - 1):
            ok = ((pattern.flag(q + k - 1) or CR[q, k] >= 0)
                  and (pattern.flag(q + k + 1)
                       or CF[(q + k + 1) % p, L - 1 - k] >= 0))
            row.append(int(E[q, k - 1] ^ E[(q + k + 2) % p, L - 2 - k])
                       if ok else -1)
        return row + [int(CR[q, L - 1])]

    for L in list(range(9)) + [200]:
        every = t.move_classes(L)
        assert len(every) == p
        for q in range(p):
            assert every[q] == direct(q, L), (q, L)


def test_move_classes_rejects_lengths_the_table_lacks():
    t = PeriodicTable(PeriodicPattern(6, frozenset({4})))
    assert t.move_classes(1) == [[0]] * 6
    for table, L in ((t, 2), (t, -1), (PeriodicTable(t.pattern, 10), 12)):
        with pytest.raises(ValueError, match=f"table of length {table.n}"):
            table.move_classes(L)


_P6_40 = PeriodicTable(PeriodicPattern(6, frozenset({4})), 40)


def _edited(name, index, value):
    a = getattr(_P6_40, name).copy()
    a[index] = value
    return {name: a}


def _saved_with(path, change):
    """Save ``_P6_40`` to ``path`` with the fields in ``change`` replaced
    or added."""
    _P6_40.save(path)
    with np.load(path) as data:
        fields = dict(data)
    np.savez(path, **{**fields, **change})
    return path


_TAMPERED = [
    ({"E": np.zeros((3, 5), dtype=np.int32)}, "shape"),
    ({"E": _P6_40.E.astype(np.float64)}, "signed integer"),
    ({"n": 50}, "shape"),
    ({"n": -1}, "nonnegative"),
    # values outside 0..l, the second in a column no colon entry reads
    (_edited("E", (3, 7), -1), "0..l"),
    (_edited("E", (0, 40), 41), "0..l"),
    # a file holds E alone: the colon classes of an older format, or any
    # other array, are refused
    ({"CF": _P6_40.CF, "CR": _P6_40.CR}, "got CF, CR, E"),
    ({"CR": _P6_40.CR}, "got CR, E"),
    ({"R": _P6_40.R}, "got E, R"),
    # the pattern and the length are integers of the saved shapes: none is
    # truncated or read off an array of another shape
    ({"n": np.array([40, 41])}, "n must be an integer scalar"),
    ({"n": 40.9}, "n must be an integer scalar"),
    ({"period": np.array([6, 6])}, "period must be an integer scalar"),
    ({"period": 6.0}, "period must be an integer scalar"),
    ({"file_origin": 1.9}, "file_origin must be an integer scalar"),
    ({"stopped": np.array([[4]])}, "stopped must be a 1-d integer array"),
    ({"stopped": np.array([4.7])}, "stopped must be a 1-d integer array"),
    ({"stopped": 4}, "stopped must be a 1-d integer array"),
]


@pytest.mark.parametrize("change, message", _TAMPERED,
                         ids=[f"change{i}" for i in range(len(_TAMPERED))])
def test_periodic_table_load_rejects_tampered_file(tmp_path, change, message):
    with pytest.raises(ValueError, match=message):
        PeriodicTable.load(_saved_with(tmp_path / "p6.npz", change))


def test_periodic_table_load_narrows_int64_values(tmp_path):
    # a file may hold E as int64; the loaded table keeps int32 arrays,
    # 12 bytes per cell, as a filled one does
    back = PeriodicTable.load(_saved_with(tmp_path / "p6.npz",
                                          {"E": _P6_40.E.astype(np.int64)}))
    for name in ("E", "R", "F"):
        assert getattr(back, name).dtype == np.int32, name
        assert np.array_equal(getattr(back, name), getattr(_P6_40, name)), name
    assert sum(a.nbytes for a in (back.E, back.R, back.F)) == 12 * 6 * 41


def test_periodic_dump_records():
    pattern = PeriodicPattern(6, frozenset({4}))
    result = periodic_scan(pattern, 25, detect=False)
    buf = io.StringIO()
    write_report(result, "csv", buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# pawnnim ")
    assert lines[1].startswith("#phase-table:")
    assert lines[2:] == [f"{length},{value}"
                         for length, value in enumerate(result.values)]
