import gc
import hashlib
import io

import numpy as np
import pytest

from pawnnim.engine import classify_colon, classify_move
from pawnnim.experiments import ScanTables, periodic_scan, write_report
from pawnnim.grundy import (GrundyTable, InsufficientTableError,
                            PeriodicTable, detect_period, epsilon,
                            epsilon_plain, loony_plain, mex, nim_sum,
                            verify_period_window)
from pawnnim.words import PeriodicPattern, Word, enumerate_words, \
    word_from_pattern


@pytest.fixture(scope="module")
def table():
    return GrundyTable()


def test_mex():
    assert mex([]) == 0
    assert mex([1]) == 0
    assert mex([0, 1]) == 2
    assert mex([0, 2, 3]) == 1
    assert mex([-1, 0, 1]) == 2  # loony markers are ignored


def test_nim_sum():
    assert nim_sum(1, 1) == 0
    assert nim_sum(1, 2) == 3
    assert nim_sum(0, 7) == 7
    with pytest.raises(ValueError):
        nim_sum(-1, 0)


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


def _as_int(cls):
    return -1 if cls.is_loony else cls.value


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
            moves = [_as_int(classify_move(w, k, table)) for k in range(m)]
            colons = {und: _as_int(classify_colon(bool(und), w, table))
                      for und in (0, 1) if not (und and m and w[0] == 1)}
            answers.append((w, epsilon(w, table), moves, colons))
    return table, answers, _live_phase_tables() - before


def test_single_words_agree_with_rank_scan(small_words):
    # ScanTables indexes words by rank and shares no code with the phase
    # tables behind GrundyTable, so it is an independent check
    scan = ScanTables()
    scan.build(14)
    for w, value, moves, colons in small_words[1]:
        m, rank = len(w), scan.rank(w)
        assert value == scan.EPS[m][rank], str(w)
        assert mex(moves) == value, str(w)
        for und, cls in colons.items():
            byte = scan.CL[m][und * scan.C[m] + rank]
            assert cls == (-1 if byte & 128 else byte), (und, str(w))


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
    assert table.move_classes(longer) == fresh.move_classes(0, 9)[0].tolist()
    assert table.move_classes(short) == fresh.move_classes(0, 4)[0].tolist()


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
        assert table.move_classes(w) == fresh.move_classes(0, m)[0].tolist()
        if m:
            assert table.colon_class(w) == fresh.CF[1 % period, m - 1], m


def test_long_word_records_one_entry():
    table = GrundyTable()
    table.ensure(Word("1000" * 50))
    assert len(table.eps) == 1 and len(table.colon) == 1
    with pytest.raises(ValueError):
        table.colon_class(Word(""))  # the empty word has no colon file


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
    for name in ("E", "CF", "CR"):
        assert np.array_equal(getattr(got, name),
                              getattr(fresh, name)[:, :n + 1]), (name, n)
    # move_classes reads lengths below L, so a table of length n serves
    # every L up to n + 1
    for L in sorted({0, 1, 2, 3, n // 2, n, n + 1} & set(range(n + 2))):
        assert np.array_equal(got.move_classes(None, L),
                              fresh.move_classes(None, L)), (L, n)


@pytest.mark.parametrize("pattern", [
    PeriodicPattern(1, frozenset()),
    PeriodicPattern(6, frozenset({4})),
    PeriodicPattern(14, frozenset({0, 5})),
    PeriodicPattern(5, frozenset({2}), file_origin=3),
    _PADDED20,
], ids=["p1", "p6", "p14", "p5-origin3", "padded20"])
def test_periodic_table_extend_matches_fresh(pattern, tmp_path):
    # the arrays derived from E, CF and CR are rebuilt whenever the table
    # grows or is loaded; growing in steps must match a one-shot fill
    fresh = PeriodicTable(pattern, 200)
    grown = PeriodicTable(pattern)
    for n in (0, 1, 2, 3, 37, 200):
        grown.extend(n)
        _assert_same_table(grown, fresh, n)
    path = tmp_path / "table.npz"
    PeriodicTable(pattern, 37).save(path)
    back = PeriodicTable.load(path)
    _assert_same_table(back, fresh, 37)
    back.extend(200)
    _assert_same_table(back, fresh, 200)


def test_detect_period_plain():
    pattern = PeriodicPattern(1, frozenset())
    t = PeriodicTable(pattern, 30)
    report = detect_period(t.values(), pattern, t)
    assert (report.preperiod, report.period) == (0, 10)
    assert report.verified
    assert report.window == (10, 23)


def test_detect_period_constant_and_absent():
    pattern = PeriodicPattern(1, frozenset())
    constant = detect_period(np.zeros(12, dtype=int), pattern)
    assert constant.period == 1 and constant.preperiod == 0
    assert not constant.verified  # no table given
    assert detect_period(np.arange(12), pattern) is None


def test_verify_period_window_plain():
    pattern = PeriodicPattern(1, frozenset())
    t = PeriodicTable(pattern, 23)
    assert verify_period_window(t, 0, 10)
    assert not verify_period_window(t, 0, 5)
    with pytest.raises(InsufficientTableError):
        verify_period_window(PeriodicTable(pattern, 20), 0, 10)


def test_periodic_table_save_load(tmp_path):
    pattern = PeriodicPattern(6, frozenset({4}))
    t = PeriodicTable(pattern, 40)
    path = tmp_path / "p6.npz"
    t.save(path)
    back = PeriodicTable.load(path)
    assert back.pattern == pattern
    assert back.n == 40
    assert np.array_equal(back.E, t.E)
    assert np.array_equal(back.move_classes(None, 40),
                          t.move_classes(None, 40))
    back.extend(80)
    fresh = PeriodicTable(pattern, 80)
    # the fill reads arrays derived from E, CF and CR that save does not
    # write, so a loaded table must rebuild them before it can classify or
    # extend
    for name in ("E", "CF", "CR"):
        assert np.array_equal(getattr(back, name), getattr(fresh, name)), name


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
def test_move_classes_single_phase_matches_all_phases(pattern):
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
        every = t.move_classes(None, L)
        assert every.shape == (p, L)
        for q in range(p):
            assert every[q].tolist() == direct(q, L), (q, L)
            assert np.array_equal(t.move_classes(q, L), every[q:q + 1]), (q, L)


def test_move_classes_rejects_phases_outside_the_period():
    t = PeriodicTable(PeriodicPattern(6, frozenset({4})), 10)
    assert t.move_classes(5, 5).shape == (1, 5)
    for phase in (6, -1):
        with pytest.raises(ValueError, match="outside 0..5"):
            t.move_classes(phase, 5)


def test_move_classes_rejects_lengths_the_table_lacks():
    t = PeriodicTable(PeriodicPattern(6, frozenset({4})))
    assert t.move_classes(0, 1).shape == (1, 1)
    for table, L in ((t, 2), (t, -1), (PeriodicTable(t.pattern, 10), 12)):
        with pytest.raises(ValueError, match=f"table of length {table.n}"):
            table.move_classes(0, L)


@pytest.mark.parametrize("change", [
    {"E": np.zeros((3, 5), dtype=np.int32),
     "CF": np.zeros((2, 2), dtype=np.int32)},
    {"CR": np.zeros((6, 41))},
    {"n": 50},
    {"n": -1},
])
def test_periodic_table_load_rejects_tampered_file(tmp_path, change):
    path = tmp_path / "p6.npz"
    PeriodicTable(PeriodicPattern(6, frozenset({4})), 40).save(path)
    with np.load(path) as data:
        fields = dict(data)
    np.savez(path, **{**fields, **change})
    with pytest.raises(ValueError):
        PeriodicTable.load(path)


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
