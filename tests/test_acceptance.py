"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s to see them).  The slow marker covers the long scans;
everything else completes in about a minute total.
"""

import random

import pytest

from pawnnim import engine, oracle
from pawnnim.embed import embed, render
from pawnnim.experiments import (ScanTables, first_occurrence, periodic_scan,
                                 two_sig_figs, value_distribution)
from pawnnim.grundy import (GrundyTable, detect_period, epsilon,
                            epsilon_plain, loony_plain)
from pawnnim.reference import (DISTRIBUTION_PERCENT_2SF,
                               FIRST_OCCURRENCE_LENGTHS, P6_MILESTONES,
                               P6_SLOW_MAX_ALPHA, P14_PERIOD)
from pawnnim.words import (PeriodicPattern, Word, count_words,
                           enumerate_words)


def report(criterion, ok, detail):
    print(f"{criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def table():
    return GrundyTable()


def test_a1_plain_closed_form(table):
    limit = 2000
    epsilon(Word("0" * limit), table)  # one fill covers every shorter run
    bad = [m for m in range(limit + 1)
           if epsilon(Word("0" * m), table) != epsilon_plain(m)]
    report("A1", not bad,
           f"recursion equals closed form for all m <= {limit}"
           + (f"; first mismatch m={bad[0]}" if bad else ""))


def test_a2_loony_criterion(table):
    table.ensure(Word("0" * 200))
    bad = [m for m in range(1, 201)
           if (table.colon_class(Word("0" * (m + 1))) < 0) != loony_plain(m)]
    report("A2", not bad,
           "colon move on a plain run is loony exactly at m = 5k +- 1, "
           "m <= 200" + (f"; first mismatch m={bad[0]}" if bad else ""))


def test_a3_star2_component(table):
    w = Word("1000")
    value = epsilon(w, table)
    classes = [engine.classify_move(w, k, table) for k in range(4)]
    ok = value == 2 and classes == [-1, 1, -1, 0]
    report("A3", ok,
           f"epsilon(1000) = {value}, per-move classes {classes} "
           f"(-1 is loony)")


def test_a4_oracle_equivalence(table):
    words = [w for m in range(1, 7) for w in enumerate_words(m)]
    assert len(words) == 52
    bad = []
    for w in words:
        e = epsilon(w, table)
        pos = oracle.initial_position([w])
        for j in range(4):
            loses = not oracle.outcome(pos, j)
            if loses != (j == e):
                bad.append((str(w), j))
    report("A4", not bad,
           f"all 52 words of length <= 6, heaps <= 3: second-player win "
           f"exactly at the component value; {len(bad)} mismatches"
           + (f" (first {bad[0]})" if bad else ""))
    # this also adjudicates the stopped-colon short-tail rule
    assert oracle.oracle_epsilon("10") == 0


def test_a5_oracle_loony_agreement(table):
    bad = []
    for m in range(1, 6):
        for w in enumerate_words(m):
            for k in range(m):
                eng = engine.classify_move(w, k, table) < 0
                orc = oracle.oracle_is_loony(w, k, 3)
                if eng != orc:
                    bad.append((str(w), k))
    report("A5", not bad,
           f"engine and game-tree oracle agree on loony moves for every "
           f"word of length <= 5; {len(bad)} mismatches")


def test_a6_first_occurrence():
    expected = {k: FIRST_OCCURRENCE_LENGTHS[k] for k in range(1, 13)}
    found = first_occurrence(12, 30, ScanTables())
    got = dict(sorted(found.lengths.items()))
    ok = got == expected
    report("A6", ok, f"least lengths for values 1..12: {got}")
    check = GrundyTable()
    for k, w in found.witnesses.items():
        assert epsilon(w, check) == k and len(w) == found.lengths[k]


@pytest.mark.slow
def test_a6_first_occurrence_13_slow():
    expected = {k: FIRST_OCCURRENCE_LENGTHS[k] for k in range(1, 14)}
    found = first_occurrence(13, 32, ScanTables())
    got = dict(sorted(found.lengths.items()))
    witness = found.witnesses.get(13)
    ok = (got == expected and witness is not None
          and epsilon(witness, GrundyTable()) == 13)
    report("A6-slow", ok, f"least lengths for values 1..13: {got}; "
                          f"*13 witness {witness}")


@pytest.mark.slow
def test_a7_distribution_row_35():
    row = value_distribution(35, ScanTables())
    got = [two_sig_figs(100.0 * row.counts.get(v, 0) / row.total)
           for v in range(10)]
    expected = DISTRIBUTION_PERCENT_2SF[35]
    report("A7", got == expected,
           f"length-35 distribution, two significant figures: {got}")


def _p6_milestones(max_alpha):
    expected = {2 ** a: P6_MILESTONES[a] for a in range(3, max_alpha + 1)}
    pattern = PeriodicPattern(6, frozenset({4}))
    scan = periodic_scan(pattern, max(expected.values()) + 1, detect=False)
    got = {p: scan.milestones.get(p) for p in expected}
    return got == expected, f"literal phase (origin 1): {got}"


def test_a8_p6_milestones_default():
    ok, detail = _p6_milestones(8)
    report("A8", ok, "first lengths reaching *8..*256 with every sixth "
                     "file stopped; " + detail)


@pytest.mark.slow
def test_a8_p6_milestones_slow():
    ok, detail = _p6_milestones(P6_SLOW_MAX_ALPHA)
    report("A8-slow", ok, "first lengths reaching *512, *1024 and *2048; "
                          + detail)


def test_a9_periodicity():
    plain = PeriodicPattern(1, frozenset())
    from pawnnim.grundy import PeriodicTable
    t = PeriodicTable(plain, 23)
    rep = detect_period(t.values(), plain, t)
    plain_ok = (rep.period, rep.preperiod, rep.verified,
                rep.window) == (10, 0, True, (10, 23))

    p14 = PeriodicPattern(14, frozenset({0, 5}))
    t14 = PeriodicTable(p14, 5000)
    rep14 = detect_period(t14.values(), p14, t14)
    p14_ok = (rep14 is not None and rep14.period == P14_PERIOD
              and rep14.verified)
    report("A9", plain_ok and p14_ok,
           f"plain pattern: period 10, preperiod 0, verified through 23 "
           f"({plain_ok}); mod-14 pattern: period "
           f"{rep14.period if rep14 else None} (preperiod "
           f"{rep14.preperiod if rep14 else None}, verified "
           f"{rep14.verified if rep14 else None}) within length 5000")


GOLDEN = {
    ("00000",): """\
...........k
..........pP
......p...P.
ppppp..p....
......pP....
PPPPP.P.....
.......P..p.
..........Pp
...........K""",
    ("1000", "0"): """\
...........k
p.........pP
P.....p...P.
pppp...p.p..
......pP....
PPPP..P..P..
p......P..p.
P.........Pp
...........K""",
    ("1000",): """\
...........k
p.........pP
P.....p...P.
pppp...p....
......pP....
PPPP..P.....
p......P..p.
P.........Pp
...........K""",
}


def test_a10_embedding_goldens():
    bad = []
    for comps, golden in GOLDEN.items():
        got = render(embed(list(comps), 9, 12))
        if got != golden:
            bad.append(comps)
    report("A10", not bad,
           f"9x12 diagrams for {list(GOLDEN)} match the references "
           f"cell for cell; mismatches: {bad}")


def test_a11_property_suite(table):
    # reversal invariance, exhaustive through length 14
    for m in range(1, 15):
        for w in enumerate_words(m):
            assert epsilon(w, table) == epsilon(w.reversed(), table), str(w)
            assert epsilon(w, table) <= m
    # mirror symmetry of move classification, exhaustive through 12
    for m in range(1, 13):
        for w in enumerate_words(m):
            rw = w.reversed()
            for k in range(m):
                assert engine.classify_move(w, k, table) == \
                    engine.classify_move(rw, m - 1 - k, table), (str(w), k)
    # and on random longer words
    rng = random.Random(20240917)
    for _ in range(60):
        m = rng.randrange(15, 41)
        flags = []
        for i in range(m):
            flags.append(rng.randrange(2) if not (flags and flags[-1]) else 0)
        w = Word(flags)
        k = rng.randrange(m)
        assert engine.classify_move(w, k, table) == \
            engine.classify_move(w.reversed(), m - 1 - k, table)
        assert epsilon(w, table) == epsilon(w.reversed(), table) <= m
    # enumeration counts are Fibonacci numbers
    for m in range(26):
        assert sum(1 for _ in enumerate_words(m)) == count_words(m)
    # two-component sums vanish exactly when the values match
    bad = []
    for m1 in range(1, 6):
        for w1 in enumerate_words(m1):
            for m2 in range(1, 7 - m1):
                for w2 in enumerate_words(m2):
                    loses = not oracle.outcome(
                        oracle.initial_position([w1, w2]), 0)
                    if loses != (epsilon(w1, table) == epsilon(w2, table)):
                        bad.append((str(w1), str(w2)))
    report("A11", not bad,
           "reversal invariance (<=14 exhaustive, random to 40), mirror "
           "symmetry of move classes, value <= length, Fibonacci "
           f"enumeration counts (<=25), two-component sums (<=6); "
           f"{len(bad)} sum mismatches")
