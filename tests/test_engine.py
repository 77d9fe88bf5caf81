import pytest

from pawnnim.engine import (ColonContext, ColonDot, DotColon, EntailedOption,
                            InteriorColon, MoveClass, StoppedPairColon,
                            classify_colon, classify_move, entailed_options)
from pawnnim.grundy import GrundyTable
from pawnnim.words import Word, reverse

LOONY = MoveClass.loony()


@pytest.fixture(scope="module")
def table():
    return GrundyTable()


def test_colon_end_cases(table):
    # single-file tails are always loony, as is the short stopped-colon tail
    assert classify_colon(False, Word("0"), table) == LOONY
    assert classify_colon(False, Word("1"), table) == LOONY
    assert classify_colon(True, Word("00"), table) == LOONY
    assert classify_colon(True, Word("01"), table) == LOONY
    # length-1 tail behind a stopped colon file: loony (forces eps(10) = 0)
    assert classify_colon(True, Word("0"), table) == LOONY


def test_colon_values(table):
    assert classify_colon(False, Word("00"), table) == MoveClass.of(1)
    assert classify_colon(False, Word("0000"), table) == LOONY
    assert classify_colon(True, Word("000"), table) == LOONY


def test_colon_invariant_violation(table):
    with pytest.raises(ValueError):
        classify_colon(True, Word("10"), table)


def test_move_classes_of_the_star2_component(table):
    w = Word("1000")
    got = [classify_move(w, k, table) for k in range(4)]
    assert got == [LOONY, MoveClass.of(1), LOONY, MoveClass.of(0)]


def test_move_examples(table):
    assert classify_move(Word("00000"), 2, table) == MoveClass.of(0)
    assert classify_move(Word("00"), 0, table) == LOONY
    assert classify_move(Word("0"), 0, table) == MoveClass.of(0)
    assert classify_move(Word("1"), 0, table) == MoveClass.of(0)


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
                assert not classify_move(w, k, table).is_loony


def test_mirror_symmetry_exhaustive(table):
    from pawnnim.words import enumerate_words
    for m in range(1, 9):
        for w in enumerate_words(m):
            rw = reverse(w)
            for k in range(m):
                assert classify_move(w, k, table) == classify_move(
                    rw, m - 1 - k, table), (str(w), k)


def test_moveclass_repr():
    assert str(MoveClass.loony()) == "loony"
    assert str(MoveClass.of(2)) == "*2"
    assert MoveClass.loony().is_loony
    with pytest.raises(ValueError):
        MoveClass.of(-1)


# -- entailing-component taxonomy -------------------------------------------

def test_entailed_options_plain_colon():
    # capture resolves to the dot pair plus the rest; advance shortens
    opts = entailed_options(ColonContext(False, Word("00")))
    assert opts == [
        EntailedOption((ColonDot(False), Word("0"))),
        EntailedOption((ColonContext(False, Word("0")),)),
    ]
    opts = entailed_options(ColonContext(False, Word("10")))
    assert opts[1] == EntailedOption((ColonContext(True, Word("0")),))


def test_entailed_options_underlined_colon():
    opts = entailed_options(ColonContext(True, Word("00")))
    assert opts == [
        EntailedOption((ColonDot(True), Word("0"))),
        EntailedOption((StoppedPairColon(Word("0")),)),
    ]


def test_entailed_options_short_tails():
    assert entailed_options(ColonContext(False, Word("0"))) == [
        EntailedOption((ColonDot(False),)),
        EntailedOption(()),
    ]
    assert entailed_options(ColonDot(False)) == [EntailedOption(())]
    assert entailed_options(ColonDot(True)) == [EntailedOption(())]


def test_entailed_options_stopped_pair():
    assert entailed_options(StoppedPairColon(Word("0"))) == [
        EntailedOption(())]
    assert entailed_options(StoppedPairColon(Word("1"))) == [
        EntailedOption(())]
    assert entailed_options(StoppedPairColon(Word("00"))) == [
        EntailedOption((ColonContext(False, Word("0")),))]
    assert entailed_options(StoppedPairColon(Word("10"))) == [
        EntailedOption((ColonContext(True, Word("0")),))]


def test_entailed_options_dot_colon():
    assert entailed_options(DotColon(False, Word("00"))) == [
        EntailedOption((ColonContext(False, Word("00")),))]


def test_entailed_options_interior():
    opts = entailed_options(InteriorColon(Word("00"), False, Word("01")))
    assert opts == [
        EntailedOption((Word("0"), DotColon(False, Word("01")))),
        EntailedOption((DotColon(False, Word("00")), Word("1"))),
    ]
    # one-file sides collapse to nothing on capture
    opts = entailed_options(InteriorColon(Word("0"), False, Word("0")))
    assert opts == [
        EntailedOption((DotColon(False, Word("0")),)),
        EntailedOption((DotColon(False, Word("0")),)),
    ]
    with pytest.raises(ValueError):
        InteriorColon(Word(""), False, Word("0"))
    with pytest.raises(ValueError):
        InteriorColon(Word("1"), True, Word("0"))


def test_entailed_options_rejects_junk():
    with pytest.raises(TypeError):
        entailed_options(Word("00"))
    with pytest.raises(ValueError):
        entailed_options(ColonContext(False, Word("")))
