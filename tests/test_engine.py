import pytest

from pawnnim.engine import MoveClass, classify_colon, classify_move
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

