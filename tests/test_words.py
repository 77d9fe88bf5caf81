import pytest

from pawnnim.words import (PeriodicPattern, Word, count_words,
                           enumerate_words, validate, word_from_pattern)


def test_word_basics():
    w = Word("1000")
    assert len(w) == 4
    assert str(w) == "1000"
    assert w[0] == 1 and w[3] == 0
    assert list(w) == [1, 0, 0, 0]
    assert w[1:3] == Word("00")
    assert Word("10") + Word("01") == Word("1001")
    assert Word(w) == w
    assert hash(Word("1000")) == hash(w)


def test_word_rejects_bad_flags():
    with pytest.raises(ValueError):
        Word("102")
    with pytest.raises(ValueError):
        Word([0, 2])


def test_validate():
    assert validate(Word("1000")) is None
    assert validate(Word("")) is None
    assert validate(Word("0110")) == 1
    assert validate(Word("11")) == 0
    assert not Word("0110").is_valid


def test_reverse():
    assert Word("1000").reversed() == Word("0001")
    assert Word("").reversed() == Word("")
    assert Word("101").reversed() == Word("101")
    for text in ("100101", "0001", "1"):
        w = Word(text)
        assert w.reversed().reversed() == w
        assert w.reversed().is_valid


def test_enumerate_small():
    assert [str(w) for w in enumerate_words(1)] == ["0", "1"]
    assert [str(w) for w in enumerate_words(3)] == [
        "000", "001", "010", "100", "101"]
    assert [str(w) for w in enumerate_words(0)] == [""]


def test_enumerate_counts_match_fibonacci():
    for m in range(0, 15):
        seen = list(enumerate_words(m))
        assert len(seen) == count_words(m)
        assert len(set(seen)) == len(seen)
        assert all(w.is_valid for w in seen)
    assert count_words(12) == 377


def test_pattern_validation():
    PeriodicPattern(1, frozenset())
    PeriodicPattern(6, frozenset({4}))
    with pytest.raises(ValueError):
        PeriodicPattern(1, frozenset({0}))  # every file stopped
    with pytest.raises(ValueError):
        PeriodicPattern(6, frozenset({2, 3}))
    with pytest.raises(ValueError):
        PeriodicPattern(6, frozenset({5, 0}))  # adjacent across the seam
    with pytest.raises(ValueError):
        PeriodicPattern(0, frozenset())


def test_word_from_pattern():
    assert str(word_from_pattern(PeriodicPattern(1, frozenset()), 5)) == "00000"
    # files 4, 10, 16, ... stopped; within 9 files only file 4
    p6 = PeriodicPattern(6, frozenset({4}))
    assert str(word_from_pattern(p6, 9)) == "000100000"
    assert str(word_from_pattern(p6, 12)) == "000100000100"
    # files 5 and 14 stopped within the first 14
    p14 = PeriodicPattern(14, frozenset({0, 5}))
    assert str(word_from_pattern(p14, 14)) == "00001000000001"
    assert word_from_pattern(p6, 0) == Word("")


def test_word_from_pattern_origin_shift():
    p6 = PeriodicPattern(6, frozenset({4}), file_origin=4)
    assert str(word_from_pattern(p6, 7)) == "1000001"

