"""Move classification for pawn-game components.

Every move from a quiescent component [w] is entailing, but after the
forced exchanges it is either loony (loses against best play regardless of
the rest of the position) or equivalent to a non-entailing move to a Nim
value.  grundy.PeriodicTable computes these classes, for single words and
periodic families alike, and a grundy.GrundyTable reads them for one word
from the phase table of the word's pattern.  This module turns them into
``MoveClass`` values: ``classify_move`` for a move on a file of a
component, ``classify_colon`` for a move to a colon component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .words import Word, require_valid


@dataclass(frozen=True)
class MoveClass:
    """Outcome class of a move: loony, or equivalent to a move to *value."""

    value: Optional[int]

    @classmethod
    def loony(cls) -> "MoveClass":
        return cls(None)

    @classmethod
    def of(cls, value: int) -> "MoveClass":
        if value < 0:
            raise ValueError("Nim value must be nonnegative")
        return cls(value)

    @property
    def is_loony(self) -> bool:
        return self.value is None

    def __str__(self) -> str:
        return "loony" if self.value is None else f"*{self.value}"


def _from_int(c: int) -> MoveClass:
    return MoveClass(None) if c < 0 else MoveClass(c)


def classify_colon(underlined: bool, tail: Word, table) -> MoveClass:
    """Classify a move to the colon component with the given tail, read
    from the table's entry for the word made of the colon file and the
    tail."""
    require_valid(tail)
    if underlined and tail and tail[0] == 1:
        raise ValueError("file next to a stopped colon file cannot be "
                         "stopped")
    return _from_int(table.colon_class(Word([int(underlined)]) + tail))


def classify_move(word: Word, k: int, table) -> MoveClass:
    """Classify the move at file k (0-based) of the component ``word``."""
    require_valid(word)
    if not 0 <= k < len(word):
        raise IndexError("file index out of range")
    return _from_int(table.move_classes(word)[k])
