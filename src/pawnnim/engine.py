"""Move classification for pawn-game components.

Every move from a quiescent component [w] is entailing, but after the
forced exchanges it is either loony (loses against best play regardless of
the rest of the position) or equivalent to a non-entailing move to a Nim
value.  grundy.PeriodicTable computes these classes as ints, -1 for loony,
and a grundy.GrundyTable reads them for one word from the phase table of
the word's pattern; its ``colon_class`` gives the class of a move to a
colon component.
"""

from __future__ import annotations

from .words import Word, require_valid


def classify_move(word: Word, k: int, table) -> int:
    """Class of the move at file k (0-based) of the component ``word``:
    the value v of the equivalent move to *v, or -1 if it is loony."""
    require_valid(word)
    if not 0 <= k < len(word):
        raise IndexError("file index out of range")
    return table.move_classes(word)[k]
