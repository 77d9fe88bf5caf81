"""Move classification for pawn-game components.

Every move from a quiescent component [w] is entailing, but after the
forced exchanges it is either loony (loses against best play regardless of
the rest of the position) or equivalent to a non-entailing move to a Nim
value.  The classification is a recursion over the colon components that
the forced replies produce.  It is computed once, for single words and
periodic families alike, by grundy.PeriodicTable.move_classes; this module
reads the classes a grundy.GrundyTable recorded, and transcribes the
taxonomy of entailing components with their forced options.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .words import Word, validate


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


@dataclass(frozen=True)
class ColonContext:
    """A colon component [:w] (plain) or an underlined one (stopped colon
    file).  ``tail`` runs from the file next to the colon inward."""

    underlined: bool
    tail: Word

    def __post_init__(self):
        if self.underlined and self.tail and self.tail[0] == 1:
            raise ValueError("file next to a stopped colon file cannot be "
                             "stopped")


@dataclass(frozen=True)
class ColonDot:
    """[:.] or its underlined form: colon pawn plus one unopposed pawn;
    entails the closing exchange."""

    underlined: bool = False


@dataclass(frozen=True)
class DotColon:
    """[.:w]: an unopposed pawn next to the colon file; the single forced
    move recaptures, producing [:w]."""

    underlined: bool
    tail: Word


@dataclass(frozen=True)
class StoppedPairColon:
    """A closed stopped file still guarding the adjacent colon file; the
    attacked pawn must advance, never capture."""

    tail: Word


@dataclass(frozen=True)
class InteriorColon:
    """Colon file strictly inside a component: ``left`` and ``right`` are
    the nonempty file runs on either side of the colon."""

    left: Word
    colon_stopped: bool
    right: Word

    def __post_init__(self):
        if not self.left or not self.right:
            raise ValueError("interior colon needs files on both sides")
        if self.colon_stopped and (self.left[-1] == 1 or self.right[0] == 1):
            raise ValueError("stopped colon file next to a stopped file")


@dataclass(frozen=True)
class EntailedOption:
    """One forced reply: the component list it leaves behind (empty tuple
    means a move to 0)."""

    components: tuple


def entailed_options(ctx) -> "list[EntailedOption]":
    """Forced options of an entailing component, one per legal reply.

    Components inside an option are reported in canonical orientation
    (colon at the left end); mirror images are identified.
    """
    if isinstance(ctx, ColonDot):
        return [EntailedOption(())]
    if isinstance(ctx, DotColon):
        return [EntailedOption((ColonContext(ctx.underlined, ctx.tail),))]
    if isinstance(ctx, StoppedPairColon):
        t = ctx.tail
        if len(t) == 0:
            raise ValueError("malformed component: empty tail")
        if len(t) == 1:
            return [EntailedOption(())]
        return [EntailedOption((ColonContext(t[0] == 1, t[1:]),))]
    if isinstance(ctx, ColonContext):
        t = ctx.tail
        if len(t) == 0:
            raise ValueError("malformed component: empty tail")
        rest = t[1:]
        capture = (ColonDot(ctx.underlined),) + ((rest,) if rest else ())
        if not ctx.underlined:
            advance = (ColonContext(t[0] == 1, rest),) if rest else ()
        else:
            advance = (StoppedPairColon(rest),) if rest else ()
        return [EntailedOption(capture), EntailedOption(advance)]
    if isinstance(ctx, InteriorColon):
        w1, w2 = ctx.left[:-1], ctx.right[1:]
        left_cap = ((w1,) if w1 else ()) + (
            DotColon(ctx.colon_stopped, ctx.right),)
        right_cap = (DotColon(ctx.colon_stopped, ctx.left.reversed()),) + (
            (w2,) if w2 else ())
        return [EntailedOption(left_cap), EntailedOption(right_cap)]
    raise TypeError(f"not an entailing component: {ctx!r}")


# ---------------------------------------------------------------------------
# public wrappers

def classify_colon(underlined: bool, tail: Word, table) -> MoveClass:
    """Classify a move to the colon component with the given tail.

    The table is filled on demand with the word made of the colon file
    and the tail.
    """
    if not tail.is_valid:
        raise ValueError("invalid word: adjacent stopped files at index "
                         f"{validate(tail)}")
    if underlined and tail and tail[0] == 1:
        raise ValueError("file next to a stopped colon file cannot be "
                         "stopped")
    word = Word([int(underlined)]) + tail
    if word.key not in table.colon:
        table.ensure(word)
    return _from_int(table.colon[word.key])


def classify_move(word: Word, k: int, table) -> MoveClass:
    """Classify the move at file k (0-based) of the component ``word``."""
    if not word.is_valid:
        raise ValueError("invalid word: adjacent stopped files at index "
                         f"{validate(word)}")
    if not 0 <= k < len(word):
        raise IndexError("file index out of range")
    return _from_int(table.move_classes(word)[k])
