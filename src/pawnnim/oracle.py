"""Ground-truth adjudication by exhaustive search of the raw pawns game.

The board is 3 rows by n files.  White pawns start on row 1 and move up,
Black pawns start on row 3 and move down; single-square advances and
diagonal captures only.  Reaching the far row on an unstopped file wins
immediately; on a stopped file the pawn just goes inert.  Otherwise the
player without a move loses.  An attached Nim heap models extra *k
summands: either player may shrink it to any smaller size.

The search knows nothing about components or colon notation, so it is an
independent check on the classification engine.  ``legal_moves`` states
the pawn rules square by square: a pawn steps one row toward its far row,
onto the empty square ahead on its own file or onto an enemy pawn on a
neighbouring file.  ``apply_move`` and ``principal_variation`` read them
from there.  The solver restates them as whole-board shifts of the square
bits (file*3 + row-1), one search function per side with that side's
shifts and masks as constants, and
``test_solver_searches_the_reference_positions`` compares the two
statements through the positions each search reaches.  The solver
searches raw ints under one packed int key per position, checks
touchdown only at its root, tries children in ``legal_moves`` order, and
is bound to the one geometry (width and stopped files) it first sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .words import Word, require_valid

WHITE, BLACK = 0, 1


class ResourceLimitError(RuntimeError):
    pass


class NonUniqueHeapError(RuntimeError):
    """No single heap size makes the position a second-player win, which
    would contradict Nim equivalence at this scale."""


class Move(NamedTuple):
    from_file: int  # 0-based
    from_row: int   # 1..3
    to_file: int
    to_row: int
    capture: bool

    def notation(self) -> str:
        """1-based "file,from-row,to-row" with ",x" marking captures; the
        file is the one the pawn lands on."""
        tag = ",x" if self.capture else ""
        return f"{self.to_file + 1},{self.from_row},{self.to_row}{tag}"


def _bit(file: int, row: int) -> int:
    return 1 << (file * 3 + row - 1)


@dataclass(frozen=True)
class BoardPosition:
    """Square-wise occupancy as two bitboards (bit = file*3 + row-1)."""

    width: int
    stopped: frozenset
    white: int
    black: int
    side_to_move: int = WHITE

    def piece_at(self, file: int, row: int) -> str:
        b = _bit(file, row)
        if self.white & b:
            return "P"
        if self.black & b:
            return "p"
        return "."

    def touchdown_winner(self) -> Optional[int]:
        """The side with a pawn on its far row of an unstopped file, or
        None.  The lowest such file decides, White first on a shared
        file."""
        for f in range(self.width):
            if f in self.stopped:
                continue
            if self.white & _bit(f, 3):
                return WHITE
            if self.black & _bit(f, 1):
                return BLACK
        return None


def initial_position(components: Iterable["Word | str"],
                     side_to_move: int = WHITE) -> BoardPosition:
    """Components side by side, one empty file between consecutive ones;
    each component file holds a White pawn on row 1 and a Black pawn on
    row 3, and stopped files come from the word flags."""
    comps = [require_valid(Word(c)) for c in components]
    width = sum(len(c) for c in comps) + max(0, len(comps) - 1)
    white = black = 0
    stopped = set()
    f = 0
    for idx, comp in enumerate(comps):
        if idx:
            f += 1  # separator file
        for flag in comp:
            white |= _bit(f, 1)
            black |= _bit(f, 3)
            if flag:
                stopped.add(f)
            f += 1
    return BoardPosition(width, frozenset(stopped), white, black,
                         side_to_move)


def legal_moves(pos: BoardPosition) -> "list[Move]":
    """The moves of the side to move: its pawns file by file and row by
    row (low bit first), and for each the advance, the capture toward the
    lower file and the capture toward the higher file.  A pawn steps one
    row toward its far row, onto the empty square ahead on its own file
    or onto an enemy pawn on a neighbouring file."""
    if pos.side_to_move == WHITE:
        own, other, step = pos.white, pos.black, 1
    else:
        own, other, step = pos.black, pos.white, -1
    moves = []
    for f in range(pos.width):
        for row in (1, 2, 3):
            to = row + step
            if not own & _bit(f, row) or not 1 <= to <= 3:
                continue
            if not (own | other) & _bit(f, to):
                moves.append(Move(f, row, f, to, False))
            for g in (f - 1, f + 1):
                if 0 <= g < pos.width and other & _bit(g, to):
                    moves.append(Move(f, row, g, to, True))
    return moves


def apply_move(pos: BoardPosition, mv: Move) -> BoardPosition:
    """The position after ``mv``, which must be one of
    ``legal_moves(pos)``; any other move raises ValueError."""
    if mv not in legal_moves(pos):
        raise ValueError(f"illegal move {mv}")
    src, dest = _bit(mv.from_file, mv.from_row), _bit(mv.to_file, mv.to_row)
    white, black = pos.white & ~dest, pos.black & ~dest
    if pos.side_to_move == WHITE:
        white ^= src | dest
    else:
        black ^= src | dest
    return BoardPosition(pos.width, pos.stopped, white, black,
                         1 - pos.side_to_move)


def _masks(width: int, stopped: frozenset) -> tuple:
    """Per side, the squares a pawn can move from (rows 1-2 for White,
    rows 2-3 for Black) and the far-row squares of unstopped files."""
    row = sum(1 << 3 * f for f in range(width))
    far = sum(1 << 3 * f for f in range(width) if f not in stopped)
    return (row | row << 1, row << 1 | row << 2), (far << 2, far)


class Solver:
    """Memoized exact search over (white, black, side, heap) as raw ints.

    The memo key packs the position into one int,
    ``((heap << S | black) << S | white) << 1 | side`` with S = 3 * width.
    It names neither the board's width nor its stopped files, so a solver
    is bound to the geometry of the first position it is asked about and
    raises ValueError for any other.  Binding builds the search, one
    function per side (see ``_searches``), with ``max_states`` as it is
    then.  Touchdown is checked only at the root, so every child reached
    is free of touchdowns.
    """

    def __init__(self, max_states: int = 4_000_000):
        self.memo = {}
        self.max_states = max_states
        self._geometry = None
        self._searches = None

    def wins(self, pos: BoardPosition, heap: int = 0) -> bool:
        """True when the side to move wins with best play."""
        geometry = (pos.width, frozenset(pos.stopped))
        if self._geometry is None:
            self._geometry = geometry
            self._searches = _searches(self.memo, self.max_states,
                                       3 * pos.width, *_masks(*geometry))
        elif geometry != self._geometry:
            raise ValueError(
                f"solver is bound to width {self._geometry[0]} with stopped "
                f"files {sorted(self._geometry[1])}; got width {pos.width} "
                f"with stopped files {sorted(pos.stopped)}")
        winner = pos.touchdown_winner()
        if winner is not None:
            return winner == pos.side_to_move
        white, black = self._searches
        if pos.side_to_move == WHITE:
            return white(pos.white, pos.black, heap, white, black)
        return black(pos.white, pos.black, heap, black, white)


def _searches(memo: dict, max_states: int, bits: int, movable: tuple,
              far: tuple) -> tuple:
    """The search functions for White and for Black to move, which record
    every position they search in ``memo``.

    Each takes the pawns (white, black), the heap, itself and the other
    side's function, and has its side's shifts, masks and memo-key
    layout as constants: White advances by +1 and captures toward the
    lower and the higher file by -2 and +4, Black by -1, -4 and +2,
    restating as shifts the rules ``legal_moves`` states square by
    square.  A move that reaches the far row of an unstopped file wins
    at once, which ends the search of its position before any child is
    searched.  Otherwise the children are searched in the order
    of ``legal_moves`` (pawns low bit first; advance, capture toward the
    lower file, capture toward the higher file), then the heap
    reductions.  The functions reach each other through their arguments,
    not their closures, so they form no reference cycle and a dropped
    solver frees its memo at once.
    """
    get = memo.get
    white_movable, black_movable = movable
    white_far, black_far = far

    def white_to_move(white: int, black: int, heap: int, this,
                      rival) -> bool:
        key = ((heap << bits | black) << bits | white) << 1
        cached = get(key)
        if cached is not None:
            return cached
        if len(memo) >= max_states:
            raise ResourceLimitError(
                f"transposition table exceeded {max_states} entries")
        own = white & white_movable
        adv = own & ~(white | black) >> 1
        capl = own & black << 2
        capr = own & black >> 4
        if (adv << 1 | capl >> 2 | capr << 4) & white_far:
            memo[key] = True
            return True
        # no child has a touchdown: the mover's only new far-row pawn would
        # have won at once above, and the rival's pawns were checked at the
        # root and only ever lose squares since
        bb = adv | capl | capr
        # the three move kinds stay unrolled: one loop over them costs
        # about 1.35x as much per position
        while bb:
            low = bb & -bb
            bb ^= low
            # a pawn lands on its own bit shifted by its move
            if adv & low and not rival(white ^ low ^ low << 1, black, heap,
                                       rival, this):
                break
            if capl & low:
                dest = low >> 2
                if not rival(white ^ low ^ dest, black ^ dest, heap, rival,
                             this):
                    break
            if capr & low:
                dest = low << 4
                if not rival(white ^ low ^ dest, black ^ dest, heap, rival,
                             this):
                    break
        else:
            for smaller in range(heap):
                if not rival(white, black, smaller, rival, this):
                    break
            else:
                memo[key] = False
                return False
        memo[key] = True
        return True

    def black_to_move(white: int, black: int, heap: int, this,
                      rival) -> bool:
        key = ((heap << bits | black) << bits | white) << 1 | 1
        cached = get(key)
        if cached is not None:
            return cached
        if len(memo) >= max_states:
            raise ResourceLimitError(
                f"transposition table exceeded {max_states} entries")
        own = black & black_movable
        adv = own & ~(white | black) << 1
        capl = own & white << 4
        capr = own & white >> 2
        if (adv >> 1 | capl >> 4 | capr << 2) & black_far:
            memo[key] = True
            return True
        bb = adv | capl | capr
        while bb:
            low = bb & -bb
            bb ^= low
            if adv & low and not rival(white, black ^ low ^ low >> 1, heap,
                                       rival, this):
                break
            if capl & low:
                dest = low >> 4
                if not rival(white ^ dest, black ^ low ^ dest, heap, rival,
                             this):
                    break
            if capr & low:
                dest = low << 2
                if not rival(white ^ dest, black ^ low ^ dest, heap, rival,
                             this):
                    break
        else:
            for smaller in range(heap):
                if not rival(white, black, smaller, rival, this):
                    break
            else:
                memo[key] = False
                return False
        memo[key] = True
        return True

    return white_to_move, black_to_move


def outcome(pos: BoardPosition, heap: int = 0) -> bool:
    """Exact result of a position plus heap: True iff the side to move
    wins.  Each call owns an isolated search."""
    return Solver().wins(pos, heap)


def _losing_heap(w: Word, wins, max_heap: int) -> int:
    """The unique heap size j <= max_heap whose sum with [w], White to
    move, is a loss, where ``wins(pos, j)`` tells whether the side to move
    wins."""
    pos = initial_position([w])
    losses = [j for j in range(max_heap + 1) if not wins(pos, j)]
    if len(losses) != 1:
        raise NonUniqueHeapError(
            f"[{w}] loses against heaps {losses}; expected exactly one "
            f"j <= {max_heap}")
    return losses[0]


def oracle_epsilon(word: "Word | str", max_heap: int = 3) -> int:
    """The unique heap size j <= max_heap whose sum with [word] is a loss
    for the side to move; by Nim equivalence this is the component value.
    Each heap gets a fresh search."""
    return _losing_heap(Word(word), outcome, max_heap)


def oracle_is_loony(word: "Word | str", k: int, max_heap: int = 3) -> bool:
    """Necessary-condition loony test: the move at file k loses no matter
    which heap j <= max_heap accompanies the component.  Checks finitely
    many contexts only."""
    w = Word(word)
    if not 0 <= k < len(w):
        raise IndexError("file index out of range")
    pos = initial_position([w])
    mv = next(m for m in legal_moves(pos)
              if m.from_file == k and not m.capture)
    after = apply_move(pos, mv)
    return all(Solver().wins(after, j) for j in range(max_heap + 1))


def solve_word(word: "Word | str",
               max_heap: int = 5) -> "tuple[int, tuple]":
    """The value of [word] and, per file, whether its move is loony, from
    one search.  The value is the unique heap j <= max_heap against which
    the word loses; a file's move is loony when its advance wins for the
    opponent against every j <= max_heap.  The advances are children of
    the root, so their searches share the root's memo.  The default bound
    of 5 covers every value up to 10 files: *5 first appears at 11."""
    w = Word(word)
    solver = Solver()
    value = _losing_heap(w, solver.wins, max_heap)
    pos = initial_position([w])
    advances = [mv for mv in legal_moves(pos) if not mv.capture]
    loony = tuple(all(solver.wins(apply_move(pos, mv), j)
                      for j in range(max_heap + 1)) for mv in advances)
    return value, loony


def principal_variation(pos: BoardPosition, heap: int = 0) -> "list[str]":
    """Diagnostic line of play, at most 200 plies: winning moves where they
    exist, otherwise the first legal move.  Heap reductions print as
    "heap->j"."""
    solver = Solver()
    line = []
    while len(line) < 200:
        if pos.touchdown_winner() is not None:
            break
        moves = legal_moves(pos)
        # a touchdown child is lost for its side to move
        chosen = next((mv for mv in moves
                       if not solver.wins(apply_move(pos, mv), heap)), None)
        if chosen is None:
            for smaller in range(heap):
                flipped = BoardPosition(pos.width, pos.stopped, pos.white,
                                        pos.black, 1 - pos.side_to_move)
                if not solver.wins(flipped, smaller):
                    line.append(f"heap->{smaller}")
                    pos, heap = flipped, smaller
                    break
            else:
                if not moves:
                    break
                chosen = moves[0]
        if chosen is not None:
            line.append(chosen.notation())
            pos = apply_move(pos, chosen)
    return line
