"""Ground-truth adjudication by exhaustive search of the raw pawns game.

The board is 3 rows by n files.  White pawns start on row 1 and move up,
Black pawns start on row 3 and move down; single-square advances and
diagonal captures only.  Reaching the far row on an unstopped file wins
immediately; on a stopped file the pawn just goes inert.  Otherwise the
player without a move loses.  An attached Nim heap models extra *k
summands: either player may shrink it to any smaller size.

The search knows nothing about components or colon notation, so it is an
independent check on the classification engine.  Pawn moves are stated
once, in ``_move_sets``, as whole-board shifts of the square bits
(file*3 + row-1): White advances by +1 and captures toward the lower and
the higher file by -2 and +4, Black by -1, -4 and +2.  Masks from the
board geometry (its width and stopped files) keep each side's pawns on
the rows they can move from and mark the far-row squares of unstopped
files.  ``legal_moves``, ``principal_variation``,
``BoardPosition.touchdown_winner`` and ``Solver`` all read them.  The
solver searches raw ints under one packed int key per position, checks
touchdown only at its root, tries children in ``legal_moves`` order, and
is bound to the one geometry it first sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .words import Word, validate

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
        far = _masks(self.width, self.stopped)[1]
        white, black = self.white & far[WHITE], self.black & far[BLACK]
        # the lowest file with a touchdown wins, White first on a shared
        # file: White's far-row bit sits two above Black's
        if white and (not black or (white & -white) >> 2 <= black & -black):
            return WHITE
        return BLACK if black else None


def initial_position(components: Iterable["Word | str"],
                     side_to_move: int = WHITE) -> BoardPosition:
    """Components side by side, one empty file between consecutive ones;
    each component file holds a White pawn on row 1 and a Black pawn on
    row 3, and stopped files come from the word flags."""
    comps = [c if isinstance(c, Word) else Word(c) for c in components]
    for c in comps:
        if not c.is_valid:
            raise ValueError("invalid word: adjacent stopped files at index "
                             f"{validate(c)}")
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


def _masks(width: int, stopped: frozenset) -> tuple:
    """Per side, the squares a pawn can move from (rows 1-2 for White,
    rows 2-3 for Black) and the far-row squares of unstopped files."""
    row = sum(1 << 3 * f for f in range(width))
    far = sum(1 << 3 * f for f in range(width) if f not in stopped)
    return (row | row << 1, row << 1 | row << 2), (far << 2, far)


def _move_sets(side: int, own: int, other: int, movable: int) -> tuple:
    """Every pawn move of ``side`` at once, as whole-board shifts of the
    bits (file*3 + row-1); ``own`` holds the pawns of ``side`` and
    ``other`` the rival's.  For advance, capture toward the lower file and
    capture toward the higher file, in that order: the set of pawns that
    can make the move, then the set of squares they land on.  White moves
    by +1, -2 and +4, Black by -1, -4 and +2; ``movable`` keeps each pawn
    on a row it can move from, and a shift past an edge file meets no
    pawn."""
    empty = ~(own | other)
    own &= movable
    if side == WHITE:
        adv, capl, capr = (own & (empty >> 1), own & (other << 2),
                           own & (other >> 4))
        return adv, capl, capr, adv << 1, capl >> 2, capr << 4
    adv, capl, capr = (own & (empty << 1), own & (other << 4),
                       own & (other >> 2))
    return adv, capl, capr, adv >> 1, capl >> 4, capr << 2


def _moves_of(pos: BoardPosition) -> "list[tuple]":
    """The legal moves of the side to move, as (Move, wins at once): own
    pawns low bit first; for each, advance, capture toward the lower file,
    capture toward the higher file.  A move wins at once when it reaches
    the far row of an unstopped file."""
    movable, far = _masks(pos.width, pos.stopped)
    side = pos.side_to_move
    own, other = ((pos.white, pos.black) if side == WHITE
                  else (pos.black, pos.white))
    adv, capl, capr, *dests = _move_sets(side, own, other, movable[side])
    out = []
    bb = adv | capl | capr
    while bb:
        low = bb & -bb
        bb ^= low
        src_file, src_row = divmod(low.bit_length() - 1, 3)
        for i, sources in enumerate((adv, capl, capr)):
            if sources & low:
                # shifts keep order, so this pawn lands on the lowest
                # square of the set not yet taken
                dest = dests[i] & -dests[i]
                dests[i] ^= dest
                to_file, to_row = divmod(dest.bit_length() - 1, 3)
                out.append((Move(src_file, src_row + 1, to_file, to_row + 1,
                                 i > 0), bool(dest & far[side])))
    return out


def legal_moves(pos: BoardPosition) -> "list[Move]":
    """Own pawns low bit first; for each, advance, capture toward the
    lower file, capture toward the higher file."""
    return [mv for mv, _ in _moves_of(pos)]


def apply_move(pos: BoardPosition, mv: Move) -> BoardPosition:
    own_is_white = pos.side_to_move == WHITE
    own = pos.white if own_is_white else pos.black
    other = pos.black if own_is_white else pos.white
    src = _bit(mv.from_file, mv.from_row)
    dest = _bit(mv.to_file, mv.to_row)
    if not own & src:
        raise ValueError(f"no pawn to move for {mv}")
    if mv.capture:
        if not other & dest:
            raise ValueError(f"illegal capture {mv}")
        other &= ~dest
    elif (pos.white | pos.black) & dest:
        raise ValueError(f"illegal advance {mv}")
    own = (own & ~src) | dest
    white, black = (own, other) if own_is_white else (other, own)
    return BoardPosition(pos.width, pos.stopped, white, black,
                         1 - pos.side_to_move)


class Solver:
    """Memoized exact search over (white, black, side, heap) as raw ints.

    The memo key packs the position into one int,
    ``((heap << S | black) << S | white) << 1 | side`` with S = 3 * width.
    It names neither the board's width nor its stopped files, so a solver
    is bound to the geometry of the first position it is asked about and
    raises ValueError for any other.  Moves come from ``_move_sets``:
    whole-board shifts give the pawns that can advance or capture either
    way, and one AND of the squares they land on with the far-row mask of
    unstopped files finds a move that wins at once, which ends the search
    of its position before any child is searched.  Otherwise the children
    are searched in the order of ``legal_moves`` (pawns low bit first;
    advance, capture toward the lower file, capture toward the higher
    file), then the heap reductions.  Touchdown is checked only at the
    root, so every child reached is free of touchdowns.
    """

    def __init__(self, max_states: int = 4_000_000):
        self.memo = {}
        self.max_states = max_states
        self._geometry = None
        self._bits = 0
        self._movable = self._far = (0, 0)

    def wins(self, pos: BoardPosition, heap: int = 0) -> bool:
        """True when the side to move wins with best play."""
        geometry = (pos.width, frozenset(pos.stopped))
        if self._geometry is None:
            self._geometry = geometry
            self._bits = 3 * pos.width
            self._movable, self._far = _masks(*geometry)
        elif geometry != self._geometry:
            raise ValueError(
                f"solver is bound to width {self._geometry[0]} with stopped "
                f"files {sorted(self._geometry[1])}; got width {pos.width} "
                f"with stopped files {sorted(pos.stopped)}")
        winner = pos.touchdown_winner()
        if winner is not None:
            return winner == pos.side_to_move
        if pos.side_to_move == WHITE:
            return self._wins(pos.white, pos.black, WHITE, heap)
        return self._wins(pos.black, pos.white, BLACK, heap)

    def _wins(self, own: int, other: int, side: int, heap: int) -> bool:
        """``own`` holds the pawns of the side to move, ``other`` the
        rival's."""
        bits = self._bits
        white, black = (own, other) if side == WHITE else (other, own)
        key = ((heap << bits | black) << bits | white) << 1 | side
        memo = self.memo
        cached = memo.get(key)
        if cached is not None:
            return cached
        if len(memo) >= self.max_states:
            raise ResourceLimitError(
                f"transposition table exceeded {self.max_states} entries")
        adv, capl, capr, advd, capld, caprd = _move_sets(
            side, own, other, self._movable[side])
        if (advd | capld | caprd) & self._far[side]:
            memo[key] = True
            return True
        # no child has a touchdown: the mover's only new far-row pawn would
        # have won at once above, and the rival's pawns were checked at the
        # root and only ever lose squares since
        rival = 1 - side
        result = False
        bb = adv | capl | capr
        # the three move kinds stay unrolled: one loop over them costs
        # about 1.35x as much per position
        while bb:
            low = bb & -bb
            bb ^= low
            # shifts keep order, so each pawn lands on the lowest square of
            # its move's set not yet taken
            if adv & low:
                dest = advd & -advd
                advd ^= dest
                if not self._wins(other, own ^ low ^ dest, rival, heap):
                    result = True
                    break
            if capl & low:
                dest = capld & -capld
                capld ^= dest
                if not self._wins(other ^ dest, own ^ low ^ dest, rival,
                                  heap):
                    result = True
                    break
            if capr & low:
                dest = caprd & -caprd
                caprd ^= dest
                if not self._wins(other ^ dest, own ^ low ^ dest, rival,
                                  heap):
                    result = True
                    break
        if not result:
            for smaller in range(heap):
                if not self._wins(other, own, rival, smaller):
                    result = True
                    break
        memo[key] = result
        return result


def outcome(pos: BoardPosition, heap: int = 0) -> bool:
    """Exact result of a position plus heap: True iff the side to move
    wins.  Each call owns an isolated search."""
    return Solver().wins(pos, heap)


def oracle_epsilon(word: "Word | str", max_heap: int = 3) -> int:
    """The unique heap size j <= max_heap whose sum with [word] is a loss
    for the side to move; by Nim equivalence this is the component value."""
    w = word if isinstance(word, Word) else Word(word)
    pos = initial_position([w])
    losses = [j for j in range(max_heap + 1)
              if not Solver().wins(pos, j)]
    if len(losses) != 1:
        raise NonUniqueHeapError(
            f"[{w}] loses against heaps {losses}; expected exactly one "
            f"j <= {max_heap}")
    return losses[0]


def oracle_is_loony(word: "Word | str", k: int, max_heap: int = 3) -> bool:
    """Necessary-condition loony test: the move at file k loses no matter
    which heap j <= max_heap accompanies the component.  Checks finitely
    many contexts only."""
    w = word if isinstance(word, Word) else Word(word)
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
    w = word if isinstance(word, Word) else Word(word)
    pos = initial_position([w])
    solver = Solver()
    losses = [j for j in range(max_heap + 1) if not solver.wins(pos, j)]
    if len(losses) != 1:
        raise NonUniqueHeapError(
            f"[{w}] loses against heaps {losses}; expected exactly one "
            f"j <= {max_heap}")
    advances = [mv for mv in legal_moves(pos) if not mv.capture]
    loony = tuple(all(solver.wins(apply_move(pos, mv), j)
                      for j in range(max_heap + 1)) for mv in advances)
    return losses[0], loony


def principal_variation(pos: BoardPosition, heap: int = 0) -> "list[str]":
    """Diagnostic line of play, at most 200 plies: winning moves where they
    exist, otherwise the first legal move.  Heap reductions print as
    "heap->j"."""
    solver = Solver()
    line = []
    while len(line) < 200:
        if pos.touchdown_winner() is not None:
            break
        moves = _moves_of(pos)
        chosen = None
        for mv, wins in moves:
            if wins or not solver.wins(apply_move(pos, mv), heap):
                chosen = mv
                break
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
                chosen = moves[0][0]
        if chosen is not None:
            line.append(chosen.notation())
            pos = apply_move(pos, chosen)
    return line
