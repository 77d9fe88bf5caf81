"""Ground-truth adjudication by exhaustive search of the raw pawns game.

The board is 3 rows by n files.  White pawns start on row 1 and move up,
Black pawns start on row 3 and move down; single-square advances and
diagonal captures only.  Reaching the far row on an unstopped file wins
immediately; on a stopped file the pawn just goes inert.  Otherwise the
player without a move loses.  An attached Nim heap models extra *k
summands: either player may shrink it to any smaller size.

The search knows nothing about components or colon notation, so it is an
independent check on the classification engine.  Pawn moves are stated
once, in a per-square move table built for a board's geometry (its width
and stopped files): for each side and each square, the moves of a pawn
standing there, each with its destination bit and whether it wins on the
spot.  ``legal_moves`` and ``Solver`` both read that table; the solver
searches over raw ints, checks touchdown only at its root, and is bound
to the one geometry it first sees.
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
        for f in range(self.width):
            if f in self.stopped:
                continue
            if self.white & _bit(f, 3):
                return WHITE
            if self.black & _bit(f, 1):
                return BLACK
        return None


@dataclass(frozen=True)
class SumPosition:
    board: BoardPosition
    heap: int = 0

    @property
    def terminal_winner(self) -> Optional[int]:
        return self.board.touchdown_winner()


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


def _move_table(width: int, stopped: frozenset) -> tuple:
    """Per side, per square (file*3 + row-1): the moves of a pawn standing
    there, in the order they are tried (advance, capture left, capture
    right), as (destination bit, capture, wins at once, Move).  A move
    wins at once when it reaches the far row of an unstopped file."""
    table = []
    for step, far in ((1, 3), (-1, 1)):
        squares = []
        for sq in range(3 * width):
            f, r = divmod(sq, 3)
            r += 1
            to = r + step
            moves = []
            if 1 <= to <= 3:
                for nf in (f, f - 1, f + 1):
                    if 0 <= nf < width:
                        capture = nf != f
                        moves.append((_bit(nf, to), capture,
                                      to == far and nf not in stopped,
                                      Move(f, r, nf, to, capture)))
            squares.append(tuple(moves))
        table.append(tuple(squares))
    return tuple(table)


def _moves_of(pos: BoardPosition, table: tuple) -> "list[tuple]":
    """The legal moves of the side to move, as (Move, wins at once)."""
    own, other = ((pos.white, pos.black) if pos.side_to_move == WHITE
                  else (pos.black, pos.white))
    empty = ~(pos.white | pos.black)
    squares = table[pos.side_to_move]
    out = []
    bb = own
    while bb:
        low = bb & -bb
        bb ^= low
        for dest, capture, wins, mv in squares[low.bit_length() - 1]:
            if (other if capture else empty) & dest:
                out.append((mv, wins))
    return out


def legal_moves(pos: BoardPosition) -> "list[Move]":
    """Own pawns low bit first; for each, advance, capture left, capture
    right."""
    return [mv for mv, _ in _moves_of(pos, _move_table(pos.width,
                                                       pos.stopped))]


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

    The memo key is the two bitboards, the side to move and the heap; it
    does not name the board's width or stopped files, so a solver is bound
    to the geometry of the first position it is asked about and raises
    ValueError for any other.  Moves come from the geometry's per-square
    move table.  Touchdown is checked only at the root: a move that wins
    at once ends the search of its position before any child is searched,
    so every child reached is free of touchdowns.
    """

    def __init__(self, max_states: int = 4_000_000):
        self.memo = {}
        self.max_states = max_states
        self._geometry = None
        self._table = None

    def wins(self, pos: BoardPosition, heap: int = 0) -> bool:
        """True when the side to move wins with best play."""
        geometry = (pos.width, frozenset(pos.stopped))
        if self._geometry is None:
            self._geometry = geometry
            self._table = _move_table(*geometry)
        elif geometry != self._geometry:
            raise ValueError(
                f"solver is bound to width {self._geometry[0]} with stopped "
                f"files {sorted(self._geometry[1])}; got width {pos.width} "
                f"with stopped files {sorted(pos.stopped)}")
        winner = pos.touchdown_winner()
        if winner is not None:
            return winner == pos.side_to_move
        return self._wins(pos.white, pos.black, pos.side_to_move, heap)

    def _wins(self, white: int, black: int, side: int, heap: int) -> bool:
        key = (white, black, side, heap)
        memo = self.memo
        cached = memo.get(key)
        if cached is not None:
            return cached
        if len(memo) >= self.max_states:
            raise ResourceLimitError(
                f"transposition table exceeded {self.max_states} entries")
        own, other = (white, black) if side == WHITE else (black, white)
        empty = ~(white | black)
        squares = self._table[side]
        children = []
        result = False
        bb = own
        while bb:
            low = bb & -bb
            bb ^= low
            for dest, capture, wins, _ in squares[low.bit_length() - 1]:
                if capture:
                    if not other & dest:
                        continue
                    children.append((own ^ low ^ dest, other ^ dest))
                elif empty & dest:
                    children.append((own ^ low ^ dest, other))
                else:
                    continue
                if wins:
                    result = True
                    break
            if result:
                break
        if not result:
            # no child has a touchdown: the mover's only new far-row pawn
            # would have won at once above, and the rival's pawns were
            # checked at the root and only ever lose squares since
            rival = 1 - side
            for child_own, child_other in children:
                if side == WHITE:
                    child = self._wins(child_own, child_other, rival, heap)
                else:
                    child = self._wins(child_other, child_own, rival, heap)
                if not child:
                    result = True
                    break
            else:
                for smaller in range(heap):
                    if not self._wins(white, black, rival, smaller):
                        result = True
                        break
        memo[key] = result
        return result


def outcome(pos: "SumPosition | BoardPosition", heap: int = 0,
            max_states: int = 4_000_000) -> bool:
    """Exact result of a position plus heap: True iff the side to move
    wins.  Each call owns an isolated search."""
    if isinstance(pos, SumPosition):
        pos, heap = pos.board, pos.heap
    return Solver(max_states).wins(pos, heap)


def oracle_epsilon(word: "Word | str", max_heap: int = 3,
                   max_states: int = 4_000_000) -> int:
    """The unique heap size j <= max_heap whose sum with [word] is a loss
    for the side to move; by Nim equivalence this is the component value."""
    w = word if isinstance(word, Word) else Word(word)
    pos = initial_position([w])
    losses = [j for j in range(max_heap + 1)
              if not Solver(max_states).wins(pos, j)]
    if len(losses) != 1:
        raise NonUniqueHeapError(
            f"[{w}] loses against heaps {losses}; expected exactly one "
            f"j <= {max_heap}")
    return losses[0]


def oracle_is_loony(word: "Word | str", k: int, max_heap: int = 3,
                    max_states: int = 4_000_000) -> bool:
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
    return all(Solver(max_states).wins(after, j) for j in range(max_heap + 1))


def principal_variation(pos: BoardPosition, heap: int = 0,
                        max_states: int = 4_000_000,
                        limit: int = 200) -> "list[str]":
    """Diagnostic line of play: winning moves where they exist, otherwise
    the first legal move.  Heap reductions print as "heap->j"."""
    solver = Solver(max_states)
    table = _move_table(pos.width, pos.stopped)
    line = []
    while len(line) < limit:
        if pos.touchdown_winner() is not None:
            break
        moves = _moves_of(pos, table)
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
