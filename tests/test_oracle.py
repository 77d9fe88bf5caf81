import pytest

from pawnnim import oracle
from pawnnim.engine import classify_move
from pawnnim.grundy import GrundyTable, epsilon
from pawnnim.oracle import (BLACK, WHITE, BoardPosition, NonUniqueHeapError,
                            ResourceLimitError, Solver,
                            apply_move, initial_position, legal_moves,
                            oracle_epsilon, oracle_is_loony, outcome,
                            principal_variation, solve_word)
from pawnnim.words import enumerate_words


def test_initial_position_single_file():
    pos = initial_position(["0"])
    assert pos.width == 1
    assert pos.piece_at(0, 1) == "P"
    assert pos.piece_at(0, 3) == "p"
    assert pos.piece_at(0, 2) == "."
    assert not pos.stopped


def test_initial_position_two_components():
    pos = initial_position(["0000000", "0000"])
    assert pos.width == 12
    assert pos.piece_at(7, 1) == "."  # separator file
    assert pos.piece_at(8, 1) == "P"


def test_initial_position_stopped_files():
    pos = initial_position(["1000"])
    assert pos.width == 4
    assert pos.stopped == frozenset({0})
    with pytest.raises(ValueError):
        initial_position(["110"])


def test_legal_moves_counts():
    pos = initial_position(["0"])
    assert len(legal_moves(pos)) == 1
    pos = initial_position(["00"])
    advance = next(m for m in legal_moves(pos) if m.from_file == 0)
    after = apply_move(pos, advance)
    # attacked pawn may capture the advanced pawn or step forward
    replies = legal_moves(after)
    assert len(replies) == 2
    assert sorted(m.capture for m in replies) == [False, True]


def test_outcome_examples():
    assert outcome(initial_position(["000"]), 0) is False
    assert outcome(initial_position(["000"]), 1) is True
    assert outcome(initial_position(["1000"]), 2) is False


def test_oracle_epsilon_examples():
    assert oracle_epsilon("0") == 1
    assert oracle_epsilon("10") == 0
    assert oracle_epsilon("1000") == 2


def test_oracle_epsilon_rejects_small_heap_cap():
    # with max_heap 1 the value-2 component has no losing heap in range
    with pytest.raises(NonUniqueHeapError):
        oracle_epsilon("1000", max_heap=1)


def test_oracle_is_loony_examples():
    assert oracle_is_loony("00", 0) is True
    assert oracle_is_loony("1000", 1) is False
    assert oracle_is_loony("1000", 0) is True


def _check_engine_agreement(lengths):
    table = GrundyTable()
    for m in lengths:
        for w in enumerate_words(m):
            value, loony = solve_word(w)
            assert value == epsilon(w, table), str(w)
            assert loony == tuple(classify_move(w, k, table).is_loony
                                  for k in range(m)), str(w)


def test_engine_oracle_agreement_small():
    # values and every file's loony bit, on every word of up to 7 files
    _check_engine_agreement(range(1, 8))


@pytest.mark.slow
def test_engine_oracle_agreement_eight_files():
    _check_engine_agreement([8])


def test_solve_word_matches_the_per_heap_searches():
    for text in ("0", "10", "1000", "00100"):
        value, loony = solve_word(text, max_heap=3)
        assert value == oracle_epsilon(text)
        assert loony == tuple(oracle_is_loony(text, k)
                              for k in range(len(text)))
    with pytest.raises(NonUniqueHeapError):
        solve_word("1000", max_heap=1)


def test_oracle_search_sizes(monkeypatch):
    # positions searched by oracle_epsilon plus oracle_is_loony on every
    # file, summed over their searches; the counts of the benchmark's
    # ORACLE_STATES table
    solvers = []

    class CountingSolver(Solver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            solvers.append(self)

    monkeypatch.setattr(oracle, "Solver", CountingSolver)
    for word, states in (("1001000", 23342), ("1000000", 24051),
                         ("0001000", 27207), ("00100101", 304292)):
        solvers.clear()
        oracle_epsilon(word)
        for k in range(len(word)):
            oracle_is_loony(word, k)
        assert sum(len(s.memo) for s in solvers) == states, word


def _reference_wins(pos, heap, memo):
    """A plain search from the public API alone, with the solver's rules:
    a move that reaches an unstopped far row wins at once; otherwise the
    children in legal_moves order, then the heap reductions."""
    key = (pos.white, pos.black, pos.side_to_move, heap)
    if key in memo:
        return memo[key]
    moves = legal_moves(pos)
    children = [apply_move(pos, mv) for mv in moves]
    result = (any(c.touchdown_winner() is not None for c in children)
              or any(not _reference_wins(c, heap, memo) for c in children)
              or any(not _reference_wins(
                  BoardPosition(pos.width, pos.stopped, pos.white, pos.black,
                                1 - pos.side_to_move), j, memo)
                  for j in range(heap)))
    memo[key] = result
    return result


def test_solver_searches_the_reference_positions():
    # same results and the same number of memo entries: the solver tries
    # the same children in the same order and stops at the same one
    boards = [[w] for m in range(1, 6) for w in enumerate_words(m)]
    boards += [["00", "0"], ["10", "00"], ["000", "01"]]
    for comps in boards:
        pos = initial_position(comps)
        solver, memo = Solver(), {}
        for heap in range(4):
            assert solver.wins(pos, heap) == _reference_wins(pos, heap, memo)
            assert len(solver.memo) == len(memo), (comps, heap)


def test_legal_moves_order():
    # a White pawn on file 1 with an empty square ahead and Black pawns
    # on both diagonals: advance, then the capture toward the lower file,
    # then the one toward the higher file
    pos = BoardPosition(3, frozenset(), 1 << 3, 1 << 1 | 1 << 7, WHITE)
    assert legal_moves(pos) == [(1, 1, 1, 2, False), (1, 1, 0, 2, True),
                                (1, 1, 2, 2, True)]
    mirrored = BoardPosition(3, frozenset(), 1 << 1 | 1 << 7, 1 << 5, BLACK)
    assert legal_moves(mirrored) == [(1, 3, 1, 2, False), (1, 3, 0, 2, True),
                                     (1, 3, 2, 2, True)]


def test_solver_is_bound_to_one_geometry():
    # the memo key names no width or stopped files, so a solver reused on
    # another board would answer from the first board's entries
    stopped, plain = initial_position(["1000"]), initial_position(["0000"])
    assert Solver().wins(plain, 2) is True
    solver = Solver()
    assert solver.wins(stopped, 2) is False
    with pytest.raises(ValueError):
        solver.wins(plain, 2)
    with pytest.raises(ValueError):
        solver.wins(initial_position(["10000"]), 2)
    after = apply_move(stopped, legal_moves(stopped)[0])
    assert solver.wins(after, 2) is outcome(after, 2)


def test_two_component_sum_zero_iff_equal_values():
    table = GrundyTable()
    for w1 in ("0", "00", "10"):
        for w2 in ("0", "00", "1"):
            loses = not outcome(initial_position([w1, w2]), 0)
            assert loses == (epsilon(w1, table) == epsilon(w2, table))


def test_interior_between_stopped_files_never_loony():
    # an interior move with both neighbour files stopped is a plain
    # exchange; the game tree confirms it on every length-6 word
    for m in range(3, 7):
        for w in enumerate_words(m):
            for k in range(1, m - 1):
                if w[k - 1] == 1 and w[k + 1] == 1:
                    assert not oracle_is_loony(w, k, 3), (str(w), k)


def test_first_player_symmetry():
    for text in ("0", "00", "10", "000", "1000"):
        for heap in (0, 1):
            a = outcome(initial_position([text], WHITE), heap)
            b = outcome(initial_position([text], BLACK), heap)
            assert a == b, (text, heap)


def test_touchdown_positions():
    pos = initial_position(["00"])
    # hand-built: White pawn already on the far row of an unstopped file
    won = BoardPosition(pos.width, pos.stopped, 1 << 2, pos.black & ~(1 << 2),
                        BLACK)
    assert won.touchdown_winner() == WHITE
    assert outcome(won, 0) is False  # Black to move has already lost
    # the same pawn on a stopped file wins nothing
    stopped = BoardPosition(pos.width, frozenset({0}), 1 << 2,
                            pos.black & ~(1 << 2), BLACK)
    assert stopped.touchdown_winner() is None


def test_inert_pawn_on_stopped_far_row():
    # advancing to the far row of a stopped file is legal but wins nothing
    pos = BoardPosition(2, frozenset({0}), 1 << 1, 1 << 5, WHITE)
    moves = legal_moves(pos)
    advance = next(m for m in moves if m.to_row == 3 and m.to_file == 0)
    after = apply_move(pos, advance)
    assert after.touchdown_winner() is None
    assert after.piece_at(0, 3) == "P"


def test_resource_limit():
    with pytest.raises(ResourceLimitError):
        Solver(max_states=4).wins(initial_position(["00000"]), 0)


def test_principal_variation_smoke():
    line = principal_variation(initial_position(["000"]), 1)
    assert line
    assert all(isinstance(s, str) for s in line)
    # first entry is a board move or a heap reduction
    assert line[0].count(",") >= 2 or line[0].startswith("heap->")


def test_move_notation():
    pos = initial_position(["00"])
    advance = next(m for m in legal_moves(pos) if m.from_file == 0)
    assert advance.notation() == "1,1,2"
    after = apply_move(pos, advance)
    cap = next(m for m in legal_moves(after) if m.capture)
    assert cap.notation() == "1,3,2,x"
