"""Solver and experiment harness for a Dawson-style pawns game with
stopped files: component Nim values, loony move classification, a raw
game-tree oracle, periodic-family scans and chessboard embeddings."""

__version__ = "0.1.0"

from .words import (PeriodicPattern, Word, count_words, enumerate_words,
                    validate, word_from_pattern)
from .engine import MoveClass, classify_colon, classify_move
from .grundy import (GrundyTable, PeriodicTable, PeriodReport, detect_period,
                     epsilon, epsilon_plain, loony_plain, mex, nim_sum,
                     verify_period_window)
from .oracle import (BoardPosition, initial_position, legal_moves,
                     oracle_epsilon, oracle_is_loony, outcome)
from .embed import ChessDiagram, embed, extract_components, render

__all__ = [
    "__version__",
    "Word", "PeriodicPattern", "validate", "count_words",
    "enumerate_words", "word_from_pattern",
    "MoveClass", "classify_colon", "classify_move",
    "GrundyTable", "epsilon", "epsilon_plain", "loony_plain", "mex",
    "nim_sum", "PeriodicTable", "PeriodReport",
    "detect_period", "verify_period_window",
    "BoardPosition", "initial_position", "legal_moves",
    "outcome", "oracle_epsilon", "oracle_is_loony",
    "ChessDiagram", "embed", "render", "extract_components",
]
