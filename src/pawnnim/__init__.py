"""Solver and experiment harness for a Dawson-style pawns game with
stopped files: component Nim values, loony move classification, a raw
game-tree oracle, periodic-family scans and chessboard embeddings."""

__version__ = "0.1.0"

from .words import (PeriodicPattern, Word, count_words, enumerate_words,
                    validate, word_from_pattern)
from .engine import MoveClass, classify_colon, classify_move
from .oracle import (BoardPosition, initial_position, legal_moves,
                     oracle_epsilon, oracle_is_loony, outcome)
from .embed import ChessDiagram, embed, extract_components, render

# grundy imports numpy, which the oracle, embed and the CLI's light
# subcommands never need: its names load on first access (PEP 562)
_GRUNDY = ("GrundyTable", "PeriodicTable", "PeriodReport", "detect_period",
           "epsilon", "epsilon_plain", "loony_plain", "mex",
           "verify_period_window")


def __getattr__(name: str):
    if name not in _GRUNDY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(".grundy", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_GRUNDY))


__all__ = [
    "__version__",
    "Word", "PeriodicPattern", "validate", "count_words",
    "enumerate_words", "word_from_pattern",
    "MoveClass", "classify_colon", "classify_move",
    "GrundyTable", "epsilon", "epsilon_plain", "loony_plain", "mex",
    "PeriodicTable", "PeriodReport",
    "detect_period", "verify_period_window",
    "BoardPosition", "initial_position", "legal_moves",
    "outcome", "oracle_epsilon", "oracle_is_loony",
    "ChessDiagram", "embed", "render", "extract_components",
]
