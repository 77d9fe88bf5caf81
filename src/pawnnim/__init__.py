"""Solver and experiment harness for a Dawson-style pawns game with
stopped files: component Nim values, loony move classification, a raw
game-tree oracle, periodic-family scans and chessboard embeddings."""

import sys
import types

__version__ = "0.1.0"


class KernelError(RuntimeError):
    """The compiled kernel can be neither loaded nor built."""


# every public name loads its module on first access (PEP 562), so a
# process imports only what it uses: `pawnnim --version` none of them,
# and single words, periodic runs, the oracle and the embedder not numpy,
# which only the rank scan and a phase table's numpy views import
_MODULE_OF = {
    **dict.fromkeys(("Word", "PeriodicPattern", "validate", "count_words",
                     "enumerate_words", "word_from_pattern"), "words"),
    "classify_move": "engine",
    **dict.fromkeys(("GrundyTable", "epsilon", "epsilon_plain",
                     "loony_plain", "mex", "PeriodicTable", "PeriodReport",
                     "detect_period", "verify_period_window"), "grundy"),
    **dict.fromkeys(("BoardPosition", "initial_position", "legal_moves",
                     "outcome", "oracle_epsilon", "oracle_is_loony"),
                    "oracle"),
    **dict.fromkeys(("ChessDiagram", "embed", "render",
                     "extract_components"), "embed"),
}


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module("." + _MODULE_OF[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # importing the submodule pawnnim.embed binds it on the package,
        # where the name embed stands for the function
        if not (name in _MODULE_OF and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


__all__ = ["__version__", "KernelError", *_MODULE_OF]
