"""King-and-pawn diagrams on h x n boards realizing lists of components.

Each component file carries a White pawn just below the middle rank and a
Black pawn just above it; a stopped file adds four immobile stopper pawns,
a pair directly beyond each side's far row.  The right side of the board
holds a fixed frame: a two-file mutual Zugzwang followed by two corner
King-and-three-pawn locks, so that whoever loses the pawn fight must
self-destruct in the Zugzwang.
A trailing open one-file component (the attached *1 heap of the
illustrative positions) sits in the spare file between the Zugzwang and
the corner locks; everything else, a trailing stopped file included,
fills from the left with one empty separator file between components.
(The stoppers of a stopped file in the spare file would attack the
corner-lock pawns beside it.)  Unless a width is given, the board holds
the left-filled components, their separators, one empty file before the
frame, and the frame.

The frame template is exact for height 9; other odd heights are emitted
best effort with a warning, since only the 9-row arrangement has a fully
checked reference.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field

from .words import Word, require_valid

PIECES = ".PpKk"
# the most squares ``layout`` accepts: a diagram holds one cell per
# square, so an unbounded height or width would exhaust memory
MAX_SQUARES = 10 ** 6


class EmbedError(ValueError):
    pass


class FrameTemplateWarning(UserWarning):
    pass


@dataclass
class ChessDiagram:
    """Grid of cells; rows are numbered 1 (bottom) to height, files 1 to
    width.  Cell values: '.', 'P', 'p', 'K', 'k'."""

    height: int
    width: int
    rows: list = field(default_factory=list)  # rows[r-1][f-1], bottom first

    def __post_init__(self):
        if not self.rows:
            self.rows = [["."] * self.width for _ in range(self.height)]

    def cell(self, file: int, row: int) -> str:
        return self.rows[row - 1][file - 1]

    def put(self, file: int, row: int, piece: str) -> None:
        if piece not in PIECES:
            raise ValueError(f"unknown piece {piece!r}")
        if not (1 <= file <= self.width and 1 <= row <= self.height):
            raise EmbedError(f"square ({file},{row}) off the board")
        if self.rows[row - 1][file - 1] != ".":
            raise EmbedError(f"square ({file},{row}) already occupied")
        self.rows[row - 1][file - 1] = piece

    def counts(self) -> dict:
        out = {c: 0 for c in PIECES[1:]}
        for row in self.rows:
            for c in row:
                if c != ".":
                    out[c] += 1
        return out

    def check(self) -> None:
        counts = self.counts()
        if counts["K"] != 1 or counts["k"] != 1:
            raise EmbedError("diagram needs exactly one king per colour")


def _require_odd_height(height: int, any_stopped: bool) -> None:
    if height % 2 == 0 or height <= 5:
        raise EmbedError("height must be an odd number greater than 5")
    if any_stopped and height < 9:
        raise EmbedError("stopped files need height at least 9")


def _file_squares(stopped: int, height: int) -> "list[tuple]":
    """(row, piece) squares of one component file: a White pawn just below
    the middle rank and a Black pawn just above it.  A stopped file adds a
    Black-over-White stopper pair directly beyond each far row, (h + 3)/2
    for White and (h - 1)/2 for Black, so that a pawn which reaches its
    far row is blocked there at every height."""
    squares = [((height - 1) // 2, "P"), ((height + 3) // 2, "p")]
    if stopped:
        squares += [((height + 7) // 2, "p"), ((height + 5) // 2, "P"),
                    ((height - 3) // 2, "p"), ((height - 5) // 2, "P")]
    return squares


def layout(components, height: int, width: int | None = None):
    """(components, those filled from the left, board width) of the board
    ``embed`` draws.

    Without a width, the board holds the left components, their separator
    files, one empty file so that no component pawn meets the Zugzwang's,
    and the six frame files.  Raises EmbedError for an invalid or empty
    component, a height the components cannot use, a given width that
    cannot hold the components and the frame, or a board of more than
    ``MAX_SQUARES`` squares.
    """
    comps = [Word(c) for c in components]
    for c in comps:
        try:
            require_valid(c)
        except ValueError as exc:
            raise EmbedError(str(exc)) from None
        if len(c) == 0:
            raise EmbedError("empty component")
    any_stopped = any(any(c) for c in comps)
    _require_odd_height(height, any_stopped)

    # a trailing open one-file component sits in the frame's spare file
    left = comps[:-1] if len(comps) >= 2 and comps[-1] == Word("0") else comps
    left_width = sum(len(c) for c in left) + max(0, len(left) - 1)
    if width is None:
        width = left_width + 7
    elif left_width > width - 6:
        raise EmbedError(
            f"width {width} too small: components need {left_width} files "
            f"plus the 6 frame files")
    if height * width > MAX_SQUARES:
        raise EmbedError(f"a {height} x {width} board has more than "
                         f"{MAX_SQUARES} squares")
    return comps, left, width


def embed(components, height: int, width: int | None = None) -> ChessDiagram:
    """Realize the component list on a height x width board laid out by
    ``layout``, which raises EmbedError for a request it cannot draw."""
    comps, left, width = layout(components, height, width)
    diag = ChessDiagram(height, width)

    def place_component(comp: Word, file0: int) -> None:
        for off, flag in enumerate(comp):
            for row, piece in _file_squares(flag, height):
                diag.put(file0 + off, row, piece)

    f = 1
    for comp in left:
        place_component(comp, f)
        f += len(comp) + 1
    if len(left) < len(comps):
        place_component(comps[-1], width - 2)

    _place_frame(diag)
    diag.check()
    if height != 9:
        warnings.warn(
            "frame template is only reference-checked at height 9",
            FrameTemplateWarning, stacklevel=2)
    return diag


def _place_frame(diag: ChessDiagram) -> None:
    h, n = diag.height, diag.width
    mid = (h + 1) // 2
    g, hh = n - 5, n - 4
    # central mutual Zugzwang, three pawns a side
    diag.put(g, mid + 2, "p")
    diag.put(g, mid, "p")
    diag.put(g, mid - 1, "P")
    diag.put(hh, mid + 1, "p")
    diag.put(hh, mid, "P")
    diag.put(hh, mid - 2, "P")
    # corner locks: King and three pawns, immobilized
    diag.put(n, h, "k")
    diag.put(n, h - 1, "P")
    diag.put(n - 1, h - 1, "p")
    diag.put(n - 1, h - 2, "P")
    diag.put(n, 1, "K")
    diag.put(n, 2, "p")
    diag.put(n - 1, 2, "P")
    diag.put(n - 1, 3, "p")


def render(diag: ChessDiagram, format: str = "ascii") -> str:
    """ascii: one row per line, top row first, '.' for empty squares.
    fen: rows top to bottom joined by '/', empty runs as decimal counts
    (multi-digit on wide boards)."""
    lines = ["".join(row) for row in reversed(diag.rows)]
    if format == "ascii":
        return "\n".join(lines)
    if format == "fen":
        return re.sub(r"\.+", lambda run: str(len(run[0])), "/".join(lines))
    raise ValueError(f"unknown format {format!r}")


def parse_render(text: str, format: str = "ascii") -> ChessDiagram:
    """Inverse of render, for round-trip checks."""
    if format == "ascii":
        lines = [ln for ln in text.splitlines() if ln]
    elif format == "fen":
        lines = re.sub(r"\d+", lambda run: "." * int(run[0]), text).split("/")
    else:
        raise ValueError(f"unknown format {format!r}")
    return ChessDiagram(len(lines), len(lines[0]),
                        [list(ln) for ln in reversed(lines)])


def extract_components(diag: ChessDiagram) -> "list[Word]":
    """Read the component words back out of a diagram: a component file
    holds the squares of an open file, and on boards of height 9 or more it
    is stopped when it holds all those of a stopped file."""
    h = diag.height
    open_sq, stopped_sq = _file_squares(0, h), _file_squares(1, h)[2:]
    comps = []
    run = []
    for f in range(1, diag.width + 1):
        if all(diag.cell(f, row) == piece for row, piece in open_sq):
            run.append(int(h >= 9 and all(
                diag.cell(f, row) == piece for row, piece in stopped_sq)))
        elif run:
            comps.append(Word(run))
            run = []
    if run:
        comps.append(Word(run))
    return comps
