import itertools
import warnings

import pytest

from pawnnim.embed import (MAX_SQUARES, ChessDiagram, EmbedError,
                           FrameTemplateWarning, embed, extract_components,
                           layout, parse_render, render)
from pawnnim.words import Word, enumerate_words

# 9x12 reference diagrams, rows printed top to bottom

DIAG_SINGLE_PLAIN = """\
...........k
..........pP
......p...P.
ppppp..p....
......pP....
PPPPP.P.....
.......P..p.
..........Pp
...........K"""

DIAG_STOPPED_PLUS_HEAP = """\
...........k
p.........pP
P.....p...P.
pppp...p.p..
......pP....
PPPP..P..P..
p......P..p.
P.........Pp
...........K"""

DIAG_STOPPED_ONLY = """\
...........k
p.........pP
P.....p...P.
pppp...p....
......pP....
PPPP..P.....
p......P..p.
P.........Pp
...........K"""


def test_golden_single_plain_component():
    assert render(embed(["00000"], 9, 12)) == DIAG_SINGLE_PLAIN


def test_golden_stopped_component_with_heap_file():
    assert render(embed(["1000", "0"], 9, 12)) == DIAG_STOPPED_PLUS_HEAP


def test_golden_stopped_component_alone():
    assert render(embed(["1000"], 9, 12)) == DIAG_STOPPED_ONLY


def test_fen_rendering():
    diag = embed(["00000"], 9, 12)
    fen = render(diag, "fen")
    rows = fen.split("/")
    assert rows[0] == "11k"
    assert rows[3] == "ppppp2p4"
    assert len(rows) == 9
    # kings only, pieces P,p,K,k and digits
    assert set(fen) <= set("Pp Kk0123456789/".replace(" ", ""))


def test_fen_multi_digit_runs():
    diag = ChessDiagram(1, 13)
    diag.put(13, 1, "K")
    assert render(diag, "fen") == "12K"
    tiny = ChessDiagram(1, 1)
    tiny.put(1, 1, "K")
    assert render(tiny, "fen") == "K"
    assert render(tiny, "ascii") == "K"


def test_render_parse_round_trip():
    diag = embed(["1000", "0"], 9, 12)
    for fmt in ("ascii", "fen"):
        assert parse_render(render(diag, fmt), fmt).rows == diag.rows
    # runs of ten or more empty squares
    wide = embed(["0", "1010", "0"], 9, 30)
    assert render(wide, "fen").startswith("29k/")
    for fmt in ("ascii", "fen"):
        assert parse_render(render(wide, fmt), fmt).rows == wide.rows
    with pytest.raises(ValueError):
        render(diag, "png")


def test_extraction_is_identity():
    cases = [["00000"], ["1000"], ["1000", "0"], ["010", "00100"],
             ["0", "0", "0"], ["1000", "01"], ["010", "00100", "1"]]
    for comps in cases:
        for width in (20, None):
            diag = embed(comps, 9, width)
            assert extract_components(diag) == [Word(c) for c in comps]


def test_default_width_leaves_the_zugzwang_neighbour_empty():
    # one empty file between the last left component and the Zugzwang
    # file n - 5, so no component pawn can capture a frame pawn
    for comps, width in ((["00000"], 12), (["1000", "01"], 14),
                         (["1000", "0"], 11), (["0", "0", "0"], 10)):
        diag = embed(comps, 9)
        assert diag.width == width
        assert all(diag.cell(width - 6, row) == "." for row in range(1, 10))
        assert diag.cell(width - 7, 4) == "P"


def test_extraction_identity_other_heights():
    for height in (7, 11):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FrameTemplateWarning)
            diag = embed(["000"], height, 12)
        assert extract_components(diag) == [Word("000")]


@pytest.mark.parametrize("height", [9, 11, 13])
def test_stoppers_sit_beyond_the_far_rows(height):
    # White's far row is (h + 3)/2 and Black's (h - 1)/2; a pawn that
    # reaches it on a stopped file is blocked by the stopper next beyond
    cases = [["1000"], ["1000", "0"], ["010", "00100"], ["1000", "01"],
             ["0101", "001"], ["10100", "1"]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FrameTemplateWarning)
        for comps in cases:
            diag = embed(comps, height)
            assert extract_components(diag) == [Word(c) for c in comps]
        diag = embed(["10"], height)
    white_far, black_far = (height + 3) // 2, (height - 1) // 2
    pawns = {black_far - 2: "P", black_far - 1: "p", black_far: "P",
             white_far: "p", white_far + 1: "P", white_far + 2: "p"}
    rows = range(1, height + 1)
    assert [diag.cell(1, row) for row in rows] == [pawns.get(row, ".")
                                                   for row in rows]
    # the open file holds only the component pawns
    assert [diag.cell(2, row) for row in rows] == [
        pawns.get(row, ".") if row in (black_far, white_far) else "."
        for row in rows]


def _pawn_attacks(diag):
    """(file, row) of each White pawn that attacks a Black pawn, which
    stands one row up on a neighbouring file."""
    rows = diag.rows
    return [(f + 1, r + 1) for r in range(diag.height - 1)
            for f in range(diag.width) if rows[r][f] == "P"
            and "p" in rows[r + 1][max(f - 1, 0):f] + rows[r + 1][f + 1:f + 2]]


@pytest.mark.parametrize("height", [9, 11, 13])
def test_no_pawn_attacks_an_enemy_pawn(height):
    # in the initial position every pawn is blocked or free to advance,
    # never en prise: a trailing stopped file such as 00,1 once sat in the
    # frame's spare file, where its stoppers met the corner-lock pawns
    words = [w for m in range(1, 5) for w in enumerate_words(m)]
    assert Word("0") in words and Word("1") in words
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FrameTemplateWarning)
        for k in (1, 2, 3):
            for comps in itertools.product(words, repeat=k):
                assert _pawn_attacks(embed(comps, height)) == [], comps


def test_dimension_errors():
    with pytest.raises(EmbedError):
        embed(["00000"], 8, 12)       # even height
    with pytest.raises(EmbedError):
        embed(["00000"], 5, 12)       # too short
    with pytest.raises(EmbedError):
        embed(["1000"], 7, 12)        # stopped file needs height 9
    with pytest.raises(EmbedError):
        embed(["0000000"], 9, 12)     # no room next to the frame
    with pytest.raises(EmbedError):
        embed(["011"], 9, 12)         # invalid word
    with pytest.raises(EmbedError):
        embed([""], 9, 12)
    with pytest.warns(FrameTemplateWarning):
        embed(["000"], 7, 12)         # plain words allowed at height 7


def test_layout_bounds_the_board():
    # refused by layout, before a diagram allocates its cells
    widest = MAX_SQUARES // 9
    assert layout(["1000"], 9, widest)[2] == widest
    for height, width in ((1000000001, None), (9, widest + 1)):
        with pytest.raises(EmbedError, match=f"more than {MAX_SQUARES}"):
            layout(["1000"], height, width)


def test_height_warning_outside_reference():
    with pytest.warns(FrameTemplateWarning):
        embed(["000"], 11, 12)


def test_diagram_invariants():
    diag = embed(["1000", "0"], 9, 12)
    counts = diag.counts()
    assert counts["K"] == counts["k"] == 1
    assert counts["P"] == counts["p"]  # construction is colour-symmetric
    with pytest.raises(EmbedError):
        diag.put(1, 4, "P")  # occupied square
