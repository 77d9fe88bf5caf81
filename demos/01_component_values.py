"""Component values and move classification.

A component is a run of adjacent files, each file holding one pawn per
side on its home row; some files may be "stopped", meaning a pawn that
reaches the far row there scores nothing.  Every component is worth a Nim
heap, and every move is either loony (a losing move in any context) or
equivalent to a plain move to a Nim value.  This script evaluates a few
components and classifies their moves.
"""

from pawnnim import GrundyTable, Word, classify_move, epsilon

table = GrundyTable()

# Runs of unstopped files only ever produce values 0 and 1.
print("plain runs:")
for m in range(1, 11):
    print(f"  [{m} files] -> *{epsilon(Word('0' * m), table)}")

# Stopping the end file of a four-file run yields the first *2.
w = Word("1000")
print(f"\nword 1000 (first file stopped) -> *{epsilon(w, table)}")
print("move classification, file by file:")
for k in range(len(w)):
    cls = classify_move(w, k, table)  # -1 for a loony move
    verdict = "loony" if cls < 0 else f"equivalent to a move to *{cls}"
    print(f"  file {k + 1}: {verdict}")

# The unique winning move in [1000] + *1 is the file-2 move (value 1
# cancels the heap); file 4 wins when the component stands alone.

# Larger values appear quickly once stopped files are allowed.
for text in ("101001000", "10100100010100001000"):
    print(f"\nword {text} -> *{epsilon(Word(text), table)}")
