"""Exhaustive sweeps over all components of each length.

The scan engine indexes the words of one length by lexicographic rank and
shares every subword value across words, so sweeping length m costs O(m)
array work per word.  Counts of words per length follow the Fibonacci
numbers, which is why exhaustive scans stop being fun near length 40.
"""

import sys

from pawnnim.experiments import (ScanTables, first_occurrence, two_sig_figs,
                                 value_distribution, write_report)
from pawnnim.words import count_words

print("words per length:",
      {m: count_words(m) for m in (5, 10, 20, 30, 35)})

tables = ScanTables()

# Least length attaining each value: 1, 4, 6, 9, 11, 14, ...
found = first_occurrence(6, 14, tables)
print("\nfirst occurrences (value -> least length, witness):")
for k in sorted(found.lengths):
    print(f"  *{k}: length {found.lengths[k]}  e.g. {found.witnesses[k]}")

# How values are distributed over all words of one length.
row = value_distribution(20, tables)
print(f"\nvalue distribution over all {row.total} words of length 20:")
for v, c in sorted(row.counts.items()):
    print(f"  *{v}: {c} words ({two_sig_figs(100.0 * c / row.total)}%)")

# Reports serialize as CSV or JSON-lines with a provenance header.
print("\nCSV export of the first-occurrence table:")
write_report(found, "csv", sys.stdout)
sys.stdout.flush()

# The length-35 row (24 million words, about a minute) reproduces the
# published percentages; run it yourself:
#   value_distribution(35, tables)
