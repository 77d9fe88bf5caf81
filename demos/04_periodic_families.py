"""Periodic stopping patterns: long runs, milestones, periods.

For words cut from a periodic pattern there are only p distinct subwords
per length, so values to length n cost O(p n^2) instead of exhaustive
blowup.  Some families settle into a repeating pattern; others keep
producing new powers of two as far as anyone has looked.
"""

from pawnnim import PeriodicPattern, PeriodicTable, detect_period
from pawnnim.experiments import periodic_scan

# No stopped files: the values repeat with period 10 from the start, and
# the doubling-window check (through length 23) turns the observation
# into a proof.
plain = PeriodicPattern(1, frozenset())
scan = periodic_scan(plain, 60)
print("plain family, lengths 0..20:", list(scan.values[:21]))
rep = scan.report
print(f"period {rep.period}, preperiod {rep.preperiod}, "
      f"verified={rep.verified} on window {rep.window}")

# Stopping every sixth file (residue 4) produces steadily growing values:
# each power of two appears at a modest length.
p6 = PeriodicPattern(6, frozenset({4}))
scan = periodic_scan(p6, 600, detect=False)
print("\nevery sixth file stopped, milestones to length 600:")
for power, length in sorted(scan.milestones.items()):
    print(f"  first *{power} at length {length}")
print("(the run to length 3545 reaches *256; 21208 reaches *1024)")

# Stopping files 0 and 5 mod 14 settles into period 504 = 36 * 14, with
# all fourteen start phases required to repeat together.
p14 = PeriodicPattern(14, frozenset({0, 5}))
rep = detect_period(PeriodicTable(p14, 4000))
print(f"\nmod-14 pattern: period {rep.period} after preperiod "
      f"{rep.preperiod}, verified={rep.verified}")
