"""Period detection and the doubling-window proof check in numpy, which the
tests compare with ``pawnnim.grundy.detect_period`` and
``verify_period_window``, which run the compiled kernel's ``last_break``
on a table's buffers.

Each states its function's rule in whole-array form: a period P holds
from n0 on when every phase's row agrees with itself shifted by P at each
length from n0 + P up.
"""

import numpy as np

from pawnnim.grundy import InsufficientTableError, PeriodReport


def detect_period(table):
    """The report ``pawnnim.grundy.detect_period`` gives."""
    rows, nmax = table.E, table.n
    for P in range(table.p, nmax // 2 + 1, table.p):
        eq = (rows[:, P:] == rows[:, :-P]).all(axis=0)
        bad = np.flatnonzero(~eq)
        n0 = 0 if bad.size == 0 else int(bad[-1]) + 1
        if n0 + 2 * P <= nmax:
            verified = False
            if nmax >= _window(n0, P)[1]:
                verified = verify_period_window(table, n0, P)
            report = PeriodReport(n0, P, verified)
            assert report.window == _window(n0, P)
            return report
    return None


def _window(preperiod, period):
    """The doubling window: from preperiod + period to twice that plus
    three, the most files one compound move removes."""
    return preperiod + period, 2 * (preperiod + period) + 3


def verify_period_window(table, preperiod, period):
    """The verdict of ``pawnnim.grundy.verify_period_window``: E repeats
    with the period from preperiod + period to the window's end, and R
    and F from one length higher."""
    lo, hi = _window(preperiod, period)
    if table.n < hi:
        raise InsufficientTableError(
            f"table filled to {table.n}, need {hi}")
    if period % table.p:
        return False

    def repeats(X, start):
        return np.array_equal(X[:, start:hi + 1],
                              X[:, start - period:hi + 1 - period])

    return (repeats(table.E, lo) and repeats(table.R, lo + 1)
            and repeats(table.F, lo + 1))
