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


def detect_period(values, pattern, table=None):
    """The report ``pawnnim.grundy.detect_period`` gives."""
    if table is not None:
        rows, step = table.E[:, :table.n + 1], table.p
    else:
        rows, step = np.asarray(values)[None, :], 1
    nmax = rows.shape[1] - 1
    for P in range(step, nmax // 2 + 1, step):
        eq = (rows[:, P:] == rows[:, :-P]).all(axis=0)
        bad = np.flatnonzero(~eq)
        n0 = 0 if bad.size == 0 else int(bad[-1]) + 1
        if n0 + 2 * P <= nmax:
            window = (n0 + P, 2 * (n0 + P) + 3)
            verified = False
            if table is not None and table.n >= window[1]:
                verified = verify_period_window(table, n0, P)
            return PeriodReport(pattern, n0, P, verified, window)
    return None


def verify_period_window(table, preperiod, period):
    """The verdict of ``pawnnim.grundy.verify_period_window``: E repeats
    with the period from preperiod + period to the window's end, and R
    and F from one length higher."""
    hi = 2 * (preperiod + period) + 3
    lo = preperiod + period
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
