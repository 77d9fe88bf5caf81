"""A numpy fill of a phase table, one length at a time, that the tests
compare with the compiled kernel of ``pawnnim.grundy.PeriodicTable``.

It states the kernel's rules once more in array form: the moves of every
start phase (``_moves``), each row's mex by scattering its classes into a
bool array, and the colon entries (``_colon_entry``).  ``fill`` returns E,
R and F with the layout ``PeriodicTable`` documents, and ``move_classes``
reads a (p, L) class array from them.
"""

import numpy as np

from pawnnim.words import PeriodicPattern

_SIDE_R, _SIDE_F, _LOONY = 1 << 28, 1 << 29, 1 << 30


def _colon_entry(und, cap, adv, adv_u, loony_bits):
    """Colon entries, per phase, of tails whose capture leaves a piece
    worth ``cap``.  ``adv`` is the entry one file shorter that the advance
    leaves, ``adv_u`` the entry two files shorter that a stopped colon
    file (``und`` 1) leaves after its forced advance.  A plain colon file
    is loony when adv is cap, a stopped one unless adv_u is cap; a loony
    entry equals no value."""
    loony = np.where(und, adv_u != cap, adv == cap)
    return np.where(loony, cap | loony_bits, cap)


def _moves(R, F, L):
    """The moves of the length-L words at every start phase: a class, or
    at least ``_SIDE_R`` for loony.  An end move is the colon entry of the
    rest of the word.  An interior move at file k leaves the capture pieces
    of R[q, k] and of F of the tail from file k + 1: its class is their
    exclusive or with LOONY cleared, and it is loony exactly when a side
    bit survives.  Those tails all end at file L - 1, so their F entries
    are end row (q + L) % p from length L - 1 down to 1."""
    p = R.shape[0]
    if L <= 1:
        return np.zeros((p, L), dtype=np.int32)  # a move to 0
    out = np.empty((p, L), dtype=np.int32)
    right = F[(np.arange(p) + L) % p, L - 1:0:-1]
    out[:, 0] = right[:, 0]
    out[:, 1:L - 1] = (R[:, 1:L - 1] ^ right[:, 1:]) & ~_LOONY
    out[:, L - 1] = R[:, L - 1]
    return out


def move_classes(R, F, L):
    """Class of the move at each file of the length-L word at every start
    phase, -1 for loony."""
    out = _moves(R, F, L)
    out[out >= _SIDE_R] = -1
    return out


def fill(pattern: PeriodicPattern, n: int):
    """E, R and F of ``pattern`` for lengths 0..n, each p x (n + 1) int32
    indexed by phase and length."""
    p, width = pattern.period, n + 1
    phases = np.arange(p)
    flags = np.array([pattern.flag(q) for q in range(p)], dtype=bool)
    open_ = (~flags).astype(np.int32)
    r_loony, f_loony = _LOONY | _SIDE_R * open_, _LOONY | _SIDE_F * open_
    E, R, F = (np.zeros((p, width), dtype=np.int32) for _ in range(3))
    # an empty tail is loony, and its capture leaves nothing, worth 0;
    # R's tail at start phase q reads backwards from file q - 1, and F's
    # at end phase e forwards from file e
    R[:, 0] = r_loony[(phases - 1) % p]
    F[:, 0] = f_loony[phases]
    if n >= 1:
        # a lone file is worth 1, and as a colon tail it is loony
        E[:, 1] = 1
        R[:, 1] = r_loony
        F[:, 1] = f_loony[(phases - 1) % p]
    for L in range(2, n + 1):
        # L moves leave one of the values 0..L unused; loony moves, and
        # any class past L, land in the spare last column of their row
        cls = np.minimum(_moves(R, F, L), L + 1)
        seen = np.zeros((p, L + 2), dtype=bool)
        seen[phases[:, None], cls] = True
        E[:, L] = seen[:, :L + 1].argmin(axis=1)
        # R's tail at start phase q has its colon file at q + L and its
        # first file at q + L - 1; F's tail at end phase e starts at e - L
        # behind the colon file e - L - 1, and without its first file it
        # is the length L - 1 subword at start phase e - L + 1
        R[:, L] = _colon_entry(flags[(phases + L) % p], E[:, L - 1],
                               R[:, L - 1], R[:, L - 2],
                               r_loony[(phases + L - 1) % p])
        F[:, L] = _colon_entry(flags[(phases - L - 1) % p],
                               E[(phases - L + 1) % p, L - 1],
                               F[:, L - 1], F[:, L - 2],
                               f_loony[(phases - L) % p])
    return E, R, F
