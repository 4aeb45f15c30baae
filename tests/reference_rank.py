"""Reference GF(p) rank for the tests: the int64 numpy elimination.

``sprank.oracle`` once ranked its realization with this kernel.  The
library now eliminates rows packed into Python integers; the tests require
it to give the same rank as this one.
"""

import numpy as np

from sprank.oracle import _PRIME


def rank_mod_p(matrix) -> int:
    """Rank over GF(p) by fraction-free Gaussian elimination in int64.

    Every entry is kept as a residue in [0, p), p = ``_PRIME``, so no
    product of two reaches 2**62.  In each column the first row with a
    nonzero entry a there is the pivot.  Every other row holding an entry f
    in that column becomes a * row - f * pivot row, mod p, from that column
    on, which zeroes its entry and scales the row by a != 0 without an
    inverse.  The pivot row then retires: it is zeroed, so no later column
    picks or updates it again, and no row is ever swapped.  The rank is
    the number of pivots.
    """
    p = _PRIME
    a = np.asarray(matrix, dtype=np.int64) % p
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        live = np.flatnonzero(a[:, col])
        if not live.size:
            continue
        pivot, rest = live[0], live[1:]
        if rest.size:
            head = a[pivot, col:]
            a[rest, col:] = (head[0] * a[rest, col:] - a[rest, col, None] * head) % p
        a[pivot] = 0
        rank += 1
    return rank

