"""Slow exact reference implementations the fast kernels are checked
against (imported by the tests and by the throughput benchmark)."""

from __future__ import annotations

import numpy as np

from repro.memsim.reuse import COLD, previous_occurrence


def fenwick_reuse_distances(stream) -> np.ndarray:
    """Bennett-Kruskal reuse distances: one Fenwick-tree pass over time.

    The tree marks, at each time, the positions that are currently the
    latest access of some item; the distance of an access is the number
    of marks strictly between it and its previous occurrence.
    """
    prev = previous_occurrence(np.asarray(stream))
    n = prev.size
    out = np.full(n, COLD, dtype=np.int64)
    size = n + 1
    tree = [0] * size  # Fenwick tree over access times (1-based)
    for t, t0 in enumerate(prev.tolist()):
        if t0 >= 0:
            # Count marks strictly inside (t0, t): each is the latest
            # access of a distinct other item touched since t0.
            s = 0
            i = t  # prefix over [0, t-1], 1-based index t
            while i > 0:
                s += tree[i]
                i -= i & (-i)
            i = t0 + 1
            while i > 0:
                s -= tree[i]
                i -= i & (-i)
            out[t] = s
            i = t0 + 1  # unmark the previous occurrence
            while i < size:
                tree[i] -= 1
                i += i & (-i)
        i = t + 1  # mark this occurrence as the item's latest
        while i < size:
            tree[i] += 1
            i += i & (-i)
    return out
