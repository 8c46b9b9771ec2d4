"""Slow exact reference implementations the fast kernels are checked
against (imported by the tests and by the throughput benchmark)."""

from __future__ import annotations

import numpy as np

from repro.memsim.cache import CacheHierarchy, LRUCache
from repro.memsim.multicore import affinity_sockets
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


def reference_multicore_stats(streams, machine, affinity, quantum=64) -> list:
    """Per-core :class:`HierarchyStats` of a multicore replay done
    entirely by :class:`CacheHierarchy`: each socket's cores interleave
    round-robin, ``quantum`` accesses at a time, through private L1/L2
    and one shared L3 (single-core sockets included)."""
    streams = [np.asarray(s, dtype=np.int64).tolist() for s in streams]
    sockets = affinity_sockets(len(streams), machine, affinity)
    stats = [None] * len(streams)
    for socket in np.unique(sockets):
        cores = np.flatnonzero(sockets == socket).tolist()
        shared = LRUCache(machine.l3)
        hierarchies = [CacheHierarchy(machine, shared_l3=shared) for _ in cores]
        longest = max(len(streams[c]) for c in cores)
        for lo in range(0, longest, quantum):
            for core, hierarchy in zip(cores, hierarchies):
                for line in streams[core][lo : lo + quantum]:
                    hierarchy.access(line)
        for core, hierarchy in zip(cores, hierarchies):
            stats[core] = hierarchy.stats
    return stats
