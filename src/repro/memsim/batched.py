"""Batched (vectorized) simulation of the inclusive cache hierarchy.

The reference :class:`~repro.memsim.cache.CacheHierarchy` replays one
event at a time through Python list operations. This engine computes the
same per-level access/hit/miss counts from vectorized *within-set stack
distances* instead (the paper's Section 3.1 equivalence: under LRU an
access hits a ``W``-way set iff the number of distinct lines mapped to
its set since its previous access is ``< W``), cascading the predicted
miss stream of each level into the next — exactly the reference's
``accesses(L2) = misses(L1)`` accounting.

Hit resolution is a cascade of cheap exact filters (each decides a large
fraction of accesses in O(1) vectorized work) with an exact scan for the
remainder:

1. ``same-set events in (prev, t) < W`` proves a hit (at most that many
   distinct lines fit in the window) — per-set event ranks make this two
   gathers.
2. ``cold same-set accesses in (prev, t) >= W`` proves a miss (every
   first touch is a distinct line) — two gathers into a per-set cold
   prefix-count array. This kills the long reuses that dominate
   single-pass mesh traces.
3. Survivors scan forward from ``prev`` for the ``W``-th *fresh* arrival
   (first occurrence of a line since ``prev``): hit iff it lands at or
   after ``t``. The scan is chunk-vectorized over set-local event ranks;
   the handful of queries with pathologically sparse windows fall back
   to an exact distinct-line count over their set-local window (the
   events whose previous occurrence precedes ``prev``): counted directly
   while the summed window length is small, otherwise by the dominance
   kernel :func:`repro.memsim.reuse.count_below`.

Inclusive back-invalidation is where the pure cascade can diverge from
the reference: when L2 (or L3) evicts a victim still resident in an
inner level, the reference removes it there too, which the pure
per-level LRU evolution does not see. Removing a resident line both
changes the victim's own future hits and frees a slot that lets *other*
lines survive one extra arrival, so the exact criterion is residency:
the invalidation at eviction time ``T`` is consequential iff the victim
is still resident in an inner level at ``T`` — i.e. fewer than that
level's ``W`` fresh same-set arrivals occurred since the victim's last
inner touch ``i`` at or before ``T``. Verifying this stays cheap
because the W-th same-set outer event after the evicted copy
lower-bounds ``T``: when the victim's last inner touch before its next
outer access already precedes that bound, ``i`` is known without
locating ``T``, and a cold-count filter or a short bounded scan against
the bound then certifies eviction (non-residency) for almost every
candidate. Only the rare leftovers compute the exact ``T`` (W-th fresh
outer arrival) and run the exhaustive residency scan. If a
consequential invalidation *is* found, the exact prefix before the
earliest one is committed and the remainder replays through a reference
hierarchy seeded with the (provably identical) cache state at that
point. Exactness is therefore unconditional for LRU demand streams;
``fifo``/``random`` policies and next-line prefetch fall back to the
reference wholesale (stack distances model neither).
"""

from __future__ import annotations

import numpy as np

from .. import obs
from .cache import CacheHierarchy, HierarchyStats, LevelStats, LRUCache
from .machine import MachineSpec
from .reuse import count_below

__all__ = ["MIN_CASCADE_L2_RATIO", "batched_levels", "cascade_pays"]

#: The cascade pays where L2 holds several times L1's lines. An inclusive
#: L2 barely larger than L1 back-invalidates L1-resident lines within a
#: few events of any starting point, so nearly every event ends in the
#: exact per-access tail and the vectorized pass is wasted: on the
#: calibrated crake machines a per-access replay was faster up to an
#: L2/L1 line ratio of 5.75, the cascade from 6.25 up (DESIGN §10.2).
MIN_CASCADE_L2_RATIO = 6

# Forward-scan tuning: chunk width per vectorized step; the bounded loop
# runs until the surviving query set is tiny or the step budget is hit,
# then hands off to an exact fallback.
_SCAN_CHUNK = 24
_SCAN_MAX_STEPS = 40
_SCAN_MIN_ACTIVE = 192

# Exact fallback: count scan survivors' windows element by element while
# their summed length stays within this many times the stream length
# (in chunks of _DIRECT_CHUNK elements); beyond it, one dominance-kernel
# call over the whole set-grouped stream.
_DIRECT_WORK_FACTOR = 4
_DIRECT_CHUNK = 1 << 18


def _argsort_stable(values: np.ndarray) -> np.ndarray:
    """Stable argsort, downcast to speed up the radix passes.

    Wide-range keys are sorted digit-by-digit (radix-65536): a stable
    sort by the high digit of a low-digit-sorted order is a
    lexicographic — hence numeric — sort, and two narrow counting sorts
    beat one wide comparison/radix sort by ~2x at the 1M-event scale.
    """
    if values.size == 0:
        return np.argsort(values, kind="stable")
    hi = int(values.max())
    if int(values.min()) < 0:
        return np.argsort(values, kind="stable")
    if hi < (1 << 15):
        return np.argsort(values.astype(np.int16), kind="stable")
    lo_order = np.argsort(
        (values & 0xFFFF).astype(np.uint16), kind="stable"
    )
    if hi < (1 << 16):
        return lo_order
    high = values[lo_order] >> 16
    return lo_order[_argsort_stable(high)]


class _LevelStream:
    """One cache level's access stream with its distance structures.

    Positions, ranks and link arrays are int32 (streams are far below
    2**31 events); composites that multiply by ``n`` are built in int64.
    """

    def __init__(
        self,
        lines: np.ndarray,
        num_sets: int,
        ways: int,
        order: np.ndarray | None = None,
    ):
        self.lines = lines
        self.num_sets = num_sets
        self.ways = ways
        n = lines.size
        self.n = n
        self._prev = None
        self._nxt = None
        if n:
            # ``order`` (line-grouped, time-ordered positions) can be
            # handed down from the previous level's structures — a
            # subsequence of a valid grouping is a valid grouping — which
            # skips the argsort for L2/L3.
            if order is None:
                order = _argsort_stable(lines).astype(np.int32)
            sl = lines[order]
            same = sl[1:] == sl[:-1]
            self._order = order
            self.n_warm = int(np.count_nonzero(same))
            if self.n_warm:
                prev = np.full(n, -1, dtype=np.int32)
                nxt = np.full(n, n, dtype=np.int32)
                prev[order[1:][same]] = order[:-1][same]
                nxt[order[:-1][same]] = order[1:][same]
                self._prev = prev
                self._nxt = nxt
        else:
            self._order = np.empty(0, dtype=np.int32)
            self.n_warm = 0
        if num_sets > 1:
            sets = (lines % num_sets).astype(np.int32)
            self.sets = sets
            # set-grouped, time-ordered event positions (stable sort by
            # set id; radix on the narrow dtype).
            so = _argsort_stable(sets).astype(np.int32)
            self.so = so
            counts = np.bincount(sets, minlength=num_sets).astype(np.int32)
            starts = np.zeros(num_sets + 1, dtype=np.int32)
            np.cumsum(counts, out=starts[1:])
            self.set_starts = starts
            self._set_counts = counts
            ranks = np.empty(n, dtype=np.int32)
            ranks[so] = np.arange(n, dtype=np.int32) - np.repeat(
                starts[:-1], counts
            )
            self.set_ranks = ranks
        else:
            self.sets = None
            self.so = None
            self.set_starts = None
            self.set_ranks = None
            self._set_counts = None
        self._cr = None
        self._cold_so = None
        self._occ = None
        self._prevs_so = None
        self._fo = None
        self._comp = None
        self._lr = None
        self._lt = None
        self._cb = None

    # -- lazy structures (only some traces / code paths need them) --

    @property
    def prev(self) -> np.ndarray:
        """Previous same-line position (-1 for first touches).

        All-cold streams have the constant answer; the hot paths
        shortcut on ``n_warm == 0`` before ever touching these, so the
        arrays only materialize for warm streams (where ``__init__``
        built them eagerly) or rare straggler paths.
        """
        if self._prev is None:
            self._prev = np.full(self.n, -1, dtype=np.int32)
        return self._prev

    @property
    def nxt(self) -> np.ndarray:
        """Next same-line position (``n`` for final touches)."""
        if self._nxt is None:
            self._nxt = np.full(self.n, self.n, dtype=np.int32)
        return self._nxt

    def _cold_build(self) -> None:
        """Cold (first-touch) prefix structures, built on first use.

        All-cold streams never reach the code paths that need them, so
        the two extra array passes are deferred out of ``__init__``.
        """
        iscold = self.prev < 0
        if self.sets is None:
            self._cr = np.cumsum(iscold, dtype=np.int32)
            self._cold_so = np.nonzero(iscold)[0].astype(np.int32)
        else:
            so = self.so
            cold_so = iscold[so]
            csum = np.cumsum(cold_so, dtype=np.int32)
            tot = np.bincount(self.sets[iscold], minlength=self.num_sets)
            excl = np.zeros(self.num_sets, dtype=np.int64)
            np.cumsum(tot[:-1], out=excl[1:])
            cr = np.empty(self.n, dtype=np.int32)
            cr[so] = csum - np.repeat(excl, self._set_counts).astype(np.int32)
            self._cr = cr
            self._cold_so = so[cold_so]

    @property
    def cr(self) -> np.ndarray:
        """Per-set cold-access prefix counts (cr[pos] = colds <= pos)."""
        if self._cr is None:
            self._cold_build()
        return self._cr

    @property
    def cold_so(self) -> np.ndarray:
        """Cold access positions in set-grouped, time-sorted order."""
        if self._cold_so is None:
            self._cold_build()
        return self._cold_so

    @property
    def occ_comp(self) -> np.ndarray:
        """Sorted (line, position) composite of every occurrence."""
        if self._occ is None:
            o = self._order.astype(np.int64)
            self._occ = self.lines[o].astype(np.int64) * self.n + o
        return self._occ

    @property
    def prevs_so(self) -> np.ndarray:
        """``prev`` gathered into set-grouped order (scan working array)."""
        if self._prevs_so is None:
            self._prevs_so = (
                self.prev if self.so is None else self.prev[self.so]
            )
        return self._prevs_so

    def final_occ(self, victims: np.ndarray) -> np.ndarray:
        """Last stream position of each victim line (-1 when absent).

        In the full-trace cascade victims always occur; the streaming
        engine also asks about carry lines of an *outer* level that may
        never appear in this stream, hence the -1 branch.
        """
        if self._fo is None:
            if self.n == 0:
                self._fo = np.empty(0, dtype=np.int64)
            else:
                order = self._order
                sl = self.lines[order]
                group_end = np.empty(order.size, dtype=bool)
                group_end[-1:] = True
                group_end[:-1] = sl[1:] != sl[:-1]
                fo = np.full(int(self.lines.max()) + 1, -1, dtype=np.int64)
                fo[sl[group_end]] = order[group_end]
                self._fo = fo
        v = np.asarray(victims, dtype=np.int64)
        out = np.full(v.shape, -1, dtype=np.int64)
        ok = v < self._fo.size
        out[ok] = self._fo[v[ok]]
        return out

    def last_touch_before(
        self, victims: np.ndarray, times: np.ndarray
    ) -> np.ndarray:
        """Last occurrence of each victim at or before ``times`` (-1 when
        the victim has no occurrence in that range)."""
        occ = self.occ_comp
        v = victims.astype(np.int64)
        idx = np.searchsorted(occ, v * self.n + times, side="right") - 1
        pos = occ[np.maximum(idx, 0)]
        ok = (idx >= 0) & (pos // self.n == v)
        return np.where(ok, pos % self.n, np.int64(-1))

    @property
    def comp(self) -> np.ndarray:
        """Full sorted (set, position) composite of every event."""
        if self._comp is None:
            so = self.so.astype(np.int64)
            counts = np.diff(self.set_starts)
            self._comp = (
                np.repeat(np.arange(self.num_sets), counts) * self.n + so
            )
        return self._comp

    def rank_upto(self, sigma: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Absolute rank bound: events of set ``sigma`` at or before
        ``pos`` (``pos`` need not belong to ``sigma``)."""
        if self.sets is None:
            return pos + 1
        return np.searchsorted(self.comp, sigma * self.n + pos, side="right")

    # Cold-count lower bounds are answered from per-set, per-block
    # cumulative counts (gathers instead of keyed searchsorted); partial
    # blocks at the window edges are forfeited, which only ever makes
    # the bound smaller — safe for its use as an eviction certificate.
    _COLD_BLOCK = 1024

    def cold_lb(
        self, sigma: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        """Lower bound on cold accesses of set ``sigma`` in ``(lo, hi]``."""
        B = self._COLD_BLOCK
        if self._cb is None:
            nb = self.n // B + 1
            cold_pos = self.cold_so.astype(np.int64)
            if self.sets is None:
                key = cold_pos // B
            else:
                key = self.sets[cold_pos].astype(np.int64) * nb + cold_pos // B
            counts = np.bincount(key, minlength=self.num_sets * nb)
            cb = np.zeros(self.num_sets * nb + 1, dtype=np.int32)
            np.cumsum(counts, out=cb[1:])
            self._cb = (cb, nb)
        cb, nb = self._cb
        base = sigma * nb
        b_lo = lo // B + 1  # first block fully inside the window
        b_hi = (hi + 1) // B  # blocks ending at or before hi+1
        return np.maximum(cb[base + np.maximum(b_hi, b_lo)] - cb[base + b_lo], 0)

    def last_suffix(self, pos: np.ndarray) -> np.ndarray:
        """Distinct same-set lines whose final occurrence is after ``pos``
        (``pos`` must be a final occurrence itself, excluded from the
        count)."""
        if self.n_warm == 0:
            # Every occurrence is final and distinct: the suffix count
            # is just the number of same-set events after ``pos``.
            if self.sets is None:
                return self.n - 1 - pos
            return self._set_counts[self.sets[pos]] - 1 - self.set_ranks[pos]
        if self._lr is None:
            is_last = self.nxt == self.n
            if self.sets is None:
                self._lr = np.cumsum(is_last, dtype=np.int32)
                self._lt = np.array([self._lr[-1]], dtype=np.int32)
            else:
                so = self.so
                last_so = is_last[so]
                csum = np.cumsum(last_so, dtype=np.int32)
                counts = np.diff(self.set_starts)
                tot = np.bincount(
                    self.sets[is_last], minlength=self.num_sets
                ).astype(np.int32)
                excl = np.zeros(self.num_sets, dtype=np.int64)
                np.cumsum(tot[:-1], out=excl[1:])
                lr = np.empty(self.n, dtype=np.int32)
                lr[so] = csum - np.repeat(excl, counts).astype(np.int32)
                self._lr = lr
                self._lt = tot
        if self.sets is None:
            return self._lt[0] - self._lr[pos]
        return self._lt[self.sets[pos]] - self._lr[pos]

    def solve_hits(self) -> np.ndarray:
        """Pure per-set LRU hit mask for every access of this stream."""
        n, W = self.n, self.ways
        hit = np.zeros(n, dtype=bool)
        if n == 0 or self.n_warm == 0:
            return hit
        prev = self.prev
        t_idx = np.nonzero(prev >= 0)[0]
        p_idx = prev[t_idx].astype(np.int64)
        # 1. few same-set events in the window => hit.
        if self.sets is None:
            gap_events = t_idx - p_idx - 1
        else:
            gap_events = (
                self.set_ranks[t_idx].astype(np.int64) - self.set_ranks[p_idx]
            )
            gap_events -= 1
        easy_hit = gap_events < W
        hit[t_idx[easy_hit]] = True
        keep = ~easy_hit
        t_idx, p_idx = t_idx[keep], p_idx[keep]
        if t_idx.size:
            # 2. >= W cold same-set accesses in the window => miss.
            # t is warm, so cr[t] counts exactly the colds before
            # it; cr[p] includes p itself when p is the first touch.
            colds = self.cr[t_idx] - self.cr[p_idx]
            live = colds < W
            t_idx, p_idx = t_idx[live], p_idx[live]
        if t_idx.size == 0:
            return hit
        # 3. scan for the W-th fresh arrival in (prev, t).
        if self.sets is None:
            k_rank, end_rank = p_idx, t_idx
        else:
            base = self.set_starts[self.sets[t_idx]]
            k_rank = base + self.set_ranks[p_idx]
            end_rank = base + self.set_ranks[t_idx]
        ev, pending = _wth_fresh_after(self, p_idx, k_rank, end_rank)
        hit[t_idx] = ev >= n  # fewer than W fresh => distance < W
        if pending.size:
            d = self._window_distances(
                k_rank[pending] + 1, end_rank[pending], p_idx[pending]
            )
            hit[t_idx[pending]] = d < W
        return hit

    def _window_distances(
        self, lo: np.ndarray, hi: np.ndarray, p_q: np.ndarray
    ) -> np.ndarray:
        """Exact within-set stack distance of scan-resistant queries.

        ``[lo, hi)`` is each query's window in set-grouped rank space
        (the same-set events strictly between ``p_q`` and the access);
        its distinct lines are the events there whose previous
        occurrence precedes ``p_q``.
        """
        prevs = self.prevs_so
        lens = hi - lo
        total = int(lens.sum())
        over = total > _DIRECT_WORK_FACTOR * self.n
        obs.add("memsim.batched.fallback_queries", int(lo.size))
        obs.add("memsim.batched.fallback_kernel_calls", int(over))
        obs.add("memsim.batched.fallback_direct_elements", 0 if over else total)
        if over:
            return count_below(prevs + 1, lo, hi, p_q + 1)
        out = np.zeros(lo.size, dtype=np.int64)
        starts = np.cumsum(lens) - lens  # flat offset of each window
        for s in range(0, total, _DIRECT_CHUNK):
            k = np.arange(s, min(s + _DIRECT_CHUNK, total))
            q = np.searchsorted(starts, k, side="right") - 1
            below = prevs[lo[q] + (k - starts[q])] < p_q[q]
            out += np.bincount(q[below], minlength=lo.size)
        return out


def _subset_order(order: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Line-grouped order of the subsequence selected by ``member``.

    A subsequence of a stable (line, time) grouping is itself a stable
    grouping, so the next level's order falls out of the previous
    level's without another argsort.
    """
    kept = order[member[order]]
    local = np.cumsum(member, dtype=np.int32)
    return local[kept] - np.int32(1)


def _wth_fresh_after(
    stream: _LevelStream,
    k_pos: np.ndarray,
    k_rank: np.ndarray,
    end_rank: np.ndarray,
    exhaustive: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Position of the W-th fresh arrival in the set of each ``k``.

    ``k_pos`` is the reference position (freshness = ``prev <= k_pos``),
    ``k_rank`` its set-local rank, ``end_rank`` the exclusive set-local
    rank bound of the scan window. Returns ``(out, pending)``: ``out``
    holds the global position of the W-th fresh arrival or ``n`` when
    fewer than W occur in the window; ``pending`` the indices the
    bounded scan did not resolve (callers finish them via
    :meth:`_LevelStream._window_distances`). With ``exhaustive=True`` the
    vector loop runs to completion and ``pending`` is always empty.
    """
    n, W = stream.n, stream.ways
    out = np.full(k_pos.size, n, dtype=np.int64)
    if k_pos.size == 0:
        return out, np.empty(0, dtype=np.int64)
    prevs = stream.prevs_so  # int32, set-grouped order
    posarr = stream.so  # None => rank space == position space
    max_rank = np.int32(prevs.size - 1)
    k32 = k_pos.astype(np.int32)
    active = np.arange(k_pos.size)
    cursor = (k_rank + 1).astype(np.int32)
    end32 = np.asarray(end_rank, dtype=np.int32)
    found = np.zeros(k_pos.size, dtype=np.int32)
    chunk = np.arange(_SCAN_CHUNK, dtype=np.int32)
    step = 0
    while active.size:
        rk = cursor[active][:, None] + chunk
        rk_c = np.minimum(rk, max_rank)
        fresh = (prevs[rk_c] <= k32[active][:, None]) & (
            rk < end32[active][:, None]
        )
        cum = np.cumsum(fresh, axis=1, dtype=np.int32) + found[active][:, None]
        hitmask = cum >= W
        done = hitmask[:, -1]  # cum is monotone per row
        first = np.argmax(hitmask, axis=1)
        rows = np.nonzero(done)[0]
        sel = rk_c[rows, first[rows]]
        out[active[rows]] = sel if posarr is None else posarr[sel]
        exhausted = ~done & (rk[:, -1] >= end32[active] - 1)
        keep = ~done & ~exhausted
        found[active] = cum[:, -1]
        cursor[active] += _SCAN_CHUNK
        active = active[keep]
        step += 1
        if not exhaustive and (
            step >= _SCAN_MAX_STEPS or active.size <= _SCAN_MIN_ACTIVE
        ):
            break
    return out, active


def _evicted_copies(stream: _LevelStream, hit: np.ndarray) -> np.ndarray:
    """Positions whose installed/refreshed copy is later evicted.

    A copy touched at ``k`` is evicted before its next touch iff that
    next touch misses; a *final* touch's copy is evicted iff at least
    ``W`` distinct other lines hit its set afterwards — equivalently,
    at least ``W`` same-set *last occurrences* lie strictly after ``k``.
    """
    n, W = stream.n, stream.ways
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if stream.n_warm == 0:
        # Every copy is a final touch; its suffix of same-set events is
        # all distinct lines, so it is evicted iff at least W follow.
        if stream.sets is None:
            return np.arange(max(n - W, 0))
        suffix = stream._set_counts[stream.sets] - 1 - stream.set_ranks
        return np.nonzero(suffix >= W)[0]
    nxt = stream.nxt
    has_next = nxt < n
    ev_mask = np.zeros(n, dtype=bool)
    hn = np.nonzero(has_next)[0]
    ev_mask[hn] = ~hit[nxt[hn]]
    last = np.nonzero(~has_next)[0]
    if last.size:
        ev_mask[last] = stream.last_suffix(last) >= W
    return np.nonzero(ev_mask)[0]


def _nth_set_event_after(stream: _LevelStream, pos: np.ndarray) -> np.ndarray:
    """Stream position of the W-th same-set event after each ``pos``.

    Returns -1 where fewer than W same-set events follow (certified
    evicted copies always have at least W, so -1 only guards clipping).
    """
    n, W = stream.n, stream.ways
    if stream.sets is None:
        tgt = pos + W
        return np.where(tgt < n, np.minimum(tgt, n - 1), -1)
    sigma = stream.sets[pos]
    idx = stream.set_starts[sigma] + stream.set_ranks[pos] + np.int32(W)
    ok = idx < stream.set_starts[sigma + 1]
    out = stream.so[np.minimum(idx, n - 1)]
    return np.where(ok, out, np.int32(-1))


def _set_rank_of(stream: _LevelStream, pos: np.ndarray) -> np.ndarray:
    """Absolute set-local rank of each stream position."""
    if stream.sets is None:
        return pos
    return (
        stream.set_starts[stream.sets[pos]]
        + stream.set_ranks[pos].astype(np.int64)
    )


def _eviction_divergences(
    outer: _LevelStream,
    ev: np.ndarray,
    t_outer: np.ndarray,
    victims: np.ndarray,
    inners: list[tuple],
) -> np.ndarray:
    """Global times of consequential back-invalidations among ``ev``.

    ``ev`` are outer-stream positions of certified-evicted copies,
    ``t_outer`` maps outer positions to global time, ``victims`` the
    evicted line ids, and ``inners`` the levels the invalidation reaches
    (stream plus its position→global-time map, ``None`` for identity; an
    optional third element — default True — states whether equal stream
    lengths imply positional alignment, which holds for the full-trace
    cascade but not for the streaming engine's prefixed streams, whose
    lengths can coincide by accident).

    The streaming engine calls this with per-level carry prefixes
    injected at negative times. Two properties keep the logic intact:
    carry lines are distinct within a level (so a victim's next outer
    occurrence is always a real-time event), and a carry never exceeds
    ``W`` lines per set (so every certified eviction time lands at
    real time too). Victims may however be entirely absent from an
    *inner* prefixed stream; absence proves non-residency (the prefix
    enumerates exactly the inner level's residents), handled below by
    the ``absent`` masks.

    The invalidation at eviction time ``T`` changes future behaviour iff
    the victim is still *resident* in some inner level at ``T``: fewer
    than that level's ``W`` fresh same-set arrivals since the victim's
    last inner touch ``i <= T``. Residency is decided per inner level by
    a filter cascade keyed off ``Tmin``, the W-th same-set outer event
    after the copy (a lower bound on ``T``): when the victim's last
    inner touch ``hm`` before its next outer access satisfies
    ``hm <= Tmin``, then ``i = hm`` is known outright, and ``>= W`` cold
    arrivals in ``(i, Tmin]`` — or a bounded scan finding the W-th fresh
    arrival there — proves the victim already left the inner level
    before ``T``. Only unresolved candidates locate the exact ``T``
    (W-th fresh outer arrival before the next outer access) and run the
    exhaustive inner residency scan over ``(i, T]``.
    """
    m = ev.size
    if m == 0:
        return np.empty(0, dtype=np.int64)
    inners = [
        (entry[0], entry[1], entry[2] if len(entry) > 2 else True)
        for entry in inners
    ]
    tmin = _nth_set_event_after(outer, ev)
    valid = tmin >= 0
    if valid.all():
        tmin_glob = t_outer[tmin]
    else:
        tmin_glob = np.where(valid, t_outer[np.maximum(tmin, 0)], -1)
    # Next-outer-touch structures are only needed for warm inner levels
    # (and by stage 4, which rebuilds them for its few stragglers).
    if any(inner.n_warm for inner, _, _ in inners):
        nxt = outer.nxt[ev].astype(np.int64)
        has_nx = nxt < outer.n
        g_next = np.full(m, -1, dtype=np.int64)
        g_next[has_nx] = t_outer[nxt[has_nx]]
    else:
        nxt = has_nx = g_next = None

    states = []
    need_T = np.zeros(m, dtype=bool)
    for inner, t_inner, aligned in inners:
        n_in = inner.n
        if inner.n_warm == 0:
            # All-cold inner stream: every line occurs exactly once, so
            # the victim's only inner touch is its own outer access and
            # every later same-set inner event is a fresh arrival. Its
            # pure inner eviction is therefore the W-th same-set inner
            # event after that touch — gathers, no scans.
            absent = np.zeros(m, dtype=bool)
            if t_inner is None:
                i_pos = t_outer[ev]
                pos_min = tmin_glob
            elif aligned and t_inner.size == outer.n:
                i_pos = ev  # outer events == inner events, same positions
                pos_min = tmin
            else:
                # Line-based lookup (each line occurs at most once, so
                # the final occurrence is the only one); identical to a
                # time search in the full cascade, but also correct for
                # prefixed streams, where outer carry events have no
                # time-matched inner twin.
                i_pos = inner.final_occ(victims)
                absent = i_pos < 0
                i_pos = np.maximum(i_pos, 0)
                pos_min = (
                    np.searchsorted(t_inner, tmin_glob, side="right") - 1
                )
            nth = _nth_set_event_after(inner, i_pos)
            d1 = np.where(nth >= 0, nth, n_in)
            maybe = (~valid | (d1 > pos_min)) & ~absent
            need_T |= maybe
            states.append(
                (inner, t_inner, None, i_pos,
                 np.ones(m, dtype=bool), d1, maybe)
            )
            continue
        sigma = (victims % inner.num_sets).astype(np.int64)
        # Victim's last inner touch before its next outer access (its
        # final inner occurrence when the outer copy is never re-fetched).
        i_pos = np.empty(m, dtype=np.int64)
        if has_nx.any():
            gpos = (
                g_next[has_nx]
                if t_inner is None
                else np.searchsorted(t_inner, g_next[has_nx])
            )
            i_pos[has_nx] = inner.prev[gpos]
        if not has_nx.all():
            i_pos[~has_nx] = inner.final_occ(victims[~has_nx])
        # No inner touch before the next outer access (or ever) means the
        # victim was never inner-resident in range: not consequential.
        absent = i_pos < 0
        # Tmin in inner coordinates (last inner event at or before it).
        if t_inner is None:
            pos_min = tmin_glob
        else:
            pos_min = np.searchsorted(t_inner, tmin_glob, side="right") - 1
        # hm <= Tmin pins i = hm (no inner touches in (Tmin, g_next)).
        case_a = valid & (i_pos <= pos_min) & ~absent
        maybe = ~absent
        d1 = np.full(m, -1, dtype=np.int64)  # inner eviction pos; -1 unknown
        rows = np.nonzero(case_a)[0]
        if rows.size:
            colds = inner.cold_lb(sigma[rows], i_pos[rows], pos_min[rows])
            dead = colds >= inner.ways
            maybe[rows[dead]] = False
            rows = rows[~dead]
        if rows.size:
            # Bounded scan for the victim's pure inner eviction (W-th
            # fresh arrival after i); landing at or before Tmin proves it
            # left the inner level before T. The scan is not clipped at
            # Tmin, so a completed scan pins the eviction exactly and is
            # reused by the exact stage below.
            k_rank = _set_rank_of(inner, i_pos[rows])
            if inner.sets is None:
                end_rank = np.full(rows.size, n_in, dtype=np.int64)
            else:
                end_rank = inner.set_starts[inner.sets[i_pos[rows]] + 1]
            out, pend = _wth_fresh_after(inner, i_pos[rows], k_rank, end_rank)
            resolved = np.ones(rows.size, dtype=bool)
            resolved[pend] = False
            d1[rows[resolved]] = out[resolved]  # n_in = never evicted
            maybe[rows[out <= pos_min[rows]]] = False
        need_T |= maybe
        states.append((inner, t_inner, sigma, i_pos, case_a, d1, maybe))

    needs = np.nonzero(need_T)[0]
    if needs.size == 0:
        return np.empty(0, dtype=np.int64)

    # Exact eviction time T of the unresolved candidates: W-th fresh
    # outer arrival after the copy, strictly before the next outer access.
    k = ev[needs]
    if nxt is None:
        nxtk = outer.nxt[k].astype(np.int64)
        hn = nxtk < outer.n
    else:
        nxtk = nxt[needs]
        hn = has_nx[needs]
    if outer.sets is None:
        k_rank = k
        end_rank = np.where(hn, nxtk, outer.n)
    else:
        base = outer.set_starts[outer.sets[k]]
        k_rank = base + outer.set_ranks[k].astype(np.int64)
        end_rank = np.where(
            hn,
            base + outer.set_ranks[np.minimum(nxtk, outer.n - 1)],
            outer.set_starts[outer.sets[k] + 1],
        )
    T, _ = _wth_fresh_after(outer, k, k_rank, end_rank, exhaustive=True)
    ok = T < outer.n  # paranoia; certified evictions always resolve
    T_glob = np.full(needs.size, -1, dtype=np.int64)
    T_glob[ok] = t_outer[T[ok]]
    divergent = np.zeros(needs.size, dtype=bool)
    for inner, t_inner, sigma, i_pos, case_a, d1, maybe in states:
        rows = np.nonzero(maybe[needs] & ok)[0]
        if rows.size == 0:
            continue
        g = needs[rows]
        if t_inner is None:
            pos_t = T_glob[rows]
        else:
            pos_t = np.searchsorted(t_inner, T_glob[rows], side="right") - 1
        res = np.zeros(rows.size, dtype=bool)
        # Rows whose pure inner eviction the bounded scan already pinned
        # just compare it against T; resident iff it lands after T.
        known = case_a[g] & (d1[g] >= 0)
        if known.any():
            kd = d1[g[known]]
            never = kd >= inner.n
            kd_cl = np.minimum(kd, inner.n - 1)
            kt = kd_cl if t_inner is None else t_inner[kd_cl]
            res[known] = never | (kt > T_glob[rows[known]])
        unk = ~known
        if unk.any():
            # Exact last inner touch at or before T (the case-B hm may
            # lie beyond T), then the exhaustive residency scan of (i, T].
            # A victim with no inner touch at or before T was installed
            # after T (or never): not resident, no scan needed.
            if sigma is None:
                sigma = (victims % inner.num_sets).astype(np.int64)
            gu = g[unk]
            pos_tu = pos_t[unk]
            i_exact = inner.last_touch_before(victims[gu], pos_tu)
            resu = np.zeros(gu.size, dtype=bool)
            touched = i_exact >= 0
            if touched.any():
                k_rank2 = _set_rank_of(inner, i_exact[touched])
                end2 = inner.rank_upto(sigma[gu[touched]], pos_tu[touched])
                out, _ = _wth_fresh_after(
                    inner, i_exact[touched], k_rank2, end2, exhaustive=True
                )
                resu[touched] = out >= inner.n  # < W fresh => resident
            res[unk] = resu
        divergent[rows[res]] = True
    return T_glob[divergent]


def _seed_state(
    cache: LRUCache, stream_lines: np.ndarray, num_sets: int, upto: int
) -> None:
    """Load ``cache`` with the pure-LRU state after ``stream_lines[:upto]``."""
    ways = cache.ways
    filled: dict[int, list[int]] = {}
    remaining = num_sets
    for t in range(upto - 1, -1, -1):
        line = int(stream_lines[t])
        s = line % num_sets
        bucket = filled.setdefault(s, [])
        if len(bucket) >= ways or line in bucket:
            continue
        bucket.append(line)
        if len(bucket) == ways:
            remaining -= 1
            if remaining == 0:
                break
    for s, bucket in filled.items():
        cache._sets[s] = bucket  # MRU-first, matching LRUCache layout


def _batched_lru(
    lines: np.ndarray, machine: MachineSpec
) -> tuple[HierarchyStats, np.ndarray]:
    """Optimistic vectorized cascade with invalidation verification."""
    lines = np.ascontiguousarray(np.asarray(lines, dtype=np.int64))
    n = lines.size
    if n and 0 <= int(lines.min()) and int(lines.max()) < (1 << 31):
        # Narrow ids halve the bandwidth of every line gather below.
        lines = lines.astype(np.int32)
    levels = np.ones(n, dtype=np.int8)
    if n == 0:
        return (
            HierarchyStats(LevelStats("L1"), LevelStats("L2"), LevelStats("L3")),
            levels,
        )

    l1 = _LevelStream(lines, machine.l1.num_sets, machine.l1.associativity)
    hit1 = l1.solve_hits()
    miss1 = ~hit1
    t2 = np.nonzero(miss1)[0]  # global times of L2 accesses
    l2 = _LevelStream(
        lines[t2],
        machine.l2.num_sets,
        machine.l2.associativity,
        order=_subset_order(l1._order, miss1),
    )
    hit2 = l2.solve_hits()
    miss2 = ~hit2
    t3 = t2[miss2]
    l3 = _LevelStream(
        lines[t3],
        machine.l3.num_sets,
        machine.l3.associativity,
        order=_subset_order(l2._order, miss2),
    )
    hit3 = l3.solve_hits()

    # --- verify inclusive back-invalidations ---
    div_time = n  # global time of earliest consequential invalidation

    ev2 = _evicted_copies(l2, hit2)  # L2-stream positions
    if ev2.size:
        div2 = _eviction_divergences(
            l2, ev2, t2, lines[t2[ev2]], [(l1, None)]
        )
        if div2.size:
            div_time = int(div2.min())

    ev3 = _evicted_copies(l3, hit3)
    if ev3.size:
        # An L3 eviction back-invalidates both L2 and L1; divergence if
        # the victim is resident in either.
        div3 = _eviction_divergences(
            l3, ev3, t3, lines[t3[ev3]], [(l1, None), (l2, t2)]
        )
        if div3.size:
            div_time = min(div_time, int(div3.min()))

    # --- assemble served levels ---
    levels[t2] = 2
    levels[t3] = np.where(hit3, 3, 4).astype(np.int8)
    if div_time >= n:
        stats = HierarchyStats(
            LevelStats("L1", n, int(hit1.sum())),
            LevelStats("L2", t2.size, int(hit2.sum())),
            LevelStats("L3", t3.size, int(hit3.sum())),
        )
        return stats, levels

    # --- consequential invalidation: commit exact prefix, replay tail ---
    tau = div_time
    n2 = int(np.searchsorted(t2, tau))
    n3 = int(np.searchsorted(t3, tau))
    stats = HierarchyStats(
        LevelStats("L1", tau, int(hit1[:tau].sum())),
        LevelStats("L2", n2, int(hit2[:n2].sum())),
        LevelStats("L3", n3, int(hit3[:n3].sum())),
    )
    hierarchy = CacheHierarchy(machine)
    _seed_state(hierarchy.l1, lines, machine.l1.num_sets, tau)
    _seed_state(hierarchy.l2, lines[t2], machine.l2.num_sets, n2)
    _seed_state(hierarchy.l3, lines[t3], machine.l3.num_sets, n3)
    access = hierarchy.access
    tail_levels = levels[tau:]
    for off, line in enumerate(lines[tau:].tolist()):
        tail_levels[off] = access(line)
    return stats.merged_with(hierarchy.stats), levels


def cascade_pays(machine: MachineSpec) -> bool:
    """Whether the batched cascade beats a per-access replay on ``machine``."""
    return machine.l2.num_lines >= MIN_CASCADE_L2_RATIO * machine.l1.num_lines


def batched_levels(
    lines: np.ndarray,
    machine: MachineSpec,
    *,
    next_line_prefetch: bool = False,
    policy: str = "lru",
) -> tuple[HierarchyStats, np.ndarray]:
    """Per-level stats plus the served level (1..4) of every access.

    Falls back to the reference simulator for configurations outside the
    stack-distance model (non-LRU policies, next-line prefetch) and for
    machines where the cascade does not pay (:func:`cascade_pays`).
    """
    if policy != "lru" or next_line_prefetch or not cascade_pays(machine):
        hierarchy = CacheHierarchy(
            machine, next_line_prefetch=next_line_prefetch, policy=policy
        )
        arr = np.asarray(lines, dtype=np.int64)
        levels = np.empty(arr.size, dtype=np.int8)
        access = hierarchy.access
        for t, line in enumerate(arr.tolist()):
            levels[t] = access(line)
        return hierarchy.stats, levels
    return _batched_lru(lines, machine)
