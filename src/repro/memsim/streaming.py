"""Streaming cache simulation: bounded windows, carried state, exact counts.

The in-memory engines hold the whole line stream (plus, for the batched
engine, several index arrays over it). This module replays the same
stream window by window while keeping per-level *carry state* across
window boundaries, so peak memory is proportional to one window — the
enabler of the million-vertex regime. Exactness is preserved bit for
bit; the differential suite pins streaming counts against the in-memory
engines on every overlapping size.

How the batched engine streams
------------------------------
The carry state of a cache level is its per-set resident stacks. Between
windows we store them flat (sets ascending, LRU→MRU within each set) and
*inject* them as a synthetic prefix at negative times in front of the
next window's level stream. Under LRU, hit/miss of any access depends
only on the distinct same-set lines since its previous touch, and the
prefix realizes exactly the distinct-line stacks the level held at the
window boundary — so :meth:`_LevelStream.solve_hits` on the prefixed
stream yields the true hit mask for the window slice (the prefix's own
"accesses" are discarded). Two invariants make the back-invalidation
verification carry over unchanged: a carry holds at most ``W`` distinct
lines per set, so every certified eviction time lands inside the window
(never in the prefix), and carry lines are distinct, so a victim's next
occurrence is always a real event. Victims absent from an inner
prefixed stream are provably not inner-resident (the prefix enumerates
that level's residents), which :func:`_eviction_divergences` now
short-circuits. On a consequential invalidation, the exact window
prefix is committed, a reference hierarchy is seeded with the
(provably identical) state at that point, and the window tail replays
through it — exactly the full-trace engine's fallback, windowed.

Streaming reuse distances
-------------------------
For reuse distances the carry state is one ``(line, last position)``
pair per distinct line seen so far. Prepending one synthetic occurrence
per carried line — ordered by ascending last position — to the next
window reproduces every window access's *global* distinct-line interval
exactly, so :func:`reuse_distances` over the small synthetic stream
returns the true distances (the synthetic prefix's own outputs are
discarded). Merging is exact by construction; no histogram approximation
is involved anywhere.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .. import obs
from .batched import (
    _evicted_copies,
    _eviction_divergences,
    _LevelStream,
    _seed_state,
    batched_levels,
    cascade_pays,
)
from .cache import CacheHierarchy, HierarchyStats, LevelStats, LRUCache
from .machine import MachineSpec
from .reuse import COLD, bucketed_series, reuse_distances

__all__ = [
    "StreamingHierarchy",
    "StreamingReuse",
    "StreamingBucketedSeries",
    "auto_window_events",
    "iter_line_windows",
    "simulate_trace_streaming",
    "streaming_reuse_distances",
]


def iter_line_windows(
    lines: np.ndarray, window_events: int
) -> Iterator[np.ndarray]:
    """Split a line stream into contiguous windows of bounded size."""
    if window_events < 1:
        raise ValueError("window_events must be >= 1")
    arr = np.asarray(lines)
    for lo in range(0, arr.size, window_events):
        yield arr[lo : lo + window_events]


def auto_window_events(machine: MachineSpec) -> int:
    """Replay window for a stream held in memory.

    Four times the hierarchy's line capacity, and at least 64k events:
    each batched pass stays small, and a consequential back-invalidation
    sends only the rest of its own window through the per-access tail,
    not the rest of the stream. The carried state adds at most a quarter
    of a window to each pass.
    """
    capacity = sum(level.num_lines for level in machine.levels())
    return max(1 << 16, 4 * capacity)


def _narrow(lines: np.ndarray) -> np.ndarray:
    # Mirrors the full-trace engine: narrow ids halve gather bandwidth.
    if lines.size and 0 <= int(lines.min()) and int(lines.max()) < (1 << 31):
        return lines.astype(np.int32)
    return lines


def _level_end_state(stream: _LevelStream) -> np.ndarray:
    """Resident lines at stream end, flat (set asc, LRU→MRU) order.

    Pure-LRU residency per set is the ``W`` most recent distinct lines —
    the ``W`` largest *final occurrences* of the set. Valid whenever no
    consequential back-invalidation occurred (non-consequential ones
    remove nothing resident, leaving pure-LRU state intact).
    """
    n = stream.n
    if n == 0:
        return np.empty(0, dtype=np.int64)
    finals = np.nonzero(stream.nxt == n)[0]
    lines = stream.lines
    if stream.sets is None:
        kept = finals[-stream.ways :] if finals.size > stream.ways else finals
        return lines[kept].astype(np.int64)
    s = stream.sets[finals]
    order = np.argsort(s, kind="stable")  # keeps ascending position in set
    sf = s[order]
    pf = finals[order]
    block_end = np.searchsorted(sf, sf, side="right")
    rank_from_end = block_end - 1 - np.arange(sf.size)
    return lines[pf[rank_from_end < stream.ways]].astype(np.int64)


def _carry_from_cache(cache: LRUCache) -> np.ndarray:
    """Carry state of a reference cache (its sets are MRU-first lists)."""
    out: list[int] = []
    for bucket in cache._sets:
        out.extend(reversed(bucket))
    return np.asarray(out, dtype=np.int64)


class StreamingHierarchy:
    """Windowed hierarchy simulation with carry-over state.

    Feed bounded windows via :meth:`consume`; :attr:`stats` accumulates
    per-level counts that are bit-identical to running the in-memory
    engines over the concatenated stream. LRU windows run the batched
    engine with prefix-injected stack distances; non-LRU policies,
    next-line prefetch (both outside the stack-distance model) and
    machines where the cascade does not pay
    (:func:`~repro.memsim.batched.cascade_pays`) route through a
    persistent :class:`~repro.memsim.cache.CacheHierarchy`, which is
    trivially streaming-exact.
    """

    def __init__(
        self,
        machine: MachineSpec,
        *,
        next_line_prefetch: bool = False,
        policy: str = "lru",
    ) -> None:
        self.machine = machine
        self._batched = (
            policy == "lru" and not next_line_prefetch and cascade_pays(machine)
        )
        self.windows = 0
        self.events = 0
        self.peak_window_events = 0
        if self._batched:
            self._carry = [np.empty(0, dtype=np.int64) for _ in range(3)]
            self.stats = HierarchyStats(
                LevelStats("L1"), LevelStats("L2"), LevelStats("L3")
            )
        else:
            self._hierarchy = CacheHierarchy(
                machine, next_line_prefetch=next_line_prefetch, policy=policy
            )
            self.stats = self._hierarchy.stats

    @property
    def carry_events(self) -> int:
        """Total carried line-id entries (the batched carry-state size)."""
        if not self._batched:
            return 0
        return int(sum(c.size for c in self._carry))

    def consume(self, lines: np.ndarray) -> None:
        """Replay one window of line ids on top of the carried state."""
        w = np.ascontiguousarray(np.asarray(lines, dtype=np.int64))
        if w.size == 0:
            return
        self.windows += 1
        self.events += int(w.size)
        self.peak_window_events = max(self.peak_window_events, int(w.size))
        if self._batched:
            self._consume_batched(w)
        else:
            self._hierarchy.run(w)
            self.stats = self._hierarchy.stats

    def _consume_batched(self, w: np.ndarray) -> None:
        m = self.machine
        n = w.size
        carry1, carry2, carry3 = self._carry
        p1, p2, p3 = carry1.size, carry2.size, carry3.size

        s1_lines = _narrow(np.concatenate([carry1, w]))
        l1 = _LevelStream(s1_lines, m.l1.num_sets, m.l1.associativity)
        hit1f = l1.solve_hits()
        hit1 = hit1f[p1:]
        t2 = np.nonzero(~hit1)[0]  # window-relative times of L2 accesses

        s2_lines = _narrow(np.concatenate([carry2, w[t2]]))
        l2 = _LevelStream(s2_lines, m.l2.num_sets, m.l2.associativity)
        hit2f = l2.solve_hits()
        hit2 = hit2f[p2:]
        t3 = t2[~hit2]

        s3_lines = _narrow(np.concatenate([carry3, w[t3]]))
        l3 = _LevelStream(s3_lines, m.l3.num_sets, m.l3.associativity)
        hit3f = l3.solve_hits()
        hit3 = hit3f[p3:]

        # Position → window-relative time maps; prefix events sit at
        # negative times, which never surface (see module docstring).
        t1map = np.concatenate(
            [np.arange(-p1, 0, dtype=np.int64), np.arange(n, dtype=np.int64)]
        )
        t2map = np.concatenate([np.arange(-p2, 0, dtype=np.int64), t2])
        t3map = np.concatenate([np.arange(-p3, 0, dtype=np.int64), t3])

        div_time = n
        ev2 = _evicted_copies(l2, hit2f)
        if ev2.size:
            div2 = _eviction_divergences(
                l2, ev2, t2map, s2_lines[ev2], [(l1, t1map, False)]
            )
            if div2.size:
                div_time = int(div2.min())
        ev3 = _evicted_copies(l3, hit3f)
        if ev3.size:
            div3 = _eviction_divergences(
                l3,
                ev3,
                t3map,
                s3_lines[ev3],
                [(l1, t1map, False), (l2, t2map, False)],
            )
            if div3.size:
                div_time = min(div_time, int(div3.min()))

        if div_time >= n:
            delta = HierarchyStats(
                LevelStats("L1", n, int(hit1.sum())),
                LevelStats("L2", int(t2.size), int(hit2.sum())),
                LevelStats("L3", int(t3.size), int(hit3.sum())),
            )
            self.stats = self.stats.merged_with(delta)
            self._carry = [
                _level_end_state(l1),
                _level_end_state(l2),
                _level_end_state(l3),
            ]
            return

        # Consequential back-invalidation inside the window: commit the
        # exact prefix, seed a reference hierarchy with the state at tau
        # (pure LRU on the prefixed streams — exact up to that point),
        # replay the tail, and carry the reference's state forward.
        tau = div_time
        n2 = int(np.searchsorted(t2, tau))
        n3 = int(np.searchsorted(t3, tau))
        delta = HierarchyStats(
            LevelStats("L1", tau, int(hit1[:tau].sum())),
            LevelStats("L2", n2, int(hit2[:n2].sum())),
            LevelStats("L3", n3, int(hit3[:n3].sum())),
        )
        hierarchy = CacheHierarchy(m)
        _seed_state(hierarchy.l1, s1_lines, m.l1.num_sets, p1 + tau)
        _seed_state(hierarchy.l2, s2_lines, m.l2.num_sets, p2 + n2)
        _seed_state(hierarchy.l3, s3_lines, m.l3.num_sets, p3 + n3)
        hierarchy.run(w[tau:])
        self.stats = self.stats.merged_with(delta).merged_with(
            hierarchy.stats
        )
        self._carry = [
            _carry_from_cache(hierarchy.l1),
            _carry_from_cache(hierarchy.l2),
            _carry_from_cache(hierarchy.l3),
        ]


def simulate_trace_streaming(
    lines: np.ndarray,
    machine: MachineSpec,
    *,
    window_events: int | None = None,
    next_line_prefetch: bool = False,
    policy: str = "lru",
) -> HierarchyStats:
    """Simulate a line stream in bounded windows; counts are bit-identical
    to the in-memory engines over the same stream.

    The window defaults to :func:`auto_window_events`; a cascade stream
    that fits in one such window runs whole through
    :func:`~repro.memsim.batched.batched_levels`, which skips the carry
    state only a next window would read.
    """
    sim = StreamingHierarchy(
        machine,
        next_line_prefetch=next_line_prefetch,
        policy=policy,
    )
    if window_events is None:
        window_events = auto_window_events(machine)
        if sim._batched and np.asarray(lines).size <= window_events:
            return batched_levels(lines, machine)[0]
    for window in iter_line_windows(lines, window_events):
        sim.consume(window)
    obs.add("memsim.stream.windows", sim.windows)
    obs.gauge_set("memsim.stream.peak_window_events", sim.peak_window_events)
    obs.gauge_set("memsim.stream.carry_events", sim.carry_events)
    return sim.stats


class StreamingReuse:
    """Exact reuse distances computed window by window.

    :meth:`consume` returns the distances of the window's accesses —
    identical to the corresponding slice of
    ``reuse_distances(concatenated_stream)`` — while retaining only one
    ``(line, last seen position)`` pair per distinct line (the carry
    state; memory is bounded by the footprint's distinct lines, not the
    trace length). Aggregates for the exact profile accumulate as an
    integer distance histogram on the side.
    """

    def __init__(self) -> None:
        self._lines = np.empty(0, dtype=np.int64)  # ordered by last pos
        self._base = 0  # global events consumed
        self.num_accesses = 0
        self.num_cold = 0
        self._hist = np.zeros(0, dtype=np.int64)  # counts per distance

    @property
    def carry_events(self) -> int:
        """Distinct lines carried (the reuse carry-state size)."""
        return int(self._lines.size)

    def consume(self, lines: np.ndarray) -> np.ndarray:
        """Distances of this window's accesses in the global stream."""
        w = np.asarray(lines)
        n = w.size
        if n == 0:
            return np.full(0, COLD, dtype=np.int64)
        k = self._lines.size
        # One synthetic occurrence per carried line, ordered by its last
        # global position, reproduces every global distinct-line count.
        synth = np.concatenate([self._lines, np.asarray(w, dtype=np.int64)])
        distances = reuse_distances(synth)[k:]

        # Carry update: last window position per distinct window line,
        # appended after the surviving carries in ascending-position
        # order (all window positions exceed every carried position).
        order = np.argsort(w, kind="stable")
        sw = np.asarray(w, dtype=np.int64)[order]
        last = np.empty(sw.size, dtype=bool)
        last[-1:] = True
        last[:-1] = sw[1:] != sw[:-1]
        win_lines = sw[last]
        win_pos = np.sort(order[last])
        kept = self._lines[~np.isin(self._lines, win_lines)]
        self._lines = np.concatenate(
            [kept, np.asarray(w, dtype=np.int64)[win_pos]]
        )
        self._base += n

        self.num_accesses += n
        cold = distances == COLD
        self.num_cold += int(cold.sum())
        warm = distances[~cold]
        if warm.size:
            hi = int(warm.max()) + 1
            if hi > self._hist.size:
                grown = np.zeros(hi, dtype=np.int64)
                grown[: self._hist.size] = self._hist
                self._hist = grown
            self._hist += np.bincount(warm, minlength=self._hist.size)
        return distances

    def profile(self) -> "ReuseProfile":
        """Exact :class:`~repro.memsim.reuse.ReuseProfile` from the
        accumulated histogram (quantiles per the paper's definition)."""
        from .reuse import ReuseProfile

        n = self.num_accesses
        warm_n = n - self.num_cold
        if warm_n == 0:
            return ReuseProfile(n, n, float("nan"), 0, 0, 0, 0)
        cum = np.cumsum(self._hist)
        total = int(cum[-1])

        def q(x: float) -> int:
            kth = max(0, min(total - 1, int(np.ceil(x * total)) - 1))
            return int(np.searchsorted(cum, kth + 1))

        mean = float(
            np.dot(self._hist, np.arange(self._hist.size, dtype=np.float64))
            / warm_n
        )
        return ReuseProfile(
            num_accesses=n,
            num_cold=self.num_cold,
            mean=mean,
            q50=q(0.50),
            q75=q(0.75),
            q90=q(0.90),
            q100=int(self._hist.size - 1),
        )

    def profile_row(self) -> dict:
        """:meth:`profile` flattened to the canonical row dict."""
        return self.profile().as_row()


def streaming_reuse_distances(
    windows: Iterable[np.ndarray],
) -> Iterator[np.ndarray]:
    """Yield per-window exact reuse distances for a window stream."""
    reuse = StreamingReuse()
    for window in windows:
        yield reuse.consume(window)


class StreamingBucketedSeries:
    """Windowed, bit-exact counterpart of
    :func:`~repro.memsim.reuse.bucketed_series`.

    The total stream length must be known up front (bucket edges depend
    on it). Distances are integers, so the per-bucket float64 sums are
    exactly representable and merging windows in any order reproduces
    the in-memory result bit for bit.
    """

    def __init__(self, total_events: int, num_buckets: int = 100) -> None:
        if total_events < 0:
            raise ValueError("total_events must be >= 0")
        self.total_events = int(total_events)
        self.num_buckets = (
            min(num_buckets, total_events) if total_events else 0
        )
        if self.num_buckets:
            self._edges = np.linspace(
                0, total_events, self.num_buckets + 1
            ).astype(np.int64)
        else:
            self._edges = np.zeros(1, dtype=np.int64)
        self._sums = np.zeros(self.num_buckets, dtype=np.float64)
        self._cnts = np.zeros(self.num_buckets, dtype=np.int64)
        self._cursor = 0

    def consume(self, distances: np.ndarray) -> None:
        """Fold in the next window's distances (in stream order)."""
        d = np.asarray(distances, dtype=np.float64)
        n = d.size
        if self._cursor + n > self.total_events:
            raise ValueError("more distances than total_events")
        if n == 0:
            return
        pos = self._cursor + np.arange(n, dtype=np.int64)
        bucket = np.searchsorted(self._edges, pos, side="right") - 1
        warm = d != COLD
        self._sums += np.bincount(
            bucket[warm],
            weights=d[warm],
            minlength=self.num_buckets,
        )
        self._cnts += np.bincount(bucket[warm], minlength=self.num_buckets)
        self._cursor += n

    def finalize(self) -> tuple[np.ndarray, np.ndarray]:
        """``(bucket_centers, means)`` — identical to the in-memory call."""
        if self._cursor != self.total_events:
            raise ValueError(
                f"consumed {self._cursor} of {self.total_events} events"
            )
        if self.total_events == 0:
            return np.empty(0), np.empty(0)
        centers = 0.5 * (self._edges[:-1] + self._edges[1:])
        with np.errstate(invalid="ignore", divide="ignore"):
            means = np.where(
                self._cnts > 0, self._sums / self._cnts, np.nan
            )
        return centers, means


# Re-exported for callers composing window pipelines by hand.
_ = bucketed_series
