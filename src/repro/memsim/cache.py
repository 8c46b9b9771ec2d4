"""Set-associative LRU cache simulation (single level and inclusive stack).

:class:`LRUCache` simulates one set-associative cache with true LRU
replacement per set. :class:`CacheHierarchy` stacks three of them into
the inclusive L1/L2/L3 hierarchy of Westmere-EX: a miss at a level fills
every level, and an eviction from an outer level back-invalidates the
inner levels (inclusive semantics).

The simulators count, per level, the accesses that reached the level and
the misses among them, which are exactly the PAPI quantities the paper's
Figure 9 and Table 3 report (``miss rate(LX) = misses(LX) /
accesses(LX)`` with ``accesses(L2) = misses(L1)`` etc.).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..config import DEFAULT_RUN_CONFIG, RunConfig
from .machine import CacheSpec, MachineSpec, resolve_machine

__all__ = [
    "LRUCache",
    "LevelStats",
    "HierarchyStats",
    "CacheHierarchy",
    "observe_hierarchy_stats",
    "simulate_trace",
]


def observe_hierarchy_stats(stats: "HierarchyStats") -> None:
    """Add a simulation's per-level access/hit/miss counts to the active
    metrics registry (no-op when tracing is disabled)."""
    if not obs.is_enabled():
        return
    for level in stats.levels():
        prefix = f"memsim.{level.name.lower()}"
        obs.add(f"{prefix}.accesses", level.accesses)
        obs.add(f"{prefix}.hits", level.hits)
        obs.add(f"{prefix}.misses", level.misses)
    obs.add("memsim.memory.accesses", stats.memory_accesses)


@dataclass
class LevelStats:
    """Access/hit/miss counters of one cache level."""

    name: str
    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def as_row(self) -> dict:
        return {
            "level": self.name,
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "miss_rate": self.miss_rate,
        }


class LRUCache:
    """One set-associative cache over line ids.

    Lines map to sets by ``line % num_sets``; each set keeps its ways in
    most-recently-used-first order (Python lists: ways are small, so
    linear membership tests beat fancier structures at this scale).

    ``policy`` selects the replacement discipline:

    ``"lru"`` (default)
        True least-recently-used — the paper's Section 3.1 model.
    ``"fifo"``
        Insertion order only; hits do not refresh recency.
    ``"random"``
        Uniform random victim (deterministic via an internal LCG so
        simulations stay reproducible).

    The non-LRU policies exist for the replacement-policy ablation
    bench: the paper's analysis assumes LRU, and the ablation checks
    that the ordering *ranking* it reports is robust to the policy.
    """

    def __init__(self, spec: CacheSpec, *, policy: str = "lru"):
        if policy not in ("lru", "fifo", "random"):
            raise ValueError(f"unknown replacement policy {policy!r}")
        self.spec = spec
        self.policy = policy
        self.num_sets = spec.num_sets
        self.ways = spec.associativity
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self._lcg = 0x9E3779B9  # deterministic victim picker for "random"

    def reset(self) -> None:
        """Empty every set (cold caches)."""
        for s in self._sets:
            s.clear()

    def _next_random(self, modulus: int) -> int:
        self._lcg = (self._lcg * 1103515245 + 12345) & 0x7FFFFFFF
        return self._lcg % modulus

    def access(self, line: int) -> tuple[bool, int]:
        """Touch ``line``; returns ``(hit, evicted_line)``.

        ``evicted_line`` is -1 when nothing was evicted.
        """
        s = self._sets[line % self.num_sets]
        if self.policy == "lru":
            try:
                s.remove(line)
                s.insert(0, line)
                return True, -1
            except ValueError:
                s.insert(0, line)
                if len(s) > self.ways:
                    return False, s.pop()
                return False, -1
        # FIFO / random: hits leave the queue untouched.
        if line in s:
            return True, -1
        s.insert(0, line)
        if len(s) > self.ways:
            if self.policy == "fifo":
                return False, s.pop()
            victim = 1 + self._next_random(len(s) - 1)  # never the newcomer
            return False, s.pop(victim)
        return False, -1

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if present (inclusive back-invalidation)."""
        s = self._sets[line % self.num_sets]
        try:
            s.remove(line)
            return True
        except ValueError:
            return False

    def contains(self, line: int) -> bool:
        """True when ``line`` is currently resident."""
        return line in self._sets[line % self.num_sets]

    def resident_lines(self) -> set[int]:
        """The set of all currently resident line ids (for tests)."""
        out: set[int] = set()
        for s in self._sets:
            out.update(s)
        return out


@dataclass
class HierarchyStats:
    """Per-level statistics of a hierarchy simulation."""

    l1: LevelStats
    l2: LevelStats
    l3: LevelStats

    @property
    def memory_accesses(self) -> int:
        return self.l3.misses

    def levels(self) -> tuple[LevelStats, LevelStats, LevelStats]:
        return (self.l1, self.l2, self.l3)

    def merged_with(self, other: "HierarchyStats") -> "HierarchyStats":
        def add(a: LevelStats, b: LevelStats) -> LevelStats:
            return LevelStats(a.name, a.accesses + b.accesses, a.hits + b.hits)

        return HierarchyStats(
            add(self.l1, other.l1), add(self.l2, other.l2), add(self.l3, other.l3)
        )


class CacheHierarchy:
    """Inclusive three-level hierarchy fed with a line-id stream.

    ``shared_l3`` lets several hierarchies (cores) share one L3 cache
    object; back-invalidation is then delivered only to the core that
    performed the evicting access, which under-approximates invalidation
    traffic slightly but keeps the single-pass simulation simple (noted
    in DESIGN.md; irrelevant for miss-count comparisons between
    orderings).
    """

    def __init__(
        self,
        machine: MachineSpec,
        shared_l3: LRUCache | None = None,
        *,
        next_line_prefetch: bool = False,
        policy: str = "lru",
    ):
        self.machine = machine
        self.l1 = LRUCache(machine.l1, policy=policy)
        self.l2 = LRUCache(machine.l2, policy=policy)
        self.l3 = (
            shared_l3
            if shared_l3 is not None
            else LRUCache(machine.l3, policy=policy)
        )
        self.next_line_prefetch = next_line_prefetch
        self.prefetches_issued = 0
        self.stats = HierarchyStats(
            LevelStats("L1"), LevelStats("L2"), LevelStats("L3")
        )
        # Per-level counter objects bound once; access() is the hot loop
        # and must not chase stats.lX on every event.
        self._s1 = self.stats.l1
        self._s2 = self.stats.l2
        self._s3 = self.stats.l3

    def _fill(self, line: int) -> None:
        """Install a line in every level without touching demand stats
        (used by the prefetcher)."""
        if self.l1.contains(line):
            return
        _, ev = self.l1.access(line)
        _, ev2 = self.l2.access(line)
        if ev2 >= 0:
            self.l1.invalidate(ev2)
        _, ev3 = self.l3.access(line)
        if ev3 >= 0:
            self.l2.invalidate(ev3)
            self.l1.invalidate(ev3)

    def access(self, line: int) -> int:
        """Touch a line; returns the level that served it (1, 2, 3, 4=memory)."""
        s1 = self._s1
        s1.accesses += 1
        hit, ev = self.l1.access(line)
        if hit:
            s1.hits += 1
            return 1
        if self.next_line_prefetch:
            # Sequential next-line prefetch, triggered by demand misses
            # (Section 3.1 notes real fetching is line-granular with
            # prefetching; the ablation bench measures its effect).
            self.prefetches_issued += 1
            self._fill(line + 1)
        # L1 filled `line` already; handle its eviction silently (L1
        # victims stay in L2/L3 under inclusion).
        s2 = self._s2
        s2.accesses += 1
        hit, ev2 = self.l2.access(line)
        if hit:
            s2.hits += 1
            return 2
        if ev2 >= 0:
            # Inclusive: a line leaving L2 must leave L1.
            self.l1.invalidate(ev2)
        s3 = self._s3
        s3.accesses += 1
        hit, ev3 = self.l3.access(line)
        if hit:
            s3.hits += 1
            return 3
        if ev3 >= 0:
            self.l2.invalidate(ev3)
            self.l1.invalidate(ev3)
        return 4

    # run() processes the stream in fixed-size chunks: chunk.tolist()
    # yields plain Python ints (np.int64 scalars are several times
    # slower in the set lists) without materializing the whole stream.
    _RUN_CHUNK = 1 << 16

    def run(self, lines: np.ndarray) -> "HierarchyStats":
        """Feed a whole stream; returns the (cumulative) stats."""
        arr = np.asarray(lines, dtype=np.int64)
        if self.next_line_prefetch:
            # Prefetch path: _fill mutates every level mid-event, so use
            # the straightforward per-event method.
            access = self.access
            for start in range(0, arr.size, self._RUN_CHUNK):
                for line in arr[start : start + self._RUN_CHUNK].tolist():
                    access(line)
            return self.stats
        # Demand-only path: same transitions as access(), with the level
        # counters hoisted into locals and flushed once at the end.
        l1_access = self.l1.access
        l2_access = self.l2.access
        l3_access = self.l3.access
        l1_inval = self.l1.invalidate
        l2_inval = self.l2.invalidate
        n1 = h1 = n2 = h2 = n3 = h3 = 0
        for start in range(0, arr.size, self._RUN_CHUNK):
            for line in arr[start : start + self._RUN_CHUNK].tolist():
                n1 += 1
                hit, _ev = l1_access(line)
                if hit:
                    h1 += 1
                    continue
                n2 += 1
                hit, ev2 = l2_access(line)
                if hit:
                    h2 += 1
                    continue
                if ev2 >= 0:
                    l1_inval(ev2)
                n3 += 1
                hit, ev3 = l3_access(line)
                if hit:
                    h3 += 1
                    continue
                if ev3 >= 0:
                    l2_inval(ev3)
                    l1_inval(ev3)
        self._s1.accesses += n1
        self._s1.hits += h1
        self._s2.accesses += n2
        self._s2.hits += h2
        self._s3.accesses += n3
        self._s3.hits += h3
        return self.stats


def simulate_trace(
    lines: np.ndarray,
    machine: MachineSpec,
    *,
    config: RunConfig | None = None,
    next_line_prefetch: bool = False,
    policy: str = "lru",
) -> HierarchyStats:
    """One-core simulation of a line-id stream on ``machine``.

    Runs the vectorized stack-distance engine in
    :mod:`repro.memsim.batched`, whose per-level counts are bit-identical
    to a :class:`CacheHierarchy` replay. Non-LRU policies, next-line
    prefetch and machines where the cascade does not pay
    (:func:`~repro.memsim.batched.cascade_pays`) take that replay
    instead, and the cascade falls back to it internally where it cannot
    stay exact.

    The stream replays in windows with carried state
    (:mod:`repro.memsim.streaming`), sized by
    :func:`~repro.memsim.streaming.auto_window_events` or set outright
    by ``config.stream_window_events`` to bound peak memory. Counts are
    bit-identical either way.
    """
    if config is None:
        config = DEFAULT_RUN_CONFIG
    machine = resolve_machine(machine)
    from .streaming import simulate_trace_streaming

    with obs.span("memsim.simulate_trace", machine=machine.name) as sp:
        sp.add_event(int(np.asarray(lines).size))
        stats = simulate_trace_streaming(
            lines,
            machine,
            window_events=config.stream_window_events,
            next_line_prefetch=next_line_prefetch,
            policy=policy,
        )
        observe_hierarchy_stats(stats)
        return stats
