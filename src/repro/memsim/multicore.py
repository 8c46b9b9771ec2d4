"""Multicore cache simulation: private L1/L2, shared per-socket L3.

Models the parallel runs of Section 5.3. The parallel smoother
statically partitions the interior vertices into ``p`` contiguous blocks
(the paper's OpenMP static schedule); each core's accesses are recorded
separately and fed to a private L1/L2 pair, while all cores of a socket
share one L3. Cores of one socket run "concurrently": their streams are
interleaved round-robin in small quanta, so they contend for the shared
L3 the way simultaneous threads do.

Thread placement follows an affinity policy:

``compact``
    cores fill socket 0 first (the paper's ``KMP_AFFINITY=compact``);
    aggregate L3 grows only at 8-core boundaries.
``scatter``
    cores round-robin across sockets; aggregate L3 grows with the first
    four threads — the paper invokes exactly this "scattered"
    distribution as the likely cause of its super-linear 1->4 core
    speedups.

The modeled parallel execution time is the critical path: the largest
per-core modeled time (Equation 2 plus base cost), since the smoothing
iterations are bulk-synchronous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..config import DEFAULT_RUN_CONFIG, RunConfig
from .cache import (
    CacheHierarchy,
    HierarchyStats,
    LevelStats,
    LRUCache,
    observe_hierarchy_stats,
)
from .machine import MachineSpec, resolve_machine
from .timing import CostBreakdown, modeled_time

__all__ = [
    "MEM_ENGINES",
    "affinity_sockets",
    "CoreResult",
    "MulticoreResult",
    "simulate_multicore",
    "simulate_socket",
]

#: Multicore replay engines: simulate sockets in this process one after
#: the other, or distribute them to worker processes (identical counts;
#: see :mod:`repro.memsim.sharded`).
MEM_ENGINES = ("sequential", "sharded")


def affinity_sockets(
    num_cores: int, machine: MachineSpec, policy: str = "compact"
) -> np.ndarray:
    """Socket id for each of ``num_cores`` threads under a placement policy."""
    if num_cores < 1 or num_cores > machine.num_cores:
        raise ValueError(
            f"num_cores must be in 1..{machine.num_cores}, got {num_cores}"
        )
    cores = np.arange(num_cores)
    if policy == "compact":
        return cores // machine.cores_per_socket
    if policy == "scatter":
        return cores % machine.num_sockets
    raise ValueError(f"unknown affinity policy {policy!r}")


@dataclass
class CoreResult:
    """Simulation outcome of one core."""

    core: int
    socket: int
    stats: HierarchyStats
    cost: CostBreakdown


@dataclass
class MulticoreResult:
    """Aggregate outcome of a ``p``-core simulation."""

    machine: MachineSpec
    affinity: str
    per_core: list[CoreResult]

    @property
    def num_cores(self) -> int:
        return len(self.per_core)

    @property
    def combined(self) -> HierarchyStats:
        total = HierarchyStats(LevelStats("L1"), LevelStats("L2"), LevelStats("L3"))
        for cr in self.per_core:
            total = total.merged_with(cr.stats)
        return total

    @property
    def modeled_seconds(self) -> float:
        """Critical-path time: the slowest core bounds the iteration."""
        return max(cr.cost.seconds(self.machine) for cr in self.per_core)

    @property
    def total_accesses(self) -> int:
        return sum(cr.cost.num_accesses for cr in self.per_core)

    def access_counts(self) -> dict[str, int]:
        """L2/L3/memory access counts (Figure 11's three panels)."""
        c = self.combined
        return {
            "L2": c.l2.accesses,
            "L3": c.l3.accesses,
            "memory": c.l3.misses,
        }


def simulate_socket(
    socket_id: int,
    member_cores: list[int],
    streams: list[np.ndarray],
    machine: MachineSpec,
    *,
    quantum: int = 64,
    stream_window_events: int | None = None,
) -> list[CoreResult]:
    """Simulate one socket: its cores' streams against one shared L3.

    A socket is a closed system — cores of different sockets share no
    cache state — so this is the exact unit the sharded replay
    (:mod:`repro.memsim.sharded`) distributes to worker processes. Both
    the sequential and the sharded engine run this very function, which
    is what makes their per-level counts identical by construction.

    A single-core socket degenerates to a private hierarchy and replays
    exactly like :func:`~repro.memsim.cache.simulate_trace`; multi-core
    sockets interleave through the shared L3 in a per-access
    :class:`~repro.memsim.cache.CacheHierarchy` replay.

    ``stream_window_events`` bounds peak memory: single-core sockets
    replay through :class:`repro.memsim.streaming.StreamingHierarchy`
    window by window, and multi-core interleaves materialize only one
    quantum of each stream at a time — so memory-mapped streams are
    never pulled in whole. Counts are bit-identical either way.
    """
    with obs.span(
        "memsim.socket",
        socket=int(socket_id),
        cores=len(member_cores),
    ) as sp:
        sp.add_event(int(sum(np.asarray(s).size for s in streams)))
        results = _simulate_socket_impl(
            socket_id,
            member_cores,
            streams,
            machine,
            quantum,
            stream_window_events,
        )
        for cr in results:
            observe_hierarchy_stats(cr.stats)
        return results


def _simulate_socket_impl(
    socket_id: int,
    member_cores: list[int],
    streams: list[np.ndarray],
    machine: MachineSpec,
    quantum: int,
    stream_window_events: int | None = None,
) -> list[CoreResult]:
    if len(member_cores) == 1:
        # One core: no shared-L3 contention, the socket is exactly a
        # private three-level hierarchy and replays like a serial trace.
        from .streaming import simulate_trace_streaming

        stats = simulate_trace_streaming(
            streams[0], machine, window_events=stream_window_events
        )
        return [
            CoreResult(
                core=int(member_cores[0]),
                socket=int(socket_id),
                stats=stats,
                cost=modeled_time(stats, machine),
            )
        ]
    shared_l3 = LRUCache(machine.l3)
    hierarchies = [CacheHierarchy(machine, shared_l3=shared_l3) for _ in member_cores]
    if stream_window_events is None:
        line_lists = [
            np.asarray(stream, dtype=np.int64).tolist() for stream in streams
        ]
        sizes = [len(s) for s in line_lists]
    else:
        # Streaming mode: keep the (possibly memory-mapped) arrays and
        # materialize one quantum at a time in the interleave loop.
        line_lists = [np.asarray(stream, dtype=np.int64) for stream in streams]
        sizes = [int(s.size) for s in line_lists]
    cursors = [0] * len(member_cores)
    live = list(range(len(member_cores)))
    while live:
        still = []
        for k in live:
            stream = line_lists[k]
            lo = cursors[k]
            hi = min(lo + quantum, sizes[k])
            access = hierarchies[k].access
            chunk = (
                stream[lo:hi]
                if stream_window_events is None
                else stream[lo:hi].tolist()
            )
            for line in chunk:
                access(line)
            cursors[k] = hi
            if hi < sizes[k]:
                still.append(k)
        live = still
    return [
        CoreResult(
            core=int(core),
            socket=int(socket_id),
            stats=h.stats,
            cost=modeled_time(h.stats, machine),
        )
        for core, h in zip(member_cores, hierarchies)
    ]


def simulate_multicore(
    lines_per_core: list[np.ndarray],
    machine: MachineSpec,
    *,
    config: RunConfig | None = None,
    affinity: str = "compact",
    quantum: int = 64,
    max_workers: int | None = None,
) -> MulticoreResult:
    """Simulate per-core line streams on the machine's cache topology.

    Parameters
    ----------
    lines_per_core:
        One line-id stream per thread (from the partitioned smoother).
    config:
        A :class:`repro.config.RunConfig`; ``config.mem_engine`` selects
        the replay engine (``"sequential"`` simulates sockets one after
        the other in this process, ``"sharded"`` distributes them to
        worker processes — per-level counts are identical either way).
    affinity:
        ``"compact"`` or ``"scatter"`` (see module docstring).
    quantum:
        Number of consecutive accesses one core executes before the
        round-robin hands the socket to the next core; models the
        fine-grained interleaving of simultaneously running threads.
    max_workers:
        Worker-process cap for the sharded engine (ignored otherwise).
    """
    if config is None:
        config = DEFAULT_RUN_CONFIG
    machine = resolve_machine(machine)
    mem_engine = config.mem_engine
    with obs.span(
        "memsim.multicore",
        mem_engine=mem_engine,
        affinity=affinity,
        cores=len(lines_per_core),
    ):
        if mem_engine == "sharded":
            from .sharded import simulate_multicore_sharded

            return simulate_multicore_sharded(
                lines_per_core,
                machine,
                affinity=affinity,
                quantum=quantum,
                max_workers=max_workers,
                stream_window_events=config.stream_window_events,
            )
        if mem_engine != "sequential":
            raise ValueError(
                f"unknown replay engine {mem_engine!r}; "
                f"choose from {MEM_ENGINES}"
            )
        p = len(lines_per_core)
        sockets = affinity_sockets(p, machine, affinity)
        results: list[CoreResult | None] = [None] * p
        for socket_id in np.unique(sockets):
            member_cores = [int(c) for c in np.flatnonzero(sockets == socket_id)]
            for cr in simulate_socket(
                int(socket_id),
                member_cores,
                [lines_per_core[c] for c in member_cores],
                machine,
                quantum=quantum,
                stream_window_events=config.stream_window_events,
            ):
                results[cr.core] = cr
        return MulticoreResult(
            machine=machine,
            affinity=affinity,
            per_core=[r for r in results if r is not None],
        )
