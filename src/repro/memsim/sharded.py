"""Sharded multicore replay: socket shards simulated in worker processes.

The sequential multicore engine replays every socket of the machine one
after the other in a single interpreter. But the simulated topology is
embarrassingly parallel across sockets: private L1/L2 belong to one
core, the L3 is shared only *within* a socket, and the round-robin
interleaving never crosses sockets — a socket is a closed system. The
sharded engine therefore splits the per-core line streams at core
boundaries, groups them by the socket their core is placed on (under the
affinity policy), and hands each socket group to a worker process. Under
``scatter`` affinity with up to ``num_sockets`` threads — the default of
the paper's scaling experiments — every shard is exactly one core.

Each worker runs :func:`repro.memsim.multicore.simulate_socket`, the
same function the sequential engine runs, so the merged per-level
hit/miss counts are identical by construction; the differential suite
(``tests/memsim/test_sharded.py``) additionally pins the equality
empirically. Sharding *within* a socket would require speculating on the
shared-L3 state (misses of one core back-invalidate lines and change the
other cores' hit counts), which could not keep the counts exact, so the
socket is deliberately the smallest shard.

Statistics merging: per-core L1/L2 stats come back untouched (they are
private), and the shared-L3 statistics of a socket are the sum of its
cores' L3 counters — :class:`repro.memsim.cache.MulticoreResult.combined`
aggregates them exactly as in the sequential engine.

Observability: when the parent process is tracing
(:func:`repro.obs.is_enabled`), each worker runs its shard under a fresh
local tracer and ships the exported span dicts plus its metrics snapshot
back over the same result channel the shard payloads use; the parent
adopts the spans as children of its ``memsim.sharded`` span and merges
the metrics into its registry, so a sharded replay produces the same
span tree and counters as a sequential one (plus per-process parents).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .. import obs
from .machine import MachineSpec
from .multicore import (
    CoreResult,
    MulticoreResult,
    affinity_sockets,
    simulate_socket,
)

__all__ = ["simulate_multicore_sharded", "socket_shards"]


def socket_shards(
    lines_per_core: list[np.ndarray],
    machine: MachineSpec,
    affinity: str = "compact",
) -> list[tuple[int, list[int], list[np.ndarray]]]:
    """Split per-core streams into independent socket shards.

    Returns one ``(socket_id, member_cores, streams)`` tuple per
    occupied socket; concatenating the members in socket order restores
    the original core list.
    """
    sockets = affinity_sockets(len(lines_per_core), machine, affinity)
    shards = []
    for socket_id in np.unique(sockets):
        members = [int(c) for c in np.flatnonzero(sockets == socket_id)]
        shards.append(
            (int(socket_id), members, [lines_per_core[c] for c in members])
        )
    return shards


def _run_shard(args) -> tuple[list[CoreResult], list[dict], dict]:
    """Simulate one shard; returns (results, span dicts, metrics snapshot).

    ``obs_enabled`` in the payload mirrors the parent's tracer state at
    dispatch time: the worker then captures its own spans/metrics and
    returns them for the parent to merge (empty otherwise).
    """
    (
        socket_id,
        member_cores,
        streams,
        machine,
        quantum,
        stream_window_events,
        obs_on,
    ) = args
    if not obs_on:
        results = simulate_socket(
            socket_id,
            member_cores,
            streams,
            machine,
            quantum=quantum,
            stream_window_events=stream_window_events,
        )
        return results, [], {}
    with obs.capture() as tracer:
        results = simulate_socket(
            socket_id,
            member_cores,
            streams,
            machine,
            quantum=quantum,
            stream_window_events=stream_window_events,
        )
    return results, tracer.export(), tracer.metrics.snapshot()


def simulate_multicore_sharded(
    lines_per_core: list[np.ndarray],
    machine: MachineSpec,
    *,
    affinity: str = "compact",
    quantum: int = 64,
    max_workers: int | None = None,
    stream_window_events: int | None = None,
) -> MulticoreResult:
    """Replay per-core line streams with one worker process per socket.

    Exactly equivalent to the sequential ``simulate_multicore`` engine
    (``config=RunConfig(mem_engine="sequential")``)
    — same per-level hit/miss counts, same per-core cost breakdowns —
    but wall-clock scales with the number of occupied sockets.
    ``max_workers`` caps the process pool (default: one worker per
    shard, bounded by the host's CPU count); a single shard short-circuits
    to an in-process call.
    """
    shards = socket_shards(lines_per_core, machine, affinity)
    obs_on = obs.is_enabled()
    payloads = [
        (
            socket_id,
            members,
            streams,
            machine,
            quantum,
            stream_window_events,
            obs_on,
        )
        for socket_id, members, streams in shards
    ]
    if max_workers is None:
        max_workers = min(len(shards), os.cpu_count() or 1)
    with obs.span(
        "memsim.sharded", shards=len(shards), max_workers=max_workers
    ):
        if len(shards) <= 1 or max_workers <= 1:
            shard_results = [_run_shard(p) for p in payloads]
        else:
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                shard_results = list(pool.map(_run_shard, payloads))
        tracer = obs.get_tracer()
        results: list[CoreResult | None] = [None] * len(lines_per_core)
        for core_results, span_dicts, metrics_snapshot in shard_results:
            for cr in core_results:
                results[cr.core] = cr
            if obs_on:
                tracer.adopt(span_dicts)
                tracer.metrics.merge(metrics_snapshot)
        return MulticoreResult(
            machine=machine,
            affinity=affinity,
            per_core=[r for r in results if r is not None],
        )
