"""Differential suite: sharded multicore replay vs the sequential engine.

The sharded engine must reproduce the sequential engine *exactly* —
same per-core, per-level access/hit/miss counters and identical cost
breakdowns — across affinities, core counts and stream shapes. Both
engines run :func:`repro.memsim.multicore.simulate_socket` per socket,
so equality is by construction; these tests pin it empirically (and
would catch a refactor that breaks the socket-is-a-closed-system
assumption).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import RunConfig
from repro.memsim import (
    MemoryLayout,
    simulate_multicore,
    simulate_multicore_sharded,
    socket_shards,
    tiny_machine,
    westmere_ex,
)
from repro.parallel import parallel_traces

FAST = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_identical(seq, shd):
    assert seq.affinity == shd.affinity
    assert seq.num_cores == shd.num_cores
    for a, b in zip(seq.per_core, shd.per_core):
        assert a.core == b.core
        assert a.socket == b.socket
        assert a.stats == b.stats
        assert a.cost == b.cost
    assert seq.access_counts() == shd.access_counts()
    assert seq.modeled_seconds == shd.modeled_seconds


def _mesh_streams(mesh, machine, num_cores, iterations=2):
    traces = parallel_traces(
        mesh, num_cores, iterations=iterations, traversal="storage"
    )
    layout = MemoryLayout.for_mesh(mesh, line_size=machine.line_size)
    return [layout.lines(t) for t in traces]


@pytest.mark.parametrize("affinity", ["compact", "scatter"])
@pytest.mark.parametrize("num_cores", [1, 2, 3, 4])
def test_sharded_matches_sequential_on_mesh_traces(
    ocean_mesh, affinity, num_cores
):
    machine = tiny_machine()
    streams = _mesh_streams(ocean_mesh, machine, num_cores)
    seq = simulate_multicore(
        streams, machine, affinity=affinity,
        config=RunConfig(mem_engine="sequential"),
    )
    shd = simulate_multicore(
        streams, machine, affinity=affinity,
        config=RunConfig(mem_engine="sharded"),
    )
    assert_identical(seq, shd)


def test_sharded_matches_sequential_many_cores(bumpy_mesh):
    machine = westmere_ex(scale=0.05)
    streams = _mesh_streams(bumpy_mesh, machine, 8, iterations=1)
    seq = simulate_multicore(streams, machine, affinity="compact")
    shd = simulate_multicore_sharded(streams, machine, affinity="compact")
    assert_identical(seq, shd)


def test_sharded_in_process_path_matches(ocean_mesh):
    """``max_workers=1`` short-circuits the pool; results are unchanged."""
    machine = tiny_machine()
    streams = _mesh_streams(ocean_mesh, machine, 4)
    pooled = simulate_multicore_sharded(streams, machine, affinity="scatter")
    inproc = simulate_multicore_sharded(
        streams, machine, affinity="scatter", max_workers=1
    )
    assert_identical(pooled, inproc)


@FAST
@given(
    data=st.data(),
    num_cores=st.integers(min_value=1, max_value=4),
    affinity=st.sampled_from(["compact", "scatter"]),
    quantum=st.integers(min_value=1, max_value=17),
)
def test_sharded_matches_sequential_on_random_streams(
    data, num_cores, affinity, quantum
):
    streams = [
        np.asarray(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=40),
                    min_size=0,
                    max_size=200,
                )
            ),
            dtype=np.int64,
        )
        for _ in range(num_cores)
    ]
    machine = tiny_machine()
    seq = simulate_multicore(
        streams, machine, affinity=affinity, quantum=quantum
    )
    shd = simulate_multicore_sharded(
        streams, machine, affinity=affinity, quantum=quantum, max_workers=1
    )
    assert_identical(seq, shd)


@pytest.mark.parametrize("affinity", ["compact", "scatter"])
def test_socket_shards_partition_cores(affinity):
    machine = westmere_ex(scale=0.05)
    streams = [np.arange(i + 1, dtype=np.int64) for i in range(12)]
    shards = socket_shards(streams, machine, affinity)
    seen = []
    for socket_id, members, member_streams in shards:
        assert 0 <= socket_id < machine.num_sockets
        assert len(members) == len(member_streams)
        for core, stream in zip(members, member_streams):
            assert stream is streams[core]
        seen.extend(members)
    # Every core appears in exactly one shard.
    assert sorted(seen) == list(range(12))


def test_unknown_replay_engine_rejected():
    with pytest.raises(ValueError, match="unknown replay engine"):
        simulate_multicore(
            [np.arange(4, dtype=np.int64)],
            tiny_machine(),
            config=RunConfig(mem_engine="warp"),
        )
