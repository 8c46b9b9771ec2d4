"""Engine-equality suite: batched simulator vs the reference replay.

The batched engine's contract is *exactness*: identical per-level
access/hit counts (and identical served-level attribution) on every
stream, machine geometry, policy and topology the reference simulator
accepts. The property tests below drive randomized streams through
both engines; the golden test re-derives the pinned fixture statistics
through the batched path; the ``slow``-marked sweep widens the
differential search to many machine geometries and stream shapes.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RunConfig, obs
from repro.memsim import batched as batched_module
from repro.memsim import (
    batched_levels,
    simulate_multicore,
    simulate_trace,
    westmere_ex,
)
from repro.memsim.cache import CacheHierarchy
from repro.memsim.machine import CacheSpec, MachineSpec

from .oracles import reference_multicore_stats

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
sys.path.insert(0, str(FIXTURES))

from generate_golden import FIXTURE_DIR, golden_configs  # noqa: E402


def toy_machine(s1, w1, s2, w2, s3, w3, *, cores_per_socket=1, num_sockets=1):
    line = 8
    return MachineSpec(
        name="toy",
        l1=CacheSpec("L1", s1 * w1 * line, w1, 1.0, line),
        l2=CacheSpec("L2", s2 * w2 * line, w2, 4.0, line),
        l3=CacheSpec("L3", s3 * w3 * line, w3, 16.0, line),
        memory_latency_cycles=64.0,
        remote_l3_extra_cycles=16.0,
        frequency_hz=1e9,
        cores_per_socket=cores_per_socket,
        num_sockets=num_sockets,
    )


#: Small geometries chosen so back-invalidations actually fire (outer
#: levels barely larger than inner ones) alongside regular shapes.
GEOMETRIES = [
    (1, 2, 1, 4, 2, 4),
    (1, 1, 1, 2, 1, 3),
    (2, 2, 4, 2, 8, 4),
    (1, 4, 2, 4, 4, 8),
    (3, 2, 5, 2, 7, 3),
    (1, 2, 2, 2, 2, 3),
    (2, 1, 2, 2, 4, 2),
    (1, 3, 1, 3, 1, 4),
]


def reference_levels(lines, machine, **kwargs):
    hierarchy = CacheHierarchy(machine, **kwargs)
    served = np.empty(len(lines), dtype=np.int8)
    for t, line in enumerate(np.asarray(lines).tolist()):
        served[t] = hierarchy.access(line)
    return hierarchy.stats, served


def assert_stats_equal(ref, got):
    for a, b in zip(ref.levels(), got.levels()):
        assert (a.accesses, a.hits) == (b.accesses, b.hits), (
            f"{a.name}: reference=({a.accesses},{a.hits}) "
            f"batched=({b.accesses},{b.hits})"
        )


streams = st.lists(st.integers(min_value=0, max_value=25), max_size=300)


class TestBatchedMatchesReference:
    @given(
        lines=streams,
        geometry=st.sampled_from(GEOMETRIES),
    )
    @settings(max_examples=60, deadline=None)
    def test_lru_counts_and_levels(self, lines, geometry):
        machine = toy_machine(*geometry)
        arr = np.asarray(lines, dtype=np.int64)
        ref_stats, ref_served = reference_levels(arr, machine)
        got_stats, got_served = batched_levels(arr, machine)
        assert_stats_equal(ref_stats, got_stats)
        assert np.array_equal(ref_served, got_served)

    @given(
        lines=streams,
        geometry=st.sampled_from(GEOMETRIES),
        policy=st.sampled_from(["lru", "fifo", "random"]),
        prefetch=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_policies_and_prefetch(self, lines, geometry, policy, prefetch):
        # fifo/random/prefetch fall back to the reference internally;
        # the exactness contract holds regardless of the route taken.
        machine = toy_machine(*geometry)
        arr = np.asarray(lines, dtype=np.int64)
        ref = CacheHierarchy(
            machine, next_line_prefetch=prefetch, policy=policy
        ).run(arr)
        got = simulate_trace(
            arr, machine, next_line_prefetch=prefetch, policy=policy
        )
        assert_stats_equal(ref, got)

    @given(
        per_core=st.lists(streams, min_size=1, max_size=4),
        geometry=st.sampled_from(GEOMETRIES),
        affinity=st.sampled_from(["compact", "scatter"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_shared_l3_multicore(self, per_core, geometry, affinity):
        # compact packs cores onto shared-L3 sockets (interleaved
        # replay); scatter produces single-core sockets where the
        # batched cascade applies — both must match the oracle exactly.
        machine = toy_machine(*geometry, cores_per_socket=2, num_sockets=2)
        arrs = [np.asarray(s, dtype=np.int64) for s in per_core]
        ref = reference_multicore_stats(arrs, machine, affinity)
        got = simulate_multicore(arrs, machine, affinity=affinity)
        assert [cr.core for cr in got.per_core] == list(range(len(arrs)))
        for cr_ref, cr_got in zip(ref, got.per_core):
            assert_stats_equal(cr_ref, cr_got.stats)


#: Few sets, so the scan stage meets long same-set windows.
SPARSE_GEOMETRIES = [
    (1, 2, 1, 3, 1, 4),
    (1, 4, 1, 5, 1, 6),
    (1, 3, 2, 3, 2, 4),
    (2, 2, 2, 3, 1, 6),
]

#: Runs of a few lines: long runs of one line leave the other lines'
#: windows long but short of distinct arrivals, which the bounded scan
#: cannot settle.
run_streams = st.lists(
    st.tuples(st.integers(0, 7), st.integers(1, 40)), min_size=1, max_size=30
).map(
    lambda runs: np.repeat(
        np.array([line for line, _ in runs], dtype=np.int64),
        [length for _, length in runs],
    )
)


def fallback_counters(lines, machine, factor):
    """Batched stats and the fallback counters with the direct-count
    budget set to ``factor`` times the stream length."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batched_module, "_DIRECT_WORK_FACTOR", factor)
        with obs.capture() as tracer:
            stats, served = batched_levels(lines, machine)
    counters = tracer.metrics.snapshot()["counters"]
    return stats, served, {
        k.rsplit(".", 1)[-1]: v for k, v in counters.items() if "fallback" in k
    }


class TestExactFallback:
    """Both branches of the scan stage's exact fallback: the chunked
    direct count (unlimited budget) and the dominance kernel (zero
    budget) must reproduce the reference replay."""

    @pytest.mark.parametrize("factor", [0, math.inf], ids=["kernel", "direct"])
    def test_branch_taken_on_a_long_window(self, factor):
        # A; 60 events alternating B and C; A again.  The reuse of A
        # sees two distinct lines in a 60-event window: past the gap and
        # cold filters, and beyond the scan's first chunk.
        lines = np.array([0] + [1, 2] * 30 + [0, 3, 0], dtype=np.int64)
        machine = toy_machine(1, 4, 1, 5, 1, 6)
        stats, served, counters = fallback_counters(lines, machine, factor)
        ref_stats, ref_served = reference_levels(lines, machine)
        assert_stats_equal(ref_stats, stats)
        assert np.array_equal(ref_served, served)
        assert counters["fallback_queries"] > 0
        if factor == 0:
            assert counters["fallback_kernel_calls"] > 0
            assert counters["fallback_direct_elements"] == 0
        else:
            assert counters["fallback_kernel_calls"] == 0
            assert counters["fallback_direct_elements"] > 0

    @given(lines=run_streams, geometry=st.sampled_from(SPARSE_GEOMETRIES))
    @settings(max_examples=60, deadline=None)
    def test_both_branches_match_reference(self, lines, geometry):
        machine = toy_machine(*geometry)
        ref = CacheHierarchy(machine).run(lines)
        for factor in (0, math.inf):
            stats, _, _ = fallback_counters(lines, machine, factor)
            assert_stats_equal(ref, stats)

    def test_counters_cost_nothing_untraced(self):
        # With tracing off the counters record nothing at all.
        lines = np.array([0] + [1, 2] * 30 + [0], dtype=np.int64)
        batched_levels(lines, toy_machine(1, 4, 1, 5, 1, 6))
        assert obs.metrics().snapshot()["counters"] == {}


class TestBatchedGolden:
    """The pinned golden traces, re-simulated through the batched engine."""

    @pytest.fixture(scope="class")
    def golden_stats(self) -> dict:
        return json.loads((FIXTURE_DIR / "golden_stats.json").read_text())

    @pytest.mark.parametrize("name", sorted(golden_configs()))
    def test_matches_pinned_levels(self, name, golden_stats):
        config = golden_configs()[name]
        machine = westmere_ex(scale=config["machine_scale"])
        with np.load(FIXTURE_DIR / f"{name}.npz") as fixture:
            lines = fixture["lines"]
        stats = simulate_trace(lines, machine)
        want = golden_stats[name]["levels"]
        for level in stats.levels():
            assert level.accesses == want[level.name]["accesses"]
            assert level.hits == want[level.name]["hits"]


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        # The simulator has one path; the retired selector is refused.
        with pytest.raises(TypeError, match="sim_engine"):
            RunConfig(sim_engine="batched")

    def test_empty_stream(self):
        machine = toy_machine(*GEOMETRIES[0])
        stats, served = batched_levels(np.empty(0, dtype=np.int64), machine)
        assert [lv.accesses for lv in stats.levels()] == [0, 0, 0]
        assert served.size == 0


@pytest.mark.slow
def test_differential_sweep():
    """Wide randomized differential: many geometries x stream shapes."""
    rng = np.random.default_rng(987)
    for trial in range(240):
        geometry = GEOMETRIES[trial % len(GEOMETRIES)]
        machine = toy_machine(*geometry)
        n = int(rng.integers(1, 500))
        nlines = int(rng.integers(1, 40))
        kind = trial % 3
        if kind == 0:
            lines = rng.integers(0, nlines, size=n)
        elif kind == 1:  # looping pattern
            base = rng.integers(0, nlines, size=min(n, 24))
            lines = np.tile(base, n // max(1, base.size) + 1)[:n]
        else:  # strided
            lines = (np.arange(n) * int(rng.integers(1, 5))) % max(1, nlines)
        lines = lines.astype(np.int64)
        ref_stats, ref_served = reference_levels(lines, machine)
        got_stats, got_served = batched_levels(lines, machine)
        assert_stats_equal(ref_stats, got_stats)
        assert np.array_equal(ref_served, got_served), f"trial {trial}"
