"""Streaming-vs-in-memory differential suite.

The streaming engines' contract is *bit-for-bit exactness*: replaying a
line stream window by window — any window size — must reproduce the
in-memory engines' hierarchy counts, reuse distances, profiles and
bucketed series exactly. The tests sweep the window sizes the design
calls out as adversarial (one event, a prime, exactly the stream
length, larger than the stream), every registered machine profile, and
geometries whose inclusive back-invalidations force the streaming
engine through its divergence-commit path. The in-memory side is the
per-access :class:`~repro.memsim.CacheHierarchy` replay (the oracle)
and, where named, the batched simulator behind ``simulate_trace``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RunConfig
from repro.memsim import (
    CacheHierarchy,
    StreamingBucketedSeries,
    StreamingHierarchy,
    StreamingReuse,
    bucketed_series,
    calibrated_machine,
    iter_line_windows,
    profile_from_distances,
    reuse_distances,
    simulate_multicore,
    simulate_trace,
    simulate_trace_streaming,
    tiny_machine,
)
from repro.memsim import batched
from repro.memsim.batched import cascade_pays
from repro.memsim.machine import CacheSpec, MachineSpec

from .conftest import PRODUCTION_L2_RATIO
from .oracles import reference_multicore_stats

#: The adversarial window sizes of the design: single-event, prime,
#: exactly the stream, larger than the stream (n is appended at runtime).
WINDOW_SIZES = (1, 13)


def toy_machine(s1, w1, s2, w2, s3, w3):
    line = 8
    return MachineSpec(
        name="toy",
        l1=CacheSpec("L1", s1 * w1 * line, w1, 1.0, line),
        l2=CacheSpec("L2", s2 * w2 * line, w2, 4.0, line),
        l3=CacheSpec("L3", s3 * w3 * line, w3, 16.0, line),
        memory_latency_cycles=64.0,
        remote_l3_extra_cycles=16.0,
        frequency_hz=1e9,
        cores_per_socket=2,
        num_sockets=2,
    )


#: Outer levels barely larger than inner ones, so back-invalidations
#: are consequential and the divergence-commit path runs.
ADVERSARIAL_GEOMETRIES = [
    (1, 2, 1, 4, 2, 4),
    (1, 1, 1, 2, 1, 3),
    (1, 2, 2, 2, 2, 3),
    (2, 1, 2, 2, 4, 2),
]


def machines():
    yield "tiny", tiny_machine()
    # Every registered calibration profile (MACHINE_PROFILES).
    yield "cal-serial", calibrated_machine(1 << 14, profile="serial")
    yield "cal-scaling", calibrated_machine(1 << 14, profile="scaling")


def stats_tuple(stats):
    return tuple(
        (level.accesses, level.hits) for level in stats.levels()
    )


def windows_for(n):
    return sorted({1, 13, max(n, 1), n + 7})


class TestHierarchyExactness:
    @pytest.mark.parametrize("machine_name,machine", list(machines()))
    @pytest.mark.parametrize("in_memory", ["reference", "batched"])
    def test_matches_in_memory_on_random_streams(
        self, machine_name, machine, in_memory
    ):
        rng = np.random.default_rng(hash((machine_name, in_memory)) % 2**32)
        for trial in range(8):
            n = int(rng.integers(1, 400))
            span = int(rng.integers(2, 4 * machine.l1.num_lines + 2))
            lines = rng.integers(0, span, size=n).astype(np.int64)
            want = stats_tuple(
                CacheHierarchy(machine).run(lines)
                if in_memory == "reference"
                else simulate_trace(lines, machine)
            )
            for window in windows_for(n):
                got = stats_tuple(
                    simulate_trace_streaming(
                        lines, machine, window_events=window
                    )
                )
                assert got == want, (
                    f"{machine_name}/{in_memory} trial {trial} "
                    f"window {window}"
                )

    @pytest.mark.parametrize("geometry", ADVERSARIAL_GEOMETRIES)
    def test_exact_through_back_invalidations(self, geometry):
        machine = toy_machine(*geometry)
        rng = np.random.default_rng(sum(geometry))
        for trial in range(10):
            n = int(rng.integers(20, 300))
            lines = rng.integers(0, int(rng.integers(2, 24)), size=n)
            lines = lines.astype(np.int64)
            want = stats_tuple(CacheHierarchy(machine).run(lines))
            for window in windows_for(n):
                got = stats_tuple(
                    simulate_trace_streaming(
                        lines, machine, window_events=window
                    )
                )
                assert got == want

    def test_divergence_commit_path_runs_and_stays_exact(self, monkeypatch):
        # The adversarial geometries must actually drive the streaming
        # engine through its divergence commit (seed + reference tail),
        # otherwise the suite above proves less than it claims.
        import repro.memsim.streaming as streaming

        calls = {"n": 0}
        orig = streaming._seed_state

        def spy(*args, **kwargs):
            calls["n"] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(streaming, "_seed_state", spy)
        machine = toy_machine(*ADVERSARIAL_GEOMETRIES[0])
        rng = np.random.default_rng(0)
        lines = rng.integers(0, 9, size=400).astype(np.int64)
        want = stats_tuple(CacheHierarchy(machine).run(lines))
        got = stats_tuple(
            simulate_trace_streaming(lines, machine, window_events=32)
        )
        assert got == want
        assert calls["n"] > 0

    def test_policies_and_prefetch_route_through_reference(self):
        machine = tiny_machine()
        rng = np.random.default_rng(5)
        lines = rng.integers(0, 48, size=300).astype(np.int64)
        for kwargs in (
            {"policy": "fifo"},
            {"policy": "random"},
            {"next_line_prefetch": True},
        ):
            want = stats_tuple(CacheHierarchy(machine, **kwargs).run(lines))
            got = stats_tuple(
                simulate_trace_streaming(
                    lines,
                    machine,
                    window_events=37,
                    **kwargs,
                )
            )
            assert got == want, kwargs

    def test_empty_and_tiny_streams(self):
        machine = tiny_machine()
        sim = StreamingHierarchy(machine)
        sim.consume(np.empty(0, dtype=np.int64))
        assert stats_tuple(sim.stats) == ((0, 0), (0, 0), (0, 0))
        sim.consume(np.array([3]))
        assert stats_tuple(sim.stats) == ((1, 0), (1, 0), (1, 0))
        assert sim.windows == 1 and sim.events == 1

    def test_bad_window_size_rejected(self):
        with pytest.raises(ValueError, match="window_events"):
            list(iter_line_windows(np.arange(4), 0))

    def test_unknown_engine_rejected(self):
        with pytest.raises(TypeError, match="sim_engine"):
            StreamingHierarchy(tiny_machine(), sim_engine="batched")


class TestConfigRouting:
    def test_simulate_trace_streams_when_configured(self):
        machine = tiny_machine()
        rng = np.random.default_rng(11)
        lines = rng.integers(0, 64, size=500).astype(np.int64)
        want = stats_tuple(CacheHierarchy(machine).run(lines))
        config = RunConfig(stream_window_events=61)
        got = stats_tuple(simulate_trace(lines, machine, config=config))
        assert got == want

    def test_narrow_l2_machines_replay_per_access(self, monkeypatch):
        # At the production threshold an L2 of 2x L1 replays per access
        # (no batched carry state), one of 8x L1 runs the cascade; the
        # counts are the oracle's either way.
        monkeypatch.setattr(batched, "MIN_CASCADE_L2_RATIO", PRODUCTION_L2_RATIO)
        lines = np.random.default_rng(29).integers(0, 96, size=600)
        for geometry, cascade in (
            ((1, 2, 1, 4, 2, 4), False),
            ((1, 2, 4, 4, 8, 4), True),
        ):
            machine = toy_machine(*geometry)
            assert cascade_pays(machine) is cascade
            sim = StreamingHierarchy(machine)
            sim.consume(lines)
            assert (sim.carry_events > 0) is cascade
            want = stats_tuple(CacheHierarchy(machine).run(lines))
            assert stats_tuple(sim.stats) == want
            assert stats_tuple(simulate_trace(lines, machine)) == want

    def test_run_config_validates_window(self):
        RunConfig(stream_window_events=None).validate()
        RunConfig(stream_window_events=1024).validate()
        for bad in (0, -5, True, 2.5):
            with pytest.raises(ValueError):
                RunConfig(stream_window_events=bad).validate()

    @pytest.mark.parametrize("mem_engine", ["sequential", "sharded"])
    @pytest.mark.parametrize("affinity", ["compact", "scatter"])
    def test_multicore_streams_per_socket(self, mem_engine, affinity):
        # compact packs two cores per socket (quantum-sliced interleave);
        # scatter yields single-core sockets (windowed StreamingHierarchy).
        machine = toy_machine(2, 2, 4, 2, 8, 4)
        rng = np.random.default_rng(23)
        streams = [
            rng.integers(0, 40, size=int(rng.integers(30, 200))).astype(
                np.int64
            )
            for _ in range(3)
        ]
        want = reference_multicore_stats(streams, machine, affinity)
        config = RunConfig(mem_engine=mem_engine, stream_window_events=17)
        got = simulate_multicore(
            streams, machine, config=config, affinity=affinity, max_workers=1
        )
        assert [cr.core for cr in got.per_core] == [0, 1, 2]
        for a, b in zip(want, got.per_core):
            assert stats_tuple(a) == stats_tuple(b.stats)


class TestStreamingReuse:
    def test_distances_match_in_memory(self):
        rng = np.random.default_rng(3)
        for trial in range(6):
            n = int(rng.integers(1, 500))
            lines = rng.integers(0, int(rng.integers(2, 120)), size=n)
            lines = lines.astype(np.int64)
            want = reuse_distances(lines)
            for window in windows_for(n):
                sr = StreamingReuse()
                got = np.concatenate(
                    [sr.consume(w) for w in iter_line_windows(lines, window)]
                )
                assert np.array_equal(got, want), (trial, window)
                assert sr.num_accesses == n
                assert sr.carry_events == np.unique(lines).size

    def test_profile_matches_in_memory(self):
        rng = np.random.default_rng(9)
        lines = rng.integers(0, 90, size=700).astype(np.int64)
        want = profile_from_distances(reuse_distances(lines)).as_row()
        sr = StreamingReuse()
        for w in iter_line_windows(lines, 101):
            sr.consume(w)
        assert sr.profile_row() == want

    def test_all_cold_profile(self):
        sr = StreamingReuse()
        d = sr.consume(np.arange(5))
        assert np.all(d == -1)
        row = sr.profile_row()
        assert row["accesses"] == 5 and row["cold"] == 5
        assert np.isnan(row["mean"])

    def test_empty_window_is_noop(self):
        sr = StreamingReuse()
        sr.consume(np.array([1, 2, 1]))
        before = sr.carry_events
        out = sr.consume(np.empty(0, dtype=np.int64))
        assert out.size == 0 and sr.carry_events == before


class TestStreamingBucketedSeries:
    def test_bit_identical_to_in_memory(self):
        rng = np.random.default_rng(17)
        for trial in range(6):
            n = int(rng.integers(1, 400))
            lines = rng.integers(0, int(rng.integers(2, 60)), size=n)
            d = reuse_distances(lines.astype(np.int64))
            for num_buckets in (1, 17, 100, n + 3):
                want_c, want_m = bucketed_series(d, num_buckets=num_buckets)
                for window in windows_for(n):
                    sb = StreamingBucketedSeries(n, num_buckets=num_buckets)
                    pos = 0
                    for w in iter_line_windows(lines, window):
                        sb.consume(d[pos : pos + w.size])
                        pos += w.size
                    got_c, got_m = sb.finalize()
                    assert np.array_equal(got_c, want_c)
                    assert np.array_equal(got_m, want_m, equal_nan=True)

    def test_overflow_and_underflow_rejected(self):
        sb = StreamingBucketedSeries(4, num_buckets=2)
        sb.consume(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="total_events"):
            sb.consume(np.zeros(3))
        with pytest.raises(ValueError, match="consumed"):
            sb.finalize()

    def test_empty_total(self):
        sb = StreamingBucketedSeries(0)
        centers, means = sb.finalize()
        assert centers.size == 0 and means.size == 0


class TestChunkedTraceComposition:
    def test_streaming_over_spilled_trace_windows(self, tmp_path):
        # End-to-end composition: spill a multi-iteration trace to disk,
        # stream its windows through the hierarchy and reuse engines, and
        # match the monolithic in-memory answers.
        from repro.memsim import AccessTrace

        rng = np.random.default_rng(31)
        n = 400
        trace = AccessTrace(
            rng.integers(0, 5, size=n).astype(np.uint8),
            rng.integers(0, 300, size=n),
            rng.random(n) < 0.3,
            iteration_starts=np.array([0, 150, 300]),
        )
        chunked = AccessTrace.open_chunked(
            trace.save_chunked(tmp_path / "t", window_events=57)
        )
        machine = tiny_machine()
        # Use the raw indices as line ids: layout-independent and exact.
        full_lines = trace.indices
        want = stats_tuple(CacheHierarchy(machine).run(full_lines))
        sim = StreamingHierarchy(machine)
        sr = StreamingReuse()
        parts = []
        for window in chunked.iter_windows():
            sim.consume(window.indices)
            parts.append(sr.consume(window.indices))
        assert stats_tuple(sim.stats) == want
        assert np.array_equal(
            np.concatenate(parts), reuse_distances(full_lines)
        )
        assert sim.windows == chunked.num_windows
