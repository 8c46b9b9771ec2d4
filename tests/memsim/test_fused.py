"""Fused-vs-materialized differential suite.

The fused trace pipeline's contract is *bit-for-bit exactness*: a
smoother emitting bounded windows through :class:`FusedSink` into
:class:`FusedAnalysis` must reproduce the materialized path's per-level
cache counts, reuse profiles (global and per-iteration) and bucketed
series exactly — any window size, every registered machine profile,
threaded or synchronous handoff — and its cache counts must equal both
the batched in-memory simulator's and the per-access
:class:`~repro.memsim.CacheHierarchy` replay's. The streaming suites
(``test_streaming.py``) pin each consumer engine individually; this
suite pins the *composition* the fused pipeline actually runs, the
double-buffer handoff included, plus the partially-fused multicore
path and the pipeline-level ``trace_mode`` routing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RunConfig, UnknownNameError
from repro.core.pipeline import run_ordering, run_parallel_ordering
from repro.memsim import (
    CacheHierarchy,
    FusedAnalysis,
    FusedSink,
    LineSink,
    MaterializeSink,
    MemoryLayout,
    SpillSink,
    bucketed_series,
    calibrated_machine,
    replay_trace,
    reuse_distances,
    simulate_trace,
    tiny_machine,
)
from repro.meshgen import structured_rectangle
from repro.smoothing.trace import (
    append_smooth_accesses_batch,
    iter_traversal_chunks,
    trace_for_traversal,
)

ITERATIONS = 2


def machines():
    yield "tiny", tiny_machine()
    # Every registered calibration profile (MACHINE_PROFILES).
    yield "cal-serial", calibrated_machine(1 << 14, profile="serial")
    yield "cal-scaling", calibrated_machine(1 << 14, profile="scaling")


def stats_tuple(stats):
    return tuple((level.accesses, level.hits) for level in stats.levels())


def windows_for(n):
    #: The adversarial window sizes of the design: single-event, prime,
    #: exactly the stream, larger than the stream.
    return sorted({1, 13, max(n, 1), n + 7})


@pytest.fixture(scope="module")
def mesh():
    return structured_rectangle(9, 9, name="fused-mesh")


@pytest.fixture(scope="module")
def materialized(mesh):
    """The ground truth: the full in-memory trace and its line stream."""
    seq = mesh.interior_vertices()
    trace = trace_for_traversal(mesh, [seq] * ITERATIONS)
    layout = MemoryLayout.for_mesh(mesh)
    return mesh, trace, layout, layout.lines(trace)


def produce_through_sink(sink, mesh):
    """Emit exactly what the instrumented smoother emits: one
    ``begin_iteration`` per sweep, bursts capped at the sink's ask."""
    g = mesh.adjacency
    seq = mesh.interior_vertices()
    burst = sink.burst_events
    for _ in range(ITERATIONS):
        sink.begin_iteration()
        if burst is None:
            append_smooth_accesses_batch(sink, g.xadj, g.adjncy, seq)
        else:
            for chunk in iter_traversal_chunks(g.xadj, seq, burst):
                append_smooth_accesses_batch(sink, g.xadj, g.adjncy, chunk)
    return sink.close()


class TestFusedExactness:
    @pytest.mark.parametrize("machine_name,machine", list(machines()))
    @pytest.mark.parametrize("in_memory", ["reference", "batched"])
    def test_matches_materialized(
        self, materialized, machine_name, machine, in_memory
    ):
        mesh, trace, layout, lines = materialized
        want_stats = stats_tuple(
            CacheHierarchy(machine).run(lines)
            if in_memory == "reference"
            else simulate_trace(lines, machine)
        )
        distances = reuse_distances(lines)
        want_bucketed = bucketed_series(distances)
        want_profile = [
            np.array(
                sorted(
                    reuse_distances(layout.lines(trace.iteration(k)))
                )
            )
            for k in range(ITERATIONS)
        ]
        for window in windows_for(len(trace)):
            analysis = FusedAnalysis(
                layout, machine, total_events=len(trace)
            )
            sink = FusedSink(analysis, window_events=window)
            assert produce_through_sink(sink, mesh) is analysis
            label = f"{machine_name}/{in_memory} window {window}"
            assert stats_tuple(analysis.stats) == want_stats, label
            assert analysis.reuse.num_accesses == len(trace)
            # Profiles: global and per-iteration, bit-identical rows.
            assert (
                analysis.reuse_profile(iteration=None).as_row()
                == profile_row_from(distances)
            ), label
            for k in range(ITERATIONS):
                got = analysis.reuse_profile(iteration=k)
                want = profile_row_from(want_profile[k])
                assert got.as_row() == want, (label, k)
            got_c, got_m = analysis.bucketed_series()
            assert np.array_equal(got_c, want_bucketed[0]), label
            assert np.array_equal(got_m, want_bucketed[1], equal_nan=True)

    def test_threaded_matches_synchronous(self, materialized):
        mesh, trace, layout, lines = materialized
        machine = tiny_machine()
        results = []
        for overlap in (True, False):
            analysis = FusedAnalysis(
                layout, machine, total_events=len(trace)
            )
            sink = FusedSink(analysis, window_events=97, overlap=overlap)
            produce_through_sink(sink, mesh)
            results.append(
                (
                    stats_tuple(analysis.stats),
                    analysis.reuse_profile(iteration=None).as_row(),
                    analysis.bucketed_series(),
                )
            )
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]
        assert np.array_equal(results[0][2][0], results[1][2][0])
        assert np.array_equal(results[0][2][1], results[1][2][1])

    def test_replay_trace_matches_live_production(self, materialized):
        # Replaying the materialized trace through the same consumer
        # must equal feeding it live — the spill-mode simulate path.
        mesh, trace, layout, lines = materialized
        machine = tiny_machine()
        want = simulate_trace(lines, machine)
        for window in windows_for(len(trace)):
            analysis = FusedAnalysis(layout, machine, total_events=len(trace))
            replay_trace(analysis, trace, window_events=window)
            assert stats_tuple(analysis.stats) == stats_tuple(want)
            assert analysis.reuse_profile(iteration=None).as_row() == (
                profile_row_from(reuse_distances(lines))
            )

    def test_materialize_sink_round_trip(self, materialized):
        mesh, trace, layout, lines = materialized
        got = produce_through_sink(MaterializeSink(), mesh)
        assert np.array_equal(got.array_ids, trace.array_ids)
        assert np.array_equal(got.indices, trace.indices)
        assert np.array_equal(got.is_write, trace.is_write)
        assert np.array_equal(got.iteration_starts, trace.iteration_starts)

    def test_spill_sink_round_trip(self, materialized, tmp_path):
        mesh, trace, layout, lines = materialized
        sink = SpillSink(tmp_path / "spill", window_events=61)
        chunked_dir = produce_through_sink(sink, mesh)
        got = sink.open().to_trace()
        assert chunked_dir == tmp_path / "spill"
        assert np.array_equal(got.array_ids, trace.array_ids)
        assert np.array_equal(got.indices, trace.indices)
        assert np.array_equal(got.is_write, trace.is_write)
        assert np.array_equal(got.iteration_starts, trace.iteration_starts)

    def test_line_sink_matches_layout_translation(self, materialized):
        mesh, trace, layout, lines = materialized
        got = produce_through_sink(LineSink(layout), mesh)
        assert np.array_equal(got, lines)


def profile_row_from(distances):
    from repro.memsim import profile_from_distances

    return profile_from_distances(np.asarray(distances)).as_row()


class RecordingConsumer:
    """Window spy: records the stream and audits the two-slot bound."""

    def __init__(self, delay_s: float = 0.0):
        self.windows: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.marks: list[int] = []  # event offsets of begin_iteration
        self.events = 0
        self.delay_s = delay_s

    def begin_iteration(self):
        self.marks.append(self.events)

    def consume_window(self, ids, idx, wr):
        if self.delay_s:
            import time

            time.sleep(self.delay_s)
        self.windows.append((ids.copy(), idx.copy(), wr.copy()))
        self.events += ids.size


class TestTwoSlotBound:
    @pytest.mark.parametrize("delay_s", [0.0, 0.002])
    def test_peak_buffered_never_exceeds_two_windows(
        self, materialized, delay_s
    ):
        # A slow consumer forces the producer to actually race ahead
        # and block on the joined queue; the audit counters must still
        # show at most two windows (one filling + one simulating).
        mesh, trace, layout, lines = materialized
        window = 97
        spy = RecordingConsumer(delay_s=delay_s)
        sink = FusedSink(spy, window_events=window)
        produce_through_sink(sink, mesh)
        assert sink.peak_buffered_windows <= 2
        assert sink.peak_buffered_events <= 2 * window
        assert sink.windows_emitted == len(spy.windows)
        assert sink.events == len(trace)
        if delay_s:
            assert sink.producer_wait_s > 0.0
        # Stream order and content are exactly the produced trace.
        ids = np.concatenate([w[0] for w in spy.windows])
        idx = np.concatenate([w[1] for w in spy.windows])
        wr = np.concatenate([w[2] for w in spy.windows])
        assert np.array_equal(ids, trace.array_ids)
        assert np.array_equal(idx, trace.indices)
        assert np.array_equal(wr, trace.is_write)
        assert spy.marks == list(trace.iteration_starts)

    def test_every_interior_window_is_full(self, materialized):
        # Windows only flush early at iteration marks, so between marks
        # each emitted window except the last is exactly window_events.
        mesh, trace, layout, lines = materialized
        spy = RecordingConsumer()
        sink = FusedSink(spy, window_events=64)
        produce_through_sink(sink, mesh)
        sizes = [w[0].size for w in spy.windows]
        boundary = set(spy.marks) | {len(trace)}
        pos = 0
        for size in sizes:
            pos += size
            assert size == 64 or pos in boundary

    def test_consumer_error_propagates_to_producer(self):
        class Exploding:
            def begin_iteration(self):
                pass

            def consume_window(self, ids, idx, wr):
                raise ValueError("boom")

        sink = FusedSink(Exploding(), window_events=4)
        with pytest.raises(RuntimeError, match="fused trace consumer"):
            sink.append_columns(
                np.zeros(64, dtype=np.uint8),
                np.zeros(64, dtype=np.int64),
                np.zeros(64, dtype=bool),
            )
            sink.close()

    def test_bad_window_size_rejected(self):
        with pytest.raises(ValueError, match="window_events"):
            FusedSink(RecordingConsumer(), window_events=0)


class TestPipelineRouting:
    @pytest.fixture(scope="class")
    def pipeline_mesh(self):
        return structured_rectangle(10, 10, name="fused-pipeline-mesh")

    @pytest.fixture(scope="class")
    def baseline(self, pipeline_mesh):
        return run_ordering(
            pipeline_mesh,
            "rdr",
            machine=tiny_machine(),
            fixed_iterations=ITERATIONS,
        )

    @pytest.mark.parametrize("window", [None, 1, 13, 1 << 20])
    def test_fused_run_matches_materialized(
        self, pipeline_mesh, baseline, window
    ):
        run = run_ordering(
            pipeline_mesh,
            "rdr",
            config=RunConfig(
                trace_mode="fused", stream_window_events=window
            ),
            machine=tiny_machine(),
            fixed_iterations=ITERATIONS,
        )
        assert stats_tuple(run.cache) == stats_tuple(baseline.cache)
        assert run.reuse_profile().as_row() == (
            baseline.reuse_profile().as_row()
        )
        assert run.reuse_profile(iteration=None).as_row() == (
            baseline.reuse_profile(iteration=None).as_row()
        )
        want_c, want_m = bucketed_series(baseline.distances)
        got_c, got_m = run.fused.bucketed_series()
        assert np.array_equal(got_c, want_c)
        assert np.array_equal(got_m, want_m, equal_nan=True)
        assert run.modeled_seconds == baseline.modeled_seconds
        with pytest.raises(RuntimeError, match="trace_mode"):
            run.trace
        with pytest.raises(RuntimeError, match="trace_mode"):
            run.distances

    def test_summary_only_auto_fuses(self, pipeline_mesh, baseline):
        run = run_ordering(
            pipeline_mesh,
            "rdr",
            machine=tiny_machine(),
            fixed_iterations=ITERATIONS,
            summary_only=True,
        )
        assert run.trace_mode == "fused"
        assert run.fused is not None
        # Cache counts and modeled cost survive the minimal analysis...
        assert stats_tuple(run.cache) == stats_tuple(baseline.cache)
        assert run.modeled_seconds == baseline.modeled_seconds
        # ...but the reuse analyses are skipped wholesale, and say so.
        with pytest.raises(RuntimeError, match="summary_only"):
            run.reuse_profile()
        assert run.fused.reuse is None
        assert run.fused.bucketed is None
        assert run.fused.iteration_reuse == []

    def test_explicit_fused_keeps_full_analysis_under_summary_only(
        self, pipeline_mesh, baseline
    ):
        # summary_only only *upgrades* materialize; an explicit fused
        # request stays minimal too (the flag describes what the caller
        # needs, not which mode they came in on).
        run = run_ordering(
            pipeline_mesh,
            "rdr",
            config=RunConfig(trace_mode="fused"),
            machine=tiny_machine(),
            fixed_iterations=ITERATIONS,
            summary_only=True,
        )
        assert run.fused.reuse is None
        assert stats_tuple(run.cache) == stats_tuple(baseline.cache)

    def test_spill_run_matches_and_persists(
        self, pipeline_mesh, baseline, tmp_path
    ):
        run = run_ordering(
            pipeline_mesh,
            "rdr",
            config=RunConfig(trace_mode="spill", stream_window_events=101),
            machine=tiny_machine(),
            fixed_iterations=ITERATIONS,
            trace_dir=tmp_path / "trace",
        )
        assert stats_tuple(run.cache) == stats_tuple(baseline.cache)
        assert run.reuse_profile().as_row() == (
            baseline.reuse_profile().as_row()
        )
        from repro.memsim import AccessTrace

        got = AccessTrace.open_chunked(run.trace_dir).to_trace()
        assert np.array_equal(got.array_ids, baseline.trace.array_ids)
        assert np.array_equal(got.indices, baseline.trace.indices)
        assert np.array_equal(got.is_write, baseline.trace.is_write)
        assert np.array_equal(
            got.iteration_starts, baseline.trace.iteration_starts
        )

    def test_spill_requires_trace_dir(self, pipeline_mesh):
        with pytest.raises(ValueError, match="trace_dir"):
            run_ordering(
                pipeline_mesh,
                "rdr",
                config=RunConfig(trace_mode="spill"),
                machine=tiny_machine(),
                fixed_iterations=ITERATIONS,
            )

    def test_unknown_trace_mode_rejected(self):
        with pytest.raises(UnknownNameError):
            RunConfig(trace_mode="nope").validate()

    @pytest.mark.parametrize("affinity", ["compact", "scatter"])
    def test_multicore_fused_matches_materialized(
        self, pipeline_mesh, affinity
    ):
        kwargs = dict(
            machine=tiny_machine(), iterations=ITERATIONS, affinity=affinity
        )
        want = run_parallel_ordering(pipeline_mesh, "rdr", 2, **kwargs)
        got = run_parallel_ordering(
            pipeline_mesh,
            "rdr",
            2,
            config=RunConfig(trace_mode="fused"),
            **kwargs,
        )
        assert want.result.access_counts() == got.result.access_counts()
        assert want.modeled_seconds == got.modeled_seconds
        for a, b in zip(want.result.per_core, got.result.per_core):
            assert (a.core, a.socket) == (b.core, b.socket)
            assert stats_tuple(a.stats) == stats_tuple(b.stats)

    def test_multicore_spill_rejected(self, pipeline_mesh):
        with pytest.raises(UnknownNameError):
            run_parallel_ordering(
                pipeline_mesh,
                "rdr",
                2,
                config=RunConfig(trace_mode="spill"),
                machine=tiny_machine(),
                iterations=ITERATIONS,
            )
