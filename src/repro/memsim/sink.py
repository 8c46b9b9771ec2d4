"""Trace sinks: where the smoother's event stream goes, window by window.

Before this module the instrumented smoother always appended into one
in-memory :class:`~repro.memsim.trace.TraceBuilder`, so the full
:class:`~repro.memsim.trace.AccessTrace` existed before the first
simulator event ran — ~17M events resident for the million-vertex
pipeline. A :class:`TraceSink` decouples production from retention: the
smoother emits bounded event-column bursts into whichever sink the
``RunConfig.trace_mode`` axis selects:

``materialize`` (:class:`MaterializeSink` / a plain ``TraceBuilder``)
    Today's behavior — buffer everything, hand back one ``AccessTrace``.
``spill`` (:class:`SpillSink`)
    Feed :class:`~repro.memsim.chunked.ChunkedTraceWriter` incrementally;
    the on-disk windowed format fills as the smoother runs and the
    monolithic trace never exists.
``fused`` (:class:`FusedSink` + :class:`FusedAnalysis`)
    Direct-to-simulator: each full window is translated to cache lines
    and consumed by the streaming engines
    (:class:`~repro.memsim.streaming.StreamingHierarchy` /
    ``StreamingReuse`` / ``StreamingBucketedSeries``) while the producer
    fills the next window.

Determinism of the fused double buffer
--------------------------------------
:class:`FusedSink` hands windows to a single background consumer thread
through a depth-1 queue and *joins* the queue before each handoff, so at
any instant at most two windows exist: the one the producer is filling
and the one the consumer is simulating. Windows arrive at the consumer
in exactly the order they were produced and are processed one at a time
by one thread, so the streaming engines see the same event stream as a
sequential replay — results are bit-identical to the materialized path
regardless of thread scheduling (the overlap changes *when* windows are
simulated, never *what* or *in which order*). ``overlap=False`` degrades
to synchronous in-thread consumption, used by the differential suite to
pin the threaded path against it.
"""

from __future__ import annotations

import queue
import threading
import time
from pathlib import Path

import numpy as np

from .. import obs
from .chunked import ChunkedTrace, ChunkedTraceWriter
from .layout import MemoryLayout
from .machine import MachineSpec
from .reuse import ReuseProfile
from .streaming import (
    StreamingBucketedSeries,
    StreamingHierarchy,
    StreamingReuse,
)
from .trace import ARRAY_IDS, AccessTrace, TraceBuilder

__all__ = [
    "DEFAULT_FUSED_WINDOW_EVENTS",
    "TRACE_MODES",
    "FusedAnalysis",
    "FusedSink",
    "LineSink",
    "MaterializeSink",
    "SpillSink",
    "TraceSink",
    "replay_chunked_trace",
    "replay_trace",
    "replay_trace_windows",
]

#: Valid values of the ``RunConfig.trace_mode`` axis.
TRACE_MODES: tuple[str, ...] = ("materialize", "spill", "fused")

#: Window size the fused pipeline uses when ``stream_window_events`` is
#: unset: ~10 MB of event columns per slot, two slots in flight.
DEFAULT_FUSED_WINDOW_EVENTS = 1 << 20


class TraceSink:
    """Base class of trace consumers the smoother can emit into.

    Subclasses implement :meth:`append_columns`, :meth:`begin_iteration`
    and :meth:`close`; :meth:`append` and :meth:`alloc_columns` come for
    free. A sink exposing a non-``None`` :attr:`burst_events` asks
    producers to emit in bursts of at most that many events (the
    smoother chunks its per-iteration batch accordingly), which is what
    keeps the event columns in flight bounded.
    """

    #: Preferred producer burst size in events (``None`` = unbounded).
    burst_events: int | None = None

    def begin_iteration(self) -> None:
        """Mark the start of a smoothing iteration in the stream."""
        raise NotImplementedError

    def append_columns(
        self,
        array_ids: np.ndarray,
        indices: np.ndarray,
        is_write: np.ndarray,
    ) -> None:
        """Record a block of aligned event columns."""
        raise NotImplementedError

    def append(
        self, array: str, indices: np.ndarray | int, *, write: bool = False
    ) -> None:
        """Record accesses to ``array`` at ``indices`` (scalar or 1-D)."""
        idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        k = idx.size
        if k == 0:
            return
        self.append_columns(
            np.full(k, ARRAY_IDS[array], dtype=np.uint8),
            idx,
            np.full(k, write, dtype=bool),
        )

    def alloc_columns(self, total: int):
        """Reserve ``total`` events: ``(ids, idx, wr, commit)`` views.

        The base implementation hands back temporaries (``is_write``
        zeroed) whose ``commit()`` forwards to :meth:`append_columns`;
        buffer-backed sinks override this with zero-copy reservations.
        """
        ids = np.empty(total, dtype=np.uint8)
        idx = np.empty(total, dtype=np.int64)
        wr = np.zeros(total, dtype=bool)
        return ids, idx, wr, lambda: self.append_columns(ids, idx, wr)

    def close(self):
        """Flush and finish; returns the sink's result (mode-specific)."""
        raise NotImplementedError


class MaterializeSink(TraceSink):
    """Today's behavior behind the sink protocol: buffer everything,
    :meth:`close` returns the full :class:`AccessTrace`."""

    def __init__(self) -> None:
        self._builder = TraceBuilder()
        self._meta: dict = {}

    def __len__(self) -> int:
        return len(self._builder)

    def begin_iteration(self) -> None:
        """Mark the start of a smoothing iteration in the stream."""
        self._builder.begin_iteration()

    def append_columns(self, array_ids, indices, is_write) -> None:
        """Record a block of aligned event columns."""
        self._builder.append_columns(array_ids, indices, is_write)

    def alloc_columns(self, total: int):
        """Zero-copy reservation in the underlying growth buffer."""
        return self._builder.alloc_columns(total)

    def set_meta(self, **meta) -> None:
        """Merge labels into the trace meta written at close."""
        self._meta.update(meta)

    def close(self) -> AccessTrace:
        """Build and return the materialized trace."""
        return self._builder.build(**self._meta)


class SpillSink(TraceSink):
    """Stream events straight into the chunked on-disk trace format.

    Wraps :class:`~repro.memsim.chunked.ChunkedTraceWriter`, so windows
    hit disk as they fill and the writer's footprint stays bounded by
    one window; :meth:`close` finalizes the manifest and returns the
    directory (openable via :meth:`AccessTrace.open_chunked`).
    """

    def __init__(
        self,
        path,
        *,
        window_events: int,
        compress: bool = False,
    ) -> None:
        self._writer = ChunkedTraceWriter(
            path, window_events=window_events, compress=compress
        )
        self.burst_events = int(window_events)

    def __len__(self) -> int:
        return len(self._writer)

    def begin_iteration(self) -> None:
        """Mark the start of a smoothing iteration in the stream."""
        self._writer.begin_iteration()

    def append_columns(self, array_ids, indices, is_write) -> None:
        """Record a block of aligned event columns."""
        self._writer.append_columns(array_ids, indices, is_write)

    def set_meta(self, **meta) -> None:
        """Merge labels into the on-disk manifest meta."""
        self._writer.set_meta(**meta)

    def close(self) -> Path:
        """Flush the trailing window + manifest; returns the directory."""
        return self._writer.close()

    def open(self) -> ChunkedTrace:
        """Open the spilled trace for windowed reading (after close)."""
        return ChunkedTrace.open(self._writer.out_dir)


class LineSink(TraceSink):
    """Translate events straight to cache-line ids in one growth buffer.

    The partial fusion the multicore pipeline uses: per-core line
    streams must all exist before the interleaved replay starts, but the
    17-bytes-per-event trace columns never need to — each burst is
    translated on arrival and dropped, retaining 8 bytes per event.
    """

    def __init__(self, layout: MemoryLayout) -> None:
        self._layout = layout
        self._buf = np.empty(1024, dtype=np.int64)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def begin_iteration(self) -> None:
        """No-op: line streams carry no iteration boundaries."""

    def append_columns(self, array_ids, indices, is_write) -> None:
        """Translate the block to line ids and append them."""
        lines = self._layout.lines_of(array_ids, indices)
        k = lines.size
        if k == 0:
            return
        cap = self._buf.size
        if self._n + k > cap:
            while cap < self._n + k:
                cap *= 2
            grown = np.empty(cap, dtype=np.int64)
            grown[: self._n] = self._buf[: self._n]
            self._buf = grown
        self._buf[self._n : self._n + k] = lines
        self._n += k

    def close(self) -> np.ndarray:
        """The accumulated line-id stream (exact-size copy)."""
        return self._buf[: self._n].copy()


class FusedAnalysis:
    """Direct-to-simulator window consumer: everything the serial
    pipeline derives from a trace, computed window by window.

    Feeds each window's cache lines to a
    :class:`~repro.memsim.streaming.StreamingHierarchy` (per-level
    counts), a global :class:`~repro.memsim.streaming.StreamingReuse`
    plus one per iteration (reuse profiles), and — when ``total_events``
    is known up front — a
    :class:`~repro.memsim.streaming.StreamingBucketedSeries`. All
    results are bit-identical to running the in-memory analyses over the
    materialized trace (the streaming differential suites pin each
    consumer; the fused suite pins the composition).
    """

    def __init__(
        self,
        layout: MemoryLayout,
        machine: MachineSpec,
        *,
        next_line_prefetch: bool = False,
        policy: str = "lru",
        total_events: int | None = None,
        per_iteration_profiles: bool = True,
        reuse: bool = True,
    ) -> None:
        self.layout = layout
        self.hierarchy = StreamingHierarchy(
            machine,
            next_line_prefetch=next_line_prefetch,
            policy=policy,
        )
        # Reuse distances cost an order of magnitude more than the
        # cache simulation itself; summary-only pipelines turn them off
        # wholesale (the materialized path computes them lazily, so
        # "off unless asked" is what keeps fused wall-clock <= it).
        self.reuse = StreamingReuse() if reuse else None
        self.bucketed = (
            StreamingBucketedSeries(total_events)
            if reuse and total_events is not None
            else None
        )
        self._per_iter = reuse and per_iteration_profiles
        self.iteration_reuse: list[StreamingReuse] = []

    @property
    def stats(self):
        """Accumulated per-level :class:`HierarchyStats`."""
        return self.hierarchy.stats

    def begin_iteration(self) -> None:
        """Open a fresh per-iteration reuse accumulator."""
        if self._per_iter:
            self.iteration_reuse.append(StreamingReuse())

    def consume_window(
        self,
        array_ids: np.ndarray,
        indices: np.ndarray,
        is_write: np.ndarray,
    ) -> None:
        """Translate one event window to lines and feed every consumer."""
        lines = self.layout.lines_of(array_ids, indices)
        self.hierarchy.consume(lines)
        if self.reuse is not None:
            distances = self.reuse.consume(lines)
            if self.bucketed is not None:
                self.bucketed.consume(distances)
        if self._per_iter and self.iteration_reuse:
            self.iteration_reuse[-1].consume(lines)

    def reuse_profile(self, *, iteration: int | None = 0) -> ReuseProfile:
        """Reuse-distance summary of one iteration (or the whole trace
        with ``iteration=None``) — bit-identical to the materialized
        :meth:`OrderedRun.reuse_profile`."""
        if self.reuse is None:
            raise RuntimeError(
                "reuse analysis was disabled (summary_only pipelines "
                "keep cache counts only); rerun without summary_only "
                "or with trace_mode='materialize'"
            )
        if iteration is None:
            return self.reuse.profile()
        if not self._per_iter:
            raise RuntimeError(
                "per-iteration profiles were disabled for this analysis"
            )
        if not 0 <= iteration < len(self.iteration_reuse):
            raise IndexError(f"iteration {iteration} out of range")
        return self.iteration_reuse[iteration].profile()

    def bucketed_series(self) -> tuple[np.ndarray, np.ndarray]:
        """``(bucket_centers, means)`` when ``total_events`` was given."""
        if self.bucketed is None:
            raise RuntimeError(
                "bucketed series requires total_events at construction "
                "(only predictable for fixed-iteration runs without culling)"
            )
        return self.bucketed.finalize()


class FusedSink(TraceSink):
    """Double-buffered handoff from the producing smoother to a window
    consumer, with a strict two-slot memory bound.

    The producer fills one fixed ``window_events`` buffer; on overflow
    the full window is handed to a background consumer thread through a
    depth-1 queue that is joined *before* each handoff, so at most two
    windows are ever alive (the one being filled and the one being
    simulated) while generation of window N+1 still overlaps simulation
    of window N. Iteration marks flush the partial window and travel
    through the same queue, preserving stream order exactly — see the
    module docstring for the determinism argument.

    Counters: :attr:`windows_emitted`, :attr:`peak_buffered_events`
    (audited ≤ ``2 * window_events``), :attr:`producer_wait_s` (time the
    producer blocked on the consumer) and :attr:`consumer_busy_s` (time
    the consumer spent simulating); :meth:`close` publishes them as
    ``trace.*`` obs metrics from the producer thread.
    """

    def __init__(
        self,
        consumer,
        *,
        window_events: int = DEFAULT_FUSED_WINDOW_EVENTS,
        overlap: bool = True,
    ) -> None:
        if window_events < 1:
            raise ValueError("window_events must be >= 1")
        self.consumer = consumer
        self.window_events = int(window_events)
        self.burst_events = int(window_events)
        self.overlap = bool(overlap)
        slots = 2 if self.overlap else 1
        w = self.window_events
        self._ids = [np.empty(w, dtype=np.uint8) for _ in range(slots)]
        self._idx = [np.empty(w, dtype=np.int64) for _ in range(slots)]
        self._wr = [np.empty(w, dtype=bool) for _ in range(slots)]
        self._active = 0
        self._fill = 0
        self._in_flight = 0  # events handed off, possibly still simulating
        self._closed = False
        self._error: BaseException | None = None
        self.windows_emitted = 0
        self.events = 0
        self.peak_buffered_events = 0
        self.peak_buffered_windows = 0
        self.producer_wait_s = 0.0
        self.consumer_busy_s = 0.0
        if self.overlap:
            self._q: queue.Queue = queue.Queue(maxsize=1)
            self._thread = threading.Thread(
                target=self._consumer_loop,
                name="fused-trace-consumer",
                daemon=True,
            )
            self._thread.start()

    def __len__(self) -> int:
        return self.events + self._fill

    @property
    def overlap_s(self) -> float:
        """Simulation time hidden behind production (≥ 0)."""
        return max(0.0, self.consumer_busy_s - self.producer_wait_s)

    # -- producer side --------------------------------------------------
    def begin_iteration(self) -> None:
        """Flush the partial window, then mark the iteration boundary."""
        self._flush()
        self._dispatch(("iter",))

    def append_columns(self, array_ids, indices, is_write) -> None:
        """Copy the block into the active window, flushing full windows."""
        if self._closed:
            raise ValueError("sink is closed")
        array_ids = np.ascontiguousarray(array_ids, dtype=np.uint8)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        is_write = np.ascontiguousarray(is_write, dtype=bool)
        if not (array_ids.shape == indices.shape == is_write.shape):
            raise ValueError("trace columns must have identical shapes")
        n = array_ids.size
        pos = 0
        while pos < n:
            take = min(self.window_events - self._fill, n - pos)
            a, f = self._active, self._fill
            self._ids[a][f : f + take] = array_ids[pos : pos + take]
            self._idx[a][f : f + take] = indices[pos : pos + take]
            self._wr[a][f : f + take] = is_write[pos : pos + take]
            self._fill += take
            pos += take
            if self._fill == self.window_events:
                self._flush()

    def _flush(self) -> None:
        if self._fill == 0:
            return
        n = self._fill
        self.windows_emitted += 1
        self.events += n
        # Max events alive at the handoff point: this full buffer plus
        # whatever the consumer may still hold from the previous put.
        self.peak_buffered_events = max(
            self.peak_buffered_events, n + self._in_flight
        )
        self.peak_buffered_windows = max(
            self.peak_buffered_windows, 1 + (1 if self._in_flight else 0)
        )
        self._dispatch(("window", self._active, n))
        if self.overlap:
            self._active ^= 1
        self._fill = 0

    def _dispatch(self, msg) -> None:
        if not self.overlap:
            self._process(msg)
            self._in_flight = 0
            return
        if self._error is not None:
            self._reraise()
        # Two-slot bound: the previous window must be fully consumed
        # (task_done) before the next message enters the queue.
        t0 = time.perf_counter()
        self._q.join()
        self.producer_wait_s += time.perf_counter() - t0
        self._in_flight = msg[2] if msg[0] == "window" else 0
        if self._error is not None:
            self._reraise()
        self._q.put(msg)

    def close(self):
        """Flush the tail, stop the consumer thread, publish counters.

        Returns the consumer, whose accumulated state is now final.
        Consumer exceptions are re-raised here (or at the next handoff).
        """
        if self._closed:
            return self.consumer
        self._flush()
        if self.overlap:
            self._q.join()
            self._q.put(None)
            self._thread.join()
        self._closed = True
        if self._error is not None:
            self._reraise()
        obs.add("trace.windows_emitted", self.windows_emitted)
        obs.gauge_set("trace.peak_buffered_events", self.peak_buffered_events)
        obs.gauge_set("trace.overlap_s", self.overlap_s)
        return self.consumer

    def _reraise(self) -> None:
        raise RuntimeError(
            "fused trace consumer failed"
        ) from self._error

    # -- consumer side --------------------------------------------------
    def _process(self, msg) -> None:
        if msg[0] == "iter":
            self.consumer.begin_iteration()
        else:
            _, slot, n = msg
            self.consumer.consume_window(
                self._ids[slot][:n], self._idx[slot][:n], self._wr[slot][:n]
            )

    def _consumer_loop(self) -> None:
        while True:
            msg = self._q.get()
            if msg is None:
                self._q.task_done()
                return
            try:
                if self._error is None:
                    t0 = time.perf_counter()
                    self._process(msg)
                    self.consumer_busy_s += time.perf_counter() - t0
            except BaseException as exc:  # propagate to the producer
                self._error = exc
            finally:
                self._q.task_done()


def replay_trace_windows(consumer, windows, iteration_starts) -> None:
    """Replay stored event windows through a window consumer, re-emitting
    iteration boundaries at their global offsets.

    ``windows`` yields ``(array_ids, indices, is_write)`` column tuples
    in stream order (e.g. from a
    :class:`~repro.memsim.chunked.ChunkedTrace`); windows are split at
    iteration boundaries so the consumer sees the same
    ``begin_iteration``/``consume_window`` sequence the fused producer
    would have emitted live.
    """
    starts = [int(s) for s in np.asarray(iteration_starts).ravel()]
    pos = 0
    si = 0
    for ids, idx, wr in windows:
        n = int(ids.size)
        lo = 0
        while si < len(starts) and starts[si] < pos + n:
            cut = starts[si] - pos
            if cut > lo:
                consumer.consume_window(
                    ids[lo:cut], idx[lo:cut], wr[lo:cut]
                )
                lo = cut
            consumer.begin_iteration()
            si += 1
        if lo < n:
            consumer.consume_window(ids[lo:], idx[lo:], wr[lo:])
        pos += n
    while si < len(starts):
        consumer.begin_iteration()
        si += 1


def replay_chunked_trace(consumer, chunked: ChunkedTrace) -> None:
    """Replay a spilled chunked trace through a window consumer."""
    replay_trace_windows(
        consumer,
        (
            (w.array_ids, w.indices, w.is_write)
            for w in chunked.iter_windows()
        ),
        chunked.iteration_starts,
    )


def replay_trace(consumer, trace: AccessTrace, *, window_events: int) -> None:
    """Replay an in-memory trace through a window consumer in bounded
    windows (the differential suites' reference feeding path)."""
    if window_events < 1:
        raise ValueError("window_events must be >= 1")
    n = len(trace)
    replay_trace_windows(
        consumer,
        (
            (
                trace.array_ids[lo : lo + window_events],
                trace.indices[lo : lo + window_events],
                trace.is_write[lo : lo + window_events],
            )
            for lo in range(0, n, window_events)
        ),
        trace.iteration_starts,
    )
