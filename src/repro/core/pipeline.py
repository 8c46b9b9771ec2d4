"""End-to-end pipelines: order -> smooth -> trace -> simulate -> report.

These helpers wire the substrates together the way every experiment
does, so benchmarks and examples stay declarative:

* :func:`run_ordering` — permute a mesh under a named ordering, smooth
  it with trace recording, translate the trace to cache lines, simulate
  the hierarchy, and evaluate the Equation-(2) time model.
* :func:`compare_orderings` — the above for several orderings of the
  same mesh (sharing the base smoothing work where possible).
* :func:`run_parallel_ordering` — the multicore version over a static
  partition (Figures 10-13).

Per-vertex quality is geometric, so the quality of a vertex does not
change under a permutation — the pipelines compute qualities once on the
base mesh and carry ``qualities[order]`` to the permuted mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pathlib import Path

from .. import obs
from ..config import DEFAULT_RUN_CONFIG, RunConfig, UnknownNameError, engine_axes
from ..mesh import TriMesh
from ..memsim import (
    COLD,
    DEFAULT_FUSED_WINDOW_EVENTS,
    AccessTrace,
    ChunkedTrace,
    FusedAnalysis,
    FusedSink,
    HierarchyStats,
    LineSink,
    MachineSpec,
    MemoryLayout,
    MulticoreResult,
    ReuseProfile,
    SpillSink,
    calibrated_machine,
    modeled_time,
    profile_from_distances,
    replay_chunked_trace,
    resolve_machine,
    reuse_distances,
    simulate_multicore,
    simulate_trace,
)
from ..memsim.timing import CostBreakdown
from ..ordering import apply_ordering
from ..parallel import parallel_traces
from ..quality import DEFAULT_RANK_PASSES, patch_quality, vertex_quality
from ..smoothing import LaplacianSmoother, SmoothingResult
from ..smoothing.trace import append_smooth_accesses_batch, traversal_events

__all__ = [
    "DEFAULT_CACHE_SCALE",
    "OrderedRun",
    "ParallelRun",
    "compare_orderings",
    "default_machine_for",
    "run_ordering",
    "run_parallel_ordering",
    "run_summary",
]

#: Retained for API compatibility with scale-based experiments that run
#: at a fixed fraction of the paper's mesh sizes on the unscaled
#: Westmere-EX description; the pipelines default to the
#: footprint-calibrated machine instead (see
#: :func:`repro.memsim.calibrated_machine`).
DEFAULT_CACHE_SCALE = 0.01


def default_machine_for(mesh: TriMesh, *, profile: str = "serial") -> MachineSpec:
    """Footprint-calibrated Westmere-shaped machine for a mesh."""
    layout = MemoryLayout.for_mesh(mesh)
    return calibrated_machine(layout.total_bytes, profile=profile)


@dataclass
class OrderedRun:
    """Everything measured about one (mesh, ordering) execution.

    Under ``trace_mode="materialize"`` the full trace and line stream
    are retained (:attr:`trace`, :attr:`lines`, :attr:`distances`).
    Under ``fused``/``spill`` the monolithic trace never existed —
    :attr:`fused` carries the streaming analysis instead (reuse profiles
    keep working through :meth:`reuse_profile`), :attr:`trace_dir`
    points at the spilled chunked trace when one was written, and the
    raw-array accessors raise ``RuntimeError`` with a pointer at the
    materialized mode.
    """

    mesh_name: str
    ordering: str
    order: np.ndarray
    mesh: TriMesh
    smoothing: SmoothingResult
    machine: MachineSpec
    layout: MemoryLayout
    lines: np.ndarray
    cache: HierarchyStats
    cost: CostBreakdown
    config: RunConfig = DEFAULT_RUN_CONFIG
    fused: FusedAnalysis | None = field(default=None, repr=False)
    trace_dir: Path | None = None
    _distances: np.ndarray | None = field(default=None, repr=False)

    @property
    def trace_mode(self) -> str:
        return self.config.trace_mode

    @property
    def trace(self) -> AccessTrace:
        if self.smoothing.trace is None:
            raise RuntimeError(
                f"no materialized trace under trace_mode="
                f"{self.config.trace_mode!r}; rerun with "
                "trace_mode='materialize' (or open trace_dir for spill)"
            )
        return self.smoothing.trace

    @property
    def modeled_seconds(self) -> float:
        return self.cost.seconds(self.machine)

    @property
    def distances(self) -> np.ndarray:
        """Reuse distances of the whole trace (computed lazily, cached)."""
        if self._distances is None:
            if self.fused is not None:
                raise RuntimeError(
                    "per-event reuse distances are not retained in "
                    f"trace_mode={self.config.trace_mode!r}; use "
                    "reuse_profile() or rerun with "
                    "trace_mode='materialize'"
                )
            self._distances = reuse_distances(self.lines)
        return self._distances

    def reuse_profile(self, *, iteration: int | None = 0) -> ReuseProfile:
        """Reuse-distance summary, by default of the first iteration
        (the population the paper's Table 2 reports)."""
        if self.fused is not None:
            return self.fused.reuse_profile(iteration=iteration)
        if iteration is None:
            return profile_from_distances(self.distances)
        trace = self.trace.iteration(iteration)
        lines = self.layout.lines(trace)
        return profile_from_distances(reuse_distances(lines))


def _prepare(
    mesh: TriMesh,
    ordering: str,
    qualities: np.ndarray | None,
    seed: int,
    rank_passes: int = DEFAULT_RANK_PASSES,
    precomputed_order: np.ndarray | None = None,
) -> tuple[TriMesh, np.ndarray, np.ndarray]:
    """Rank-smooth the quality signal and permute the mesh under it.

    The same patch-widened signal drives the ordering here and the
    greedy traversal inside the smoother, keeping the two aligned (the
    alignment is what RDR exploits).

    ``precomputed_order`` skips the (potentially expensive) ordering
    computation and permutes by the given order instead — the hook
    :mod:`repro.lab` uses to reuse cached permutations across jobs.  The
    caller is responsible for the order matching what the named
    ordering would have produced under the same quality signal.
    """
    if qualities is None:
        qualities = vertex_quality(mesh)
    rank_q = patch_quality(mesh, passes=rank_passes, base=qualities)
    if precomputed_order is not None:
        order = np.asarray(precomputed_order, dtype=np.int64)
        permuted = mesh.permute(order)
    else:
        permuted, order = apply_ordering(
            mesh, ordering, seed=seed, qualities=rank_q
        )
    return permuted, order, rank_q[order]


def run_ordering(
    mesh: TriMesh,
    ordering: str,
    *,
    config: RunConfig | None = None,
    machine: MachineSpec | None = None,
    traversal: str = "greedy",
    max_iterations: int = 50,
    fixed_iterations: int | None = None,
    qualities: np.ndarray | None = None,
    rank_passes_override: int | None = None,
    precomputed_order: np.ndarray | None = None,
    summary_only: bool = False,
    trace_dir: str | Path | None = None,
) -> OrderedRun:
    """Order, smooth (with tracing), simulate, and price one execution.

    ``config`` selects the trace mode, the ordering seed, the
    default-machine calibration profile and the observability flags in
    one :class:`repro.config.RunConfig`.
    ``fixed_iterations`` overrides convergence (useful when comparing
    orderings at identical work, mirroring the paper's note that
    orderings did not change the iteration count).
    ``rank_passes_override`` changes the patch-widening of the ranking
    signal for both the ordering and the traversal (default:
    :data:`repro.quality.DEFAULT_RANK_PASSES`).
    ``precomputed_order`` bypasses the ordering computation (see
    :func:`_prepare`) so cached permutations can be replayed.

    ``config.trace_mode`` selects where the smoother's event stream
    goes: ``materialize`` (default) keeps the full in-memory trace,
    ``fused`` streams bounded windows straight into the streaming
    simulators with the production of window N+1 overlapping the
    simulation of window N (bit-identical counts and profiles, peak
    buffering audited at two windows), and ``spill`` streams the trace
    to the chunked on-disk format under ``trace_dir`` before a windowed
    replay. ``summary_only=True`` declares that the caller only needs
    the summary statistics (cache counts and modeled time), which
    upgrades ``materialize`` to ``fused`` automatically — the returned
    run's ``config`` records the mode actually used — and skips the
    reuse-distance analyses entirely (they cost an order of magnitude
    more than the cache simulation; ``reuse_profile`` on such a run
    raises with the rerun options).

    When tracing is active (``config.obs.enabled`` or an ambient
    :func:`repro.obs.capture`), the run emits a span tree —
    ``pipeline.run_ordering`` over ``pipeline.reorder`` /
    ``pipeline.smooth`` / ``pipeline.layout`` / ``pipeline.simulate`` —
    and a live ``memsim.reuse_distance`` histogram whose computation is
    cached on the returned run (:attr:`OrderedRun.distances`).
    """
    if config is None:
        config = DEFAULT_RUN_CONFIG
    if summary_only and config.trace_mode == "materialize":
        # Caller only wants summary stats: pick the fused path (and
        # record it, so run provenance reflects the mode actually used).
        config = config.replace(trace_mode="fused")
    mode = config.trace_mode
    if mode not in engine_axes()["trace_mode"]:
        raise UnknownNameError(
            "trace mode", mode, engine_axes()["trace_mode"]
        )
    if mode == "spill" and trace_dir is None:
        raise ValueError("trace_mode='spill' requires trace_dir=")
    if machine is None:
        machine = default_machine_for(
            mesh, profile=config.machine_profile or "serial"
        )
    else:
        machine = resolve_machine(machine)
    rank_passes = (
        DEFAULT_RANK_PASSES if rank_passes_override is None else rank_passes_override
    )
    with obs.activated(config.obs), obs.span(
        "pipeline.run_ordering",
        mesh=mesh.name,
        ordering=ordering,
    ):
        with obs.span("pipeline.reorder", ordering=ordering) as sp:
            permuted, order, _ = _prepare(
                mesh, ordering, qualities, config.seed, rank_passes,
                precomputed_order,
            )
            sp.add_event(permuted.num_vertices)
        if summary_only:
            # One-shot summary runs drop the warm ordering-plan caches
            # pinned on the source graph: several hundred MiB of
            # n-by-dmax arrays at million-vertex scale that would
            # otherwise stay resident through smoothing + simulation.
            from ..ordering.batched import release_plan_caches

            release_plan_caches(mesh.adjacency)

        kwargs = dict(traversal=traversal, rank_passes=rank_passes)
        if fixed_iterations is not None:
            # Never converge early.
            kwargs.update(max_iterations=fixed_iterations, tol=-np.inf)
        else:
            kwargs.update(max_iterations=max_iterations)
        layout = MemoryLayout.for_mesh(permuted, line_size=machine.line_size)
        window_events = (
            config.stream_window_events or DEFAULT_FUSED_WINDOW_EVENTS
        )
        sink = None
        analysis: FusedAnalysis | None = None
        if mode == "fused":
            # The bucketed series needs the total event count up front;
            # it is only predictable when the iteration count is pinned
            # (the pipeline never culls). summary_only callers get cache
            # counts + modeled cost alone: the reuse analyses cost ~10x
            # the cache simulation, and the materialized path only
            # computes them lazily on demand.
            total_events = None
            if not summary_only and fixed_iterations is not None:
                g = permuted.adjacency
                total_events = fixed_iterations * traversal_events(
                    g.xadj, permuted.interior_vertices()
                )
            analysis = FusedAnalysis(
                layout,
                machine,
                total_events=total_events,
                reuse=not summary_only,
                per_iteration_profiles=not summary_only,
            )
            sink = FusedSink(analysis, window_events=window_events)
        elif mode == "spill":
            sink = SpillSink(trace_dir, window_events=window_events)
        smoother = LaplacianSmoother(
            record_trace=mode == "materialize",
            trace_sink=sink,
            config=config,
            **kwargs,
        )
        with obs.span("pipeline.smooth", trace_mode=mode) as sp:
            result = smoother.smooth(permuted)
            if mode == "fused":
                analysis = sink.close()
                sp.set(
                    windows=sink.windows_emitted,
                    peak_buffered_events=sink.peak_buffered_events,
                    overlap_s=round(sink.overlap_s, 6),
                )

        distances = None
        spill_path: Path | None = None
        if mode == "materialize":
            assert result.trace is not None
            with obs.span("pipeline.layout") as sp:
                lines = layout.lines(result.trace)
                sp.add_event(int(lines.size))
            with obs.span("pipeline.simulate"):
                cache = simulate_trace(lines, machine, config=config)
                if obs.is_enabled():
                    # The live reuse-distance histogram doubles as the
                    # OrderedRun.distances cache, so tracing pays for
                    # itself.
                    distances = reuse_distances(lines)
                    obs.observe(
                        "memsim.reuse_distance", distances[distances >= 0]
                    )
                    obs.add(
                        "memsim.reuse.cold",
                        int(np.count_nonzero(distances == COLD)),
                    )
        else:
            if mode == "spill":
                spill_path = sink.close()
                chunked = ChunkedTrace.open(spill_path)
                analysis = FusedAnalysis(
                    layout,
                    machine,
                    total_events=None if summary_only else chunked.total_events,
                    reuse=not summary_only,
                    per_iteration_profiles=not summary_only,
                )
                with obs.span("pipeline.simulate", trace_mode=mode):
                    replay_chunked_trace(analysis, chunked)
            lines = np.empty(0, dtype=np.int64)
            cache = analysis.stats
        cost = modeled_time(cache, machine)
    return OrderedRun(
        mesh_name=mesh.name,
        ordering=ordering,
        order=order,
        mesh=permuted,
        smoothing=result,
        machine=machine,
        layout=layout,
        lines=lines,
        cache=cache,
        cost=cost,
        config=config,
        fused=analysis,
        trace_dir=spill_path,
        _distances=distances,
    )


def compare_orderings(
    mesh: TriMesh,
    orderings: list[str],
    *,
    config: RunConfig | None = None,
    machine: MachineSpec | None = None,
    **kwargs,
) -> dict[str, OrderedRun]:
    """Run several orderings of one mesh under identical settings
    (``config`` and ``kwargs`` as for :func:`run_ordering`)."""
    qualities = kwargs.pop("qualities", None)
    if qualities is None:
        qualities = vertex_quality(mesh)
    return {
        name: run_ordering(
            mesh,
            name,
            config=config,
            machine=machine,
            qualities=qualities,
            **kwargs,
        )
        for name in orderings
    }


def run_summary(run: OrderedRun) -> dict:
    """Flatten an :class:`OrderedRun` into a JSON-serialisable row.

    This is the canonical result shape :mod:`repro.lab` persists per job
    and exports — deliberately aligned with the ``bench_results/*.json``
    row vocabulary (``L1_miss_%``, ``modeled_ms``, quality fields).
    """
    st = run.cache
    sm = run.smoothing
    return {
        "mesh": run.mesh_name,
        "num_vertices": run.mesh.num_vertices,
        "num_triangles": run.mesh.num_triangles,
        "iterations": sm.iterations,
        "converged": bool(sm.converged),
        "initial_quality": float(sm.initial_quality),
        "final_quality": float(sm.final_quality),
        "L1_miss_%": 100.0 * st.l1.miss_rate,
        "L2_miss_%": 100.0 * st.l2.miss_rate,
        "L3_miss_%": 100.0 * st.l3.miss_rate,
        "L1_misses": int(st.l1.misses),
        "L2_misses": int(st.l2.misses),
        "L3_misses": int(st.l3.misses),
        "memory_accesses": int(st.memory_accesses),
        "modeled_ms": run.modeled_seconds * 1e3,
        # Full engine provenance: one column per engine_axes() axis
        # (mem_engine, trace_mode).
        **{axis: getattr(run.config, axis) for axis in engine_axes()},
        "seed": run.config.seed,
        "machine": run.machine.name,
        "machine_profile": run.config.machine_profile,
    }


@dataclass
class ParallelRun:
    """Multicore simulation of one (mesh, ordering, p) configuration."""

    mesh_name: str
    ordering: str
    num_cores: int
    result: MulticoreResult
    iterations: int
    config: RunConfig = DEFAULT_RUN_CONFIG
    num_vertices: int = 0

    @property
    def modeled_seconds(self) -> float:
        return self.result.modeled_seconds

    def summary(self) -> dict:
        """Flatten into a JSON-serialisable row (the parallel analogue
        of :func:`run_summary`), including full engine provenance."""
        counts = self.result.access_counts()
        return {
            "mesh": self.mesh_name,
            "num_vertices": self.num_vertices,
            "ordering": self.ordering,
            "num_cores": self.num_cores,
            "iterations": self.iterations,
            "affinity": self.result.affinity,
            "L2_accesses": int(counts["L2"]),
            "L3_accesses": int(counts["L3"]),
            "memory_accesses": int(counts["memory"]),
            "modeled_ms": self.modeled_seconds * 1e3,
            **{axis: getattr(self.config, axis) for axis in engine_axes()},
            "seed": self.config.seed,
            "machine": self.result.machine.name,
            "machine_profile": self.config.machine_profile,
        }


def run_parallel_ordering(
    mesh: TriMesh,
    ordering: str,
    num_cores: int,
    *,
    config: RunConfig | None = None,
    machine: MachineSpec | None = None,
    iterations: int = 8,
    traversal: str = "greedy",
    affinity: str = "scatter",
    qualities: np.ndarray | None = None,
) -> ParallelRun:
    """Simulate a ``num_cores``-thread smoothing run under an ordering.

    Default affinity is ``scatter`` — the distribution the paper
    hypothesises its machine used for few-thread runs (the source of the
    super-linear speedups); the ablation bench flips it to ``compact``.
    ``config.mem_engine`` selects the replay engine (``"sequential"`` or
    ``"sharded"``; see :func:`repro.memsim.simulate_multicore`).
    """
    if config is None:
        config = DEFAULT_RUN_CONFIG
    if config.trace_mode == "spill":
        # The multicore replay needs every core's line stream at once,
        # so only full materialization or the partially-fused line
        # translation make sense here.
        raise UnknownNameError(
            "parallel trace mode", "spill", ("materialize", "fused")
        )
    if machine is None:
        machine = default_machine_for(
            mesh, profile=config.machine_profile or "scaling"
        )
    else:
        machine = resolve_machine(machine)
    with obs.activated(config.obs), obs.span(
        "pipeline.run_parallel_ordering",
        mesh=mesh.name,
        ordering=ordering,
        cores=num_cores,
        mem_engine=config.mem_engine,
    ):
        if qualities is None:
            qualities = vertex_quality(mesh)
        with obs.span("pipeline.reorder", ordering=ordering) as sp:
            permuted, order, perm_q = _prepare(
                mesh, ordering, qualities, config.seed
            )
            sp.add_event(permuted.num_vertices)
        layout = MemoryLayout.for_mesh(permuted, line_size=machine.line_size)
        if config.trace_mode == "fused":
            # Partial fusion: the interleaved multicore replay needs all
            # per-core line streams up front, but the 17-bytes-per-event
            # trace columns never do — translate each burst to 8-byte
            # line ids on arrival and drop it.
            from ..parallel.scheduler import partitioned_traversals

            with obs.span(
                "pipeline.partition", cores=num_cores, trace_mode="fused"
            ):
                sequences = partitioned_traversals(
                    permuted, num_cores,
                    traversal=traversal, qualities=perm_q,
                )
            with obs.span("pipeline.layout", trace_mode="fused") as sp:
                g = permuted.adjacency
                lines_per_core = []
                for seq in sequences:
                    sink = LineSink(layout)
                    for _ in range(iterations):
                        append_smooth_accesses_batch(
                            sink, g.xadj, g.adjncy, seq
                        )
                    lines_per_core.append(sink.close())
                sp.add_event(int(sum(l.size for l in lines_per_core)))
        else:
            with obs.span("pipeline.partition", cores=num_cores):
                traces = parallel_traces(
                    permuted,
                    num_cores,
                    iterations=iterations,
                    traversal=traversal,
                    qualities=perm_q,
                    ordering=ordering,
                )
            with obs.span("pipeline.layout") as sp:
                lines_per_core = [layout.lines(t) for t in traces]
                sp.add_event(int(sum(l.size for l in lines_per_core)))
        result = simulate_multicore(
            lines_per_core,
            machine,
            config=config,
            affinity=affinity,
        )
    return ParallelRun(
        mesh_name=mesh.name,
        ordering=ordering,
        num_cores=num_cores,
        result=result,
        iterations=iterations,
        config=config,
        num_vertices=permuted.num_vertices,
    )
