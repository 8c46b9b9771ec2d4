"""Laplacian mesh smoothing (Algorithm 1 + Equation 1 of the paper).

Each smoothing step replaces an interior vertex by the centroid of its
neighbors. The driver iterates until the global quality (mean per-vertex
edge-length ratio) improves by less than the convergence criterion —
the paper uses 5e-6 — or a maximum iteration count is reached.

Two update disciplines are provided:

``gauss-seidel`` (default)
    In-place sequential updates, matching the real Mesquite-style kernel
    whose access trace the paper studies. The traversal policy
    (``storage`` or ``greedy``; see :mod:`repro.smoothing.traversal`)
    decides the visit order; the sweep runs as NumPy wavefront batches
    (:mod:`repro.smoothing.vectorized`) that reproduce the per-vertex
    loop's coordinates to ``rtol=1e-12`` (the scalar loop survives as
    the test oracle the differential suite compares against).
``jacobi``
    Fully vectorized sweep from the previous iterate; used by the
    wall-clock parallel harness where all threads update concurrently.

When ``record_trace`` is on, the smoother emits the exact logical access
trace (see :mod:`repro.smoothing.trace`) that the memory simulators
consume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..config import RunConfig
from ..mesh import TriMesh
from ..memsim.trace import AccessTrace, TraceBuilder
from ..quality import DEFAULT_RANK_PASSES, global_quality, patch_quality, vertex_quality
from .trace import append_smooth_accesses_batch, iter_traversal_chunks
from .traversal import make_traversal
from .vectorized import WavefrontPlan

__all__ = [
    "DEFAULT_CONVERGENCE_TOL",
    "SmoothingResult",
    "LaplacianSmoother",
    "smooth_iteration_jacobi",
    "laplacian_smooth",
]

#: The paper's quality convergence criterion (Section 5.1).
DEFAULT_CONVERGENCE_TOL = 5e-6


@dataclass
class SmoothingResult:
    """Outcome of a smoothing run."""

    mesh: TriMesh
    iterations: int
    quality_history: list[float]
    converged: bool
    traversals: list[np.ndarray] = field(default_factory=list)
    trace: AccessTrace | None = None
    wall_time_s: float = 0.0
    #: With culling: number of active (smoothed) vertices per iteration.
    active_counts: list[int] = field(default_factory=list)

    @property
    def initial_quality(self) -> float:
        return self.quality_history[0]

    @property
    def final_quality(self) -> float:
        return self.quality_history[-1]

    @property
    def improvement(self) -> float:
        return self.final_quality - self.initial_quality


def smooth_iteration_jacobi(
    coords: np.ndarray,
    xadj: np.ndarray,
    adjncy: np.ndarray,
    interior_mask: np.ndarray,
) -> np.ndarray:
    """One vectorized Jacobi sweep: every interior vertex to its
    neighbor centroid, all computed from the input ``coords``.

    The neighbor gather ``coords[adjncy]`` is the memory-bound hot spot;
    its real-hardware locality is exactly what vertex reorderings
    improve, which makes this kernel the wall-clock counterpart of the
    simulated experiments.
    """
    deg = np.diff(xadj)
    if adjncy.size == 0:
        return coords.copy()
    gathered = coords[adjncy]
    # np.add.reduceat mis-handles empty rows (it repeats the element at
    # the boundary) and rejects offsets == len(adjncy), so clip the
    # offsets and zero the empty rows afterwards.
    offsets = np.minimum(xadj[:-1], adjncy.size - 1)
    sums = np.add.reduceat(gathered, offsets, axis=0)
    empty = deg == 0
    if empty.any():
        sums[empty] = 0.0
    out = coords.copy()
    safe_deg = np.where(deg == 0, 1, deg)[:, None]
    centroids = sums / safe_deg
    move = interior_mask & (deg > 0)
    out[move] = centroids[move]
    return out


class LaplacianSmoother:
    """Configurable Laplacian smoothing driver.

    Parameters
    ----------
    traversal:
        ``"greedy"`` (paper's quality-driven order, the default) or
        ``"storage"``.
    update:
        ``"gauss-seidel"`` or ``"jacobi"``.
    tol:
        Convergence criterion on global-quality improvement.
    max_iterations:
        Safety cap (Algorithm 1's note that the goal quality might never
        be reached).
    greedy_qualities:
        ``"current"`` re-ranks vertices from the current geometry each
        iteration; ``"initial"`` keeps the first iteration's ranking
        (the paper conjectures access patterns are controlled by initial
        qualities — the ablation bench compares both).
    metric:
        Triangle quality metric name (see :mod:`repro.quality`).
    rank_passes:
        Patch-widening passes applied to the quality signal that *ranks*
        vertices for the greedy traversal (see
        :func:`repro.quality.patch_quality`); the convergence criterion
        always uses the raw global quality.
    config:
        Accepted like every other entry point's ``config=`` and ignored.
    record_trace:
        Emit the logical access trace alongside the numeric result.
    culling:
        Mesquite-style patch culling: after each iteration, a vertex
        stays *active* only while it or one of its neighbors moved more
        than ``cull_tol`` (an absolute distance; when ``None`` it
        defaults to 5e-3 times the mesh's median edge length). Later
        iterations smooth only active vertices, so converged regions
        drop out of the working set — under a quality-sorted layout
        (RDR) the surviving active set is storage-contiguous, which is
        where culling and reordering compound (extension bench
        ``test_ext_culling``).
    cull_tol:
        Movement threshold for culling (see above).
    trace_sink:
        A :class:`repro.memsim.sink.TraceSink` receiving the access
        stream instead of the internal builder. The caller owns the
        sink: the smoother emits into it (honouring its
        ``burst_events`` bound by chunking each iteration's batch) but
        never closes it, and ``SmoothingResult.trace`` stays ``None``.
        This is how the fused/spill trace modes bound the events in
        flight. Implies trace emission regardless of ``record_trace``.
    """

    def __init__(
        self,
        *,
        config: RunConfig | None = None,
        traversal: str = "greedy",
        update: str = "gauss-seidel",
        tol: float = DEFAULT_CONVERGENCE_TOL,
        max_iterations: int = 50,
        greedy_qualities: str = "current",
        metric: str = "edge_length_ratio",
        rank_passes: int = DEFAULT_RANK_PASSES,
        record_trace: bool = False,
        culling: bool = False,
        cull_tol: float | None = None,
        trace_sink=None,
    ):
        if update not in ("gauss-seidel", "jacobi"):
            raise ValueError(f"unknown update discipline {update!r}")
        if greedy_qualities not in ("current", "initial"):
            raise ValueError(f"unknown greedy_qualities {greedy_qualities!r}")
        if culling and update != "gauss-seidel":
            raise ValueError("culling requires the gauss-seidel update")
        self.traversal = traversal
        self.update = update
        self.tol = tol
        self.max_iterations = max_iterations
        self.greedy_qualities = greedy_qualities
        self.metric = metric
        self.rank_passes = rank_passes
        self.record_trace = record_trace
        self.culling = culling
        self.cull_tol = cull_tol
        self.trace_sink = trace_sink

    def smooth(self, mesh: TriMesh) -> SmoothingResult:
        """Run smoothing to convergence; the input mesh is not modified.

        When tracing is active, the run emits a ``smooth.run`` span with
        one ``smooth.iteration`` child per sweep, a
        ``smoothing.vertices_smoothed`` counter, and a live
        ``smoothing.wavefront_width`` histogram.
        """
        with obs.span(
            "smooth.run",
            mesh=mesh.name,
            traversal=self.traversal,
            update=self.update,
        ) as sp:
            result = self._smooth_impl(mesh)
            sp.set(iterations=result.iterations, converged=bool(result.converged))
            return result

    def _smooth_impl(self, mesh: TriMesh) -> SmoothingResult:
        t0 = time.perf_counter()
        g = mesh.adjacency
        xadj, adjncy = g.xadj, g.adjncy
        interior_mask = mesh.interior_mask
        coords = mesh.vertices.copy()
        work = mesh.with_vertices(coords)

        qualities = vertex_quality(work, metric=self.metric)
        history = [global_quality(work, vertex_values=qualities)]
        initial_qualities = qualities

        if self.trace_sink is not None:
            builder = self.trace_sink
        else:
            builder = TraceBuilder() if self.record_trace else None
        gauss_seidel = self._gauss_seidel_sweep(xadj, adjncy)

        traversals: list[np.ndarray] = []
        active_counts: list[int] = []
        converged = False
        iterations = 0

        cull_tol = self.cull_tol
        active: np.ndarray | None = None
        if self.culling:
            if cull_tol is None:
                edges = mesh.edges()
                median_edge = (
                    float(
                        np.median(
                            np.linalg.norm(
                                coords[edges[:, 0]] - coords[edges[:, 1]], axis=1
                            )
                        )
                    )
                    if edges.size
                    else 1.0
                )
                cull_tol = 5e-3 * median_edge
            active = mesh.interior_vertices()

        for _ in range(self.max_iterations):
            if self.culling and active is not None and active.size == 0:
                converged = True
                break
            rank_base = (
                initial_qualities
                if self.greedy_qualities == "initial"
                else qualities
            )
            rank_q = (
                patch_quality(work, passes=self.rank_passes, base=rank_base)
                if self.traversal == "greedy" and self.rank_passes
                else rank_base
            )
            seq = make_traversal(self.traversal, work, rank_q, subset=active)
            traversals.append(seq)
            active_counts.append(int(seq.size))
            if builder is not None:
                builder.begin_iteration()

            moved: np.ndarray | None = (
                np.zeros(mesh.num_vertices, dtype=bool) if self.culling else None
            )
            with obs.span(
                "smooth.iteration", index=iterations, active=int(seq.size)
            ):
                obs.add("smoothing.vertices_smoothed", int(seq.size))
                if builder is not None:
                    self._emit(builder, xadj, adjncy, seq)
                if self.update == "jacobi":
                    coords = smooth_iteration_jacobi(
                        coords, xadj, adjncy, interior_mask
                    )
                else:
                    gauss_seidel(coords, seq, cull_tol, moved)

            iterations += 1
            work = mesh.with_vertices(coords)
            qualities = vertex_quality(work, metric=self.metric)
            history.append(global_quality(work, vertex_values=qualities))
            if self.culling and moved is not None:
                # A vertex stays active while it or a neighbor moved.
                keep = moved.copy()
                src = np.repeat(
                    np.arange(mesh.num_vertices, dtype=np.int64),
                    np.diff(xadj),
                )
                neighbor_moved = np.zeros(mesh.num_vertices, dtype=bool)
                hit = moved[adjncy]
                np.logical_or.at(neighbor_moved, src[hit], True)
                keep |= neighbor_moved
                keep &= interior_mask
                active = np.flatnonzero(keep)
            if history[-1] - history[-2] < self.tol:
                converged = True
                break

        trace = None
        if self.trace_sink is not None:
            # External sink: label it, leave closing to the owner.
            set_meta = getattr(builder, "set_meta", None)
            if set_meta is not None:
                set_meta(
                    mesh=mesh.name,
                    traversal=self.traversal,
                    update=self.update,
                    iterations=iterations,
                )
        elif builder is not None:
            trace = builder.build(
                mesh=mesh.name,
                traversal=self.traversal,
                update=self.update,
                iterations=iterations,
            )
        return SmoothingResult(
            mesh=work,
            iterations=iterations,
            quality_history=history,
            converged=converged,
            traversals=traversals,
            trace=trace,
            wall_time_s=time.perf_counter() - t0,
            active_counts=active_counts,
        )

    @staticmethod
    def _emit(
        builder, xadj: np.ndarray, adjncy: np.ndarray, seq: np.ndarray
    ) -> None:
        """Append one sweep's access events for the vertices ``seq``.

        Sinks with a burst bound get the batch in chunks so the event
        columns in flight stay bounded (fused/spill).
        """
        burst = getattr(builder, "burst_events", None)
        if burst is None:
            append_smooth_accesses_batch(builder, xadj, adjncy, seq)
            return
        for chunk in iter_traversal_chunks(xadj, seq, burst):
            append_smooth_accesses_batch(builder, xadj, adjncy, chunk)

    @staticmethod
    def _gauss_seidel_sweep(xadj: np.ndarray, adjncy: np.ndarray):
        """The in-place Gauss-Seidel sweep ``(coords, seq, cull_tol,
        moved)`` as NumPy wavefront batches.

        The wavefront schedule is cached across iterations that reuse an
        identical traversal sequence (storage traversals and
        ``greedy_qualities="initial"`` without culling never change it).
        """
        from ..parallel.scheduler import wavefront_schedule

        cached: dict = {}

        def sweep(coords, seq, cull_tol, moved) -> None:
            if "seq" not in cached or not np.array_equal(seq, cached["seq"]):
                batched, offsets = wavefront_schedule(seq, xadj, adjncy)
                obs.observe("smoothing.wavefront_width", np.diff(offsets))
                cached["seq"] = seq
                cached["plan"] = WavefrontPlan(xadj, adjncy, batched, offsets)
            cached["plan"].execute(coords, cull_tol=cull_tol, moved=moved)

        return sweep


def laplacian_smooth(
    mesh: TriMesh, *, config: RunConfig | None = None, **kwargs
) -> SmoothingResult:
    """Convenience wrapper: ``LaplacianSmoother(**kwargs).smooth(mesh)``."""
    return LaplacianSmoother(config=config, **kwargs).smooth(mesh)
