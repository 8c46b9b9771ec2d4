"""The smoother's vectorized kernels.

The paper's kernel smooths one vertex at a time; this module performs
the same updates as NumPy batch operations:

* :func:`csr_segment_mean` — the neighbor-centroid of many vertices at
  once: one fancy-indexed gather of all neighbor coordinates followed by
  a ``np.add.reduceat`` segment sum.
* :class:`WavefrontPlan` / :func:`smooth_wavefronts` — a Gauss-Seidel
  sweep executed as a series of wavefront batches (see
  :func:`repro.parallel.scheduler.wavefront_schedule`). Levels are
  processed in order and each level is one segment-mean batch; because
  every data dependency of the sequential sweep points from a lower
  level to a higher one, the values produced are exactly the sequential
  sweep's (the differential suite pins this at ``rtol=1e-12``; on meshes
  whose vertex degrees stay below NumPy's pairwise-summation block the
  match is bitwise).

A :class:`WavefrontPlan` precomputes, per level, the flattened neighbor
gather indices and segment boundaries, so an iteration that reuses a
traversal (storage traversals, ``greedy_qualities="initial"``) costs
only gather + segment-sum + scatter per level. The Jacobi discipline
needs no scheduling — it is the single batch
``smooth_iteration_jacobi``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["csr_segment_mean", "smooth_wavefronts", "WavefrontPlan"]


def csr_segment_mean(
    coords: np.ndarray,
    xadj: np.ndarray,
    adjncy: np.ndarray,
    verts: np.ndarray,
) -> np.ndarray:
    """Neighbor centroid of each vertex in ``verts`` (all with degree > 0).

    Sums run left-to-right over each adjacency slice, matching the
    arithmetic of the scalar per-vertex kernel's
    ``coords[adjncy[lo:hi]].mean(axis=0)``.
    """
    starts = xadj[verts]
    deg = xadj[verts + 1] - starts
    total = int(deg.sum())
    if total == 0:
        return np.empty((0, coords.shape[1]), dtype=coords.dtype)
    row_ends = np.cumsum(deg)
    offs = np.arange(total, dtype=np.int64) - np.repeat(row_ends - deg, deg)
    slots = np.repeat(starts, deg) + offs
    gathered = coords[adjncy[slots]]
    row_starts = row_ends - deg
    sums = np.add.reduceat(gathered, row_starts, axis=0)
    return sums / deg[:, None]


class WavefrontPlan:
    """Precompiled gather/scatter structure of one wavefront schedule.

    For each level the plan stores the updatable vertices (degree > 0),
    their concatenated neighbor ids, the segment starts delimiting each
    vertex's neighbors, and the per-vertex degree divisor — everything
    that does not depend on coordinate values. :meth:`execute` then
    performs one Gauss-Seidel sweep with three array operations per
    level.
    """

    def __init__(
        self,
        xadj: np.ndarray,
        adjncy: np.ndarray,
        batched: np.ndarray,
        offsets: np.ndarray,
    ):
        self.levels: list[tuple] = []
        for k in range(offsets.size - 1):
            level = batched[offsets[k] : offsets[k + 1]]
            starts = xadj[level]
            deg = xadj[level + 1] - starts
            keep = deg > 0
            level, starts, deg = level[keep], starts[keep], deg[keep]
            if level.size == 0:
                continue
            row_ends = np.cumsum(deg)
            offs = np.arange(int(row_ends[-1]), dtype=np.int64) - np.repeat(
                row_ends - deg, deg
            )
            nbrs = adjncy[np.repeat(starts, deg) + offs]
            self.levels.append(
                (
                    np.ascontiguousarray(level, dtype=np.int64),
                    np.ascontiguousarray(nbrs, dtype=np.int64),
                    row_ends - deg,
                    deg[:, None].astype(np.float64),
                )
            )

    def execute(
        self,
        coords: np.ndarray,
        *,
        cull_tol: float | None = None,
        moved: np.ndarray | None = None,
    ) -> None:
        """In-place Gauss-Seidel sweep over the planned levels.

        When ``moved`` is given (culling), vertices whose L1
        displacement exceeds ``cull_tol`` are flagged, mirroring the
        scalar per-vertex loop's test.
        """
        for level, nbrs, row_starts, divisor in self.levels:
            sums = np.add.reduceat(coords[nbrs], row_starts, axis=0)
            centroids = sums / divisor
            if moved is not None:
                shift = np.abs(centroids - coords[level]).sum(axis=1)
                moved[level[shift > cull_tol]] = True
            coords[level] = centroids


def smooth_wavefronts(
    coords: np.ndarray,
    xadj: np.ndarray,
    adjncy: np.ndarray,
    batched: np.ndarray,
    offsets: np.ndarray,
    *,
    cull_tol: float | None = None,
    moved: np.ndarray | None = None,
) -> None:
    """One-shot convenience wrapper: build a plan and execute it once.

    Callers that iterate should build the :class:`WavefrontPlan` once
    and call :meth:`WavefrontPlan.execute` per iteration.
    """
    WavefrontPlan(xadj, adjncy, batched, offsets).execute(
        coords, cull_tol=cull_tol, moved=moved
    )
