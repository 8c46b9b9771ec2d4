"""Slow exact reference form of the smoother the wavefront sweep is
checked against (imported by the tests and by the engine benchmark)."""

from __future__ import annotations

from repro.smoothing import LaplacianSmoother, SmoothingResult
from repro.smoothing.trace import append_smooth_accesses


class ScalarSmoother(LaplacianSmoother):
    """The smoother with the scalar per-vertex loop the paper's access
    model is written against: one Gauss-Seidel update and one
    :func:`append_smooth_accesses` call per vertex, in traversal order.

    Everything else (traversals, quality, culling, convergence) is the
    production driver, so a difference from :class:`LaplacianSmoother`
    is a difference in the sweep or the trace emission alone.
    """

    @staticmethod
    def _emit(builder, xadj, adjncy, seq) -> None:
        for v in seq.tolist():
            append_smooth_accesses(builder, xadj, adjncy, v)

    @staticmethod
    def _gauss_seidel_sweep(xadj, adjncy):
        def sweep(coords, seq, cull_tol, moved) -> None:
            for v in seq.tolist():
                lo, hi = xadj[v], xadj[v + 1]
                if hi > lo:
                    new = coords[adjncy[lo:hi]].mean(axis=0)
                    if moved is not None and (
                        abs(new[0] - coords[v, 0]) + abs(new[1] - coords[v, 1])
                        > cull_tol
                    ):
                        moved[v] = True
                    coords[v] = new

        return sweep


def scalar_smooth(mesh, **kwargs) -> SmoothingResult:
    """``laplacian_smooth`` on the scalar loop."""
    return ScalarSmoother(**kwargs).smooth(mesh)

