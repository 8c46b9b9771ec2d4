"""Laplacian mesh smoothing: kernels, traversals, trace generation."""

from .laplacian import (
    DEFAULT_CONVERGENCE_TOL,
    LaplacianSmoother,
    SmoothingResult,
    laplacian_smooth,
    smooth_iteration_jacobi,
)
from .trace import (
    accesses_per_vertex,
    append_smooth_accesses,
    append_smooth_accesses_batch,
    trace_for_traversal,
)
from .traversal import TRAVERSALS, greedy_traversal, make_traversal, storage_traversal
from .vectorized import WavefrontPlan, csr_segment_mean, smooth_wavefronts

__all__ = [
    "DEFAULT_CONVERGENCE_TOL",
    "LaplacianSmoother",
    "SmoothingResult",
    "TRAVERSALS",
    "WavefrontPlan",
    "accesses_per_vertex",
    "append_smooth_accesses",
    "append_smooth_accesses_batch",
    "csr_segment_mean",
    "greedy_traversal",
    "laplacian_smooth",
    "make_traversal",
    "smooth_iteration_jacobi",
    "smooth_wavefronts",
    "storage_traversal",
    "trace_for_traversal",
]
