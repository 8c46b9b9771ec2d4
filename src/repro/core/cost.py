"""Reordering-cost accounting (Section 5.4 of the paper).

The paper argues RDR's pre-computation "has a cost of approximately one
iteration with the ORI ordering", so with a 20-30% per-iteration gain
the reordering pays for itself after ~4 iterations. This module measures
both sides of that trade on a given mesh:

* the wall-clock cost of computing an ordering,
* the wall-clock and modeled cost of one smoothing iteration,
* the break-even iteration count implied by a measured gain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..mesh import TriMesh
from ..ordering import get_ordering, release_plan_caches
from ..quality import vertex_quality
from ..smoothing import LaplacianSmoother

__all__ = ["ReorderingCost", "measure_reordering_cost", "break_even_iterations"]


@dataclass(frozen=True)
class ReorderingCost:
    """Measured cost of a reordering relative to one smoothing iteration."""

    ordering: str
    mesh_name: str
    ordering_seconds: float
    iteration_seconds: float

    @property
    def iterations_equivalent(self) -> float:
        """Reordering cost expressed in smoothing iterations."""
        if self.iteration_seconds == 0.0:
            return float("inf")
        return self.ordering_seconds / self.iteration_seconds


def measure_reordering_cost(
    mesh: TriMesh,
    ordering: str,
    *,
    repeats: int = 3,
    traversal: str = "greedy",
) -> ReorderingCost:
    """Time the ordering computation against one smoothing iteration.

    Both sides are measured with the quality computation shared (the
    smoother needs qualities anyway, so RDR's quality sort rides along
    for free — the paper's argument for the "one iteration" price).
    Every repeat drops the graph's memoized ordering plans first, so
    the ordering is priced cold — plan building and RDR's chain walk
    included — as a pipeline that reorders once pays it. The other side
    is one full sweep of the smoother.
    """
    qualities = vertex_quality(mesh)
    fn = get_ordering(ordering)

    best_order = float("inf")
    for _ in range(max(1, repeats)):
        release_plan_caches(mesh.adjacency)
        t0 = time.perf_counter()
        fn(mesh, qualities=qualities)
        best_order = min(best_order, time.perf_counter() - t0)

    smoother = LaplacianSmoother(
        traversal=traversal, max_iterations=1, tol=-np.inf
    )
    best_iter = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        smoother.smooth(mesh)
        best_iter = min(best_iter, time.perf_counter() - t0)

    return ReorderingCost(
        ordering=ordering,
        mesh_name=mesh.name,
        ordering_seconds=best_order,
        iteration_seconds=best_iter,
    )


def break_even_iterations(
    *,
    reorder_cost_iterations: float,
    gain_fraction: float,
) -> float:
    """Iterations after which a reordering has paid for itself.

    With a pre-computation worth ``c`` baseline iterations and a
    per-iteration gain ``g`` (fraction of baseline iteration time), the
    reordered run is ahead once ``k * g >= c``, i.e. ``k = c / g``.
    """
    if not 0.0 < gain_fraction < 1.0:
        raise ValueError("gain_fraction must be in (0, 1)")
    if reorder_cost_iterations < 0.0:
        raise ValueError("reorder_cost_iterations must be >= 0")
    return reorder_cost_iterations / gain_fraction
