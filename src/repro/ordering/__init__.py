"""Vertex orderings: registry, the paper's baselines, and extras.

Importing this package registers: ``ori``, ``random``, ``bfs``, ``rbfs``,
``dfs``, ``rcm``, ``hilbert``, ``morton``, ``qsort``, ``degree``. The
paper's contribution, ``rdr``, registers on import of :mod:`repro.core`
(or the top-level :mod:`repro` package).

``get_ordering(name)`` resolves the vectorized frontier/plan-based
implementation (:mod:`~repro.ordering.batched`) when one is registered,
with a guaranteed-identical permutation; names without a batched
variant are served by their (already array-based) reference function,
and every reference function stays registered in ``ORDERINGS`` as a
test oracle.
"""

from .base import (
    BATCHED_ORDERINGS,
    ORDERINGS,
    OrderingFn,
    apply_ordering,
    check_permutation,
    get_ordering,
    invert_permutation,
    register_batched_ordering,
    register_ordering,
)
from .quality_orders import degree_ordering, quality_sort_ordering
from .sfc import hilbert_indices, hilbert_ordering, morton_ordering
from .sloan import batched_sloan_ordering, sloan_ordering
from .spectral import fiedler_vector, spectral_ordering
from .traversals import (
    bfs_ordering,
    dfs_ordering,
    ori_ordering,
    random_ordering,
    rcm_ordering,
    reverse_bfs_ordering,
)
from .batched import (
    FrontierPlan,
    batched_bfs_ordering,
    batched_rcm_ordering,
    batched_reverse_bfs_ordering,
    frontier_bfs,
    frontier_distances,
    frontier_plan,
    frontier_pseudo_peripheral,
    release_plan_caches,
)

__all__ = [
    "BATCHED_ORDERINGS",
    "FrontierPlan",
    "ORDERINGS",
    "OrderingFn",
    "apply_ordering",
    "batched_bfs_ordering",
    "batched_rcm_ordering",
    "batched_reverse_bfs_ordering",
    "batched_sloan_ordering",
    "bfs_ordering",
    "check_permutation",
    "degree_ordering",
    "dfs_ordering",
    "fiedler_vector",
    "frontier_bfs",
    "frontier_distances",
    "frontier_plan",
    "release_plan_caches",
    "frontier_pseudo_peripheral",
    "get_ordering",
    "hilbert_indices",
    "hilbert_ordering",
    "invert_permutation",
    "morton_ordering",
    "ori_ordering",
    "quality_sort_ordering",
    "random_ordering",
    "rcm_ordering",
    "register_batched_ordering",
    "register_ordering",
    "reverse_bfs_ordering",
    "sloan_ordering",
    "spectral_ordering",
]
