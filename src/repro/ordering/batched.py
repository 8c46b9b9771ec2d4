"""Batched ordering engine: frontier-at-a-time NumPy traversals.

The reference traversal orderings (``bfs``/``rbfs``/``rcm``, and the
BFS sweeps inside Sloan and the pseudo-peripheral finder) walk the mesh
one vertex at a time through a Python deque.  On a 50k-vertex mesh that
is ~50k interpreter iterations per sweep — one to two orders of
magnitude slower than the vectorized smoothing engine the orderings are
supposed to be "nearly free" relative to (the paper's Section 5.4 cost
model).

This module re-executes the same traversals one *frontier* at a time:

* the adjacency is compiled once per graph into a :class:`FrontierPlan`
  — a padded ``(n+1, dmax)`` neighbor matrix (sentinel row ``n``) plus
  preallocated id arrays — cached on the :class:`~repro.mesh.CSRGraph`
  instance so repeated orderings of one mesh share it;
* each BFS level expands every frontier vertex at once (one ``take``
  over the padded matrix), removes already-visited candidates with a
  boolean mask, and resolves duplicate claims with a *stamp* trick:
  writing globally-unique ascending ids through reversed fancy indexing
  makes the **first** occurrence of each vertex in the parent-major
  candidate stream win, which is exactly the claim order of the
  reference deque (earliest parent, then adjacency position);
* RCM's by-degree expansion is reproduced with one stable
  ``np.lexsort`` on (parent rank, degree) per level — stability
  supplies the reference's adjacency-position tie-break;
* when scipy is importable, plain (non-by-degree, non-observed) BFS
  sweeps take a compiled fast path through
  ``scipy.sparse.csgraph.breadth_first_order``, whose FIFO/CSR-order
  traversal is claim-for-claim identical to the reference deque.  The
  dependency is optional — the frontier loop produces the same
  permutation without it, just a few times slower.

Every function here returns permutations **identical** to its reference
counterpart (the ordering differential suite pins this element-wise
across domains and seeds); the speedup on the 50k unit
square is gated by ``benchmarks/test_ordering_speedup.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..mesh import TriMesh
from ..mesh.csr import CSRGraph
from .base import register_batched_ordering

__all__ = [
    "FrontierPlan",
    "frontier_plan",
    "frontier_bfs",
    "frontier_component",
    "frontier_distances",
    "frontier_pseudo_peripheral",
    "batched_bfs_ordering",
    "batched_reverse_bfs_ordering",
    "batched_rcm_ordering",
    "release_plan_caches",
]


@dataclass
class FrontierPlan:
    """Precompiled, quality-independent traversal structures of a graph.

    Built once per :class:`~repro.mesh.CSRGraph` by
    :func:`frontier_plan` and cached on the graph instance, so every
    batched ordering (and every repeat of one) shares the compilation
    cost.  All arrays are int64:

    ``padded``
        ``(n+1, dmax)`` neighbor matrix; row ``v`` holds the neighbors
        of ``v`` in adjacency (ascending-index) order, right-padded
        with the sentinel ``n``.  Row ``n`` is all-sentinel, so chained
        ``take`` lookups never need bounds checks.
    ``rows_r`` / ``cols_r``
        CSR expansion coordinates: entry ``k`` of ``adjncy`` lives at
        ``padded[rows_r[k], cols_r[k]]``.
    ``asc`` / ``desc``
        Preallocated ascending/descending unique-id pools for the
        first-occurrence stamp dedup (sized so a full traversal never
        reuses an id).
    ``degrees``
        Vertex degrees with a trailing 0 for the sentinel row.
    """

    n: int
    m: int
    dmax: int
    padded: np.ndarray
    rows_r: np.ndarray
    cols_r: np.ndarray
    asc: np.ndarray
    desc: np.ndarray
    degrees: np.ndarray
    _reverse_index: np.ndarray | None = field(default=None, repr=False)
    _reverse_cols: np.ndarray | None = field(default=None, repr=False)
    _csgraph: object = field(default=False, repr=False)

    def csgraph(self):
        """The graph as a ``scipy.sparse.csr_matrix`` (int32 indices),
        or ``None`` when scipy is unavailable.  Built lazily, cached.

        scipy's compiled ``csgraph.breadth_first_order`` pops a FIFO
        queue and pushes neighbors in CSR index order — the exact claim
        order of the reference deque — so plain BFS sweeps can skip the
        per-level NumPy loop entirely.  The dependency is optional: the
        frontier loop below produces identical output without it.
        """
        if self._csgraph is False:
            try:
                from scipy.sparse import csr_matrix
            except ImportError:
                self._csgraph = None
            else:
                adjncy = self.padded[self.rows_r, self.cols_r]
                self._csgraph = csr_matrix(
                    (
                        np.ones(self.m, dtype=np.uint8),
                        adjncy.astype(np.int32),
                        np.concatenate(
                            ([0], np.cumsum(self.degrees[: self.n]))
                        ).astype(np.int32),
                    ),
                    shape=(self.n, self.n),
                )
        return self._csgraph

    def reverse_index(self) -> np.ndarray:
        """CSR index of each edge's mate: entry ``k`` of ``adjncy`` is
        the directed edge ``(rows_r[k], adjncy[k])``; ``reverse_index()[k]``
        is the CSR position of ``(adjncy[k], rows_r[k])``.  Exists
        because neighbor lists are sorted ascending, so
        ``lexsort((rows_r, adjncy))`` enumerates every mate in CSR
        order.  Built lazily, cached.
        """
        if self._reverse_index is None:
            adjncy = self.padded[self.rows_r, self.cols_r]
            self._reverse_index = np.lexsort((self.rows_r, adjncy))
        return self._reverse_index

    def reverse_cols(self) -> np.ndarray:
        """``(n, dmax)`` matrix of reverse-edge columns (built lazily).

        Entry ``[v, j]`` is the position of ``v`` inside the adjacency
        row of its ``j``-th neighbor — i.e. for the directed edge
        ``(v, w)`` at ``padded[v, j]``, the column of the mate edge
        ``(w, v)`` in row ``w``.
        """
        if self._reverse_cols is None:
            xadj = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(self.degrees[: self.n], out=xadj[1:])
            adjncy = self.padded[self.rows_r, self.cols_r]
            revcol = self.reverse_index() - xadj.take(adjncy)
            rc = np.zeros((self.n, max(self.dmax, 1)), dtype=np.int64)
            rc[self.rows_r, self.cols_r] = revcol
            self._reverse_cols = rc[:, : self.dmax]
        return self._reverse_cols


def frontier_plan(graph: CSRGraph) -> FrontierPlan:
    """The (cached) :class:`FrontierPlan` of a graph."""
    plan = getattr(graph, "_frontier_plan", None)
    if plan is not None:
        return plan
    n = graph.num_vertices
    deg = graph.degrees()
    dmax = int(deg.max()) if n else 0
    m = graph.adjncy.size
    padded = np.full((n + 1, dmax), n, dtype=np.int64)
    rows_r = np.repeat(np.arange(n, dtype=np.int64), deg)
    cols_r = np.arange(m, dtype=np.int64) - np.repeat(graph.xadj[:-1], deg)
    if dmax:
        padded[rows_r, cols_r] = graph.adjncy
    # A full traversal streams each directed edge at most once past the
    # unvisited prefilter; the +n+dmax slack covers restarts and the
    # final short level.
    pool = m + n + dmax + 1
    asc = np.arange(pool, dtype=np.int64)
    plan = FrontierPlan(
        n=n,
        m=m,
        dmax=dmax,
        padded=padded,
        rows_r=rows_r,
        cols_r=cols_r,
        asc=asc,
        desc=np.ascontiguousarray(asc[::-1]),
        degrees=np.append(deg, 0).astype(np.int64),
    )
    object.__setattr__(graph, "_frontier_plan", plan)
    return plan


def release_plan_caches(graph: CSRGraph) -> None:
    """Drop the memoized ordering plans pinned on ``graph``.

    A warm :class:`FrontierPlan` plus the RDR quality plan
    (``repro.core.rdr``) hold several hundred MiB of ``n``-by-``dmax``
    arrays at million-vertex scale, and they stay referenced for the
    graph's lifetime — the right trade for repeated orderings on one
    mesh (``compare_orderings``, warm lab workers), pure overhead for a
    one-shot summary pipeline whose peak RSS they would otherwise ride
    through.  The next ordering call on the graph simply rebuilds them.
    """
    for attr in ("_frontier_plan", "_rdr_quality_plan"):
        if getattr(graph, attr, None) is not None:
            object.__setattr__(graph, attr, None)


def _scratch(plan: FrontierPlan) -> tuple[np.ndarray, np.ndarray]:
    """Per-traversal scratch (bool mask, id gather) sized for the widest
    possible candidate stream, so levels run allocation-free."""
    cap = (plan.n + 1) * max(plan.dmax, 1)
    return np.empty(cap, dtype=bool), np.empty(cap, dtype=np.int64)


def _expand_level(plan, frontier, unvis, stamp, base, scratch, *, by_degree):
    """One BFS level: expand ``frontier``, claim fresh vertices.

    Returns ``(fresh, new_base)`` where ``fresh`` is in the reference
    claim order: earliest parent first, adjacency position within a
    parent (or stable by-degree within a parent for RCM).
    """
    ubuf, sbuf = scratch
    cand = plan.padded.take(frontier, axis=0).ravel()
    keep_unvis = unvis.take(cand, out=ubuf[: cand.size])
    cu = cand.compress(keep_unvis)
    k = cu.size
    if k == 0:
        return cu, base
    if by_degree:
        # Unvisited stream positions, grabbed before ``keep`` recycles
        # the front of the mask buffer.
        upos = np.flatnonzero(keep_unvis)
    # Stamp dedup: write descending ids through the *reversed* stream so
    # the first occurrence of each vertex holds its own ascending id.
    top = plan.asc.size - 1
    stamp[cu[::-1]] = plan.desc[top - base - k + 1 : top - base + 1]
    st = stamp.take(cu, out=sbuf[:k])
    keep = np.equal(st, plan.asc[base : base + k], out=ubuf[:k])
    fresh = cu.compress(keep)
    if by_degree and fresh.size > 1:
        # Parent rank of each kept candidate (stream position // dmax);
        # the stable lexsort reproduces the reference tie-breaking:
        # parent order, then degree, then adjacency position.
        parent = upos.compress(keep) // plan.dmax
        fresh = fresh[np.lexsort((plan.degrees.take(fresh), parent))]
    unvis[fresh] = False
    return fresh, base + k


def frontier_bfs(
    plan: FrontierPlan, start: int, *, by_degree: bool = False
) -> np.ndarray:
    """Whole-graph BFS visit order, restarting at the lowest unvisited
    vertex — element-identical to ``traversals._bfs_order``."""
    n = plan.n
    if not by_degree and not obs.is_enabled():
        graph = plan.csgraph()
        if graph is not None:
            from scipy.sparse.csgraph import breadth_first_order

            order = np.empty(n, dtype=np.int64)
            unvis = np.ones(n, dtype=bool)
            pos, s = 0, start
            while pos < n:
                comp = breadth_first_order(
                    graph, s, directed=True, return_predecessors=False
                )
                order[pos : pos + comp.size] = comp
                pos += comp.size
                if pos < n:
                    unvis[comp] = False
                    s = int(np.argmax(unvis))
            return order
    unvis = np.ones(n + 1, dtype=bool)
    unvis[n] = False
    stamp = np.empty(n + 1, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    scratch = _scratch(plan)
    pos = 0
    base = 0
    scan = 0
    widths: list[int] | None = [] if obs.is_enabled() else None
    s = start
    while True:
        unvis[s] = False
        order[pos] = s
        lo = pos
        pos += 1
        while lo < pos:
            fresh, base = _expand_level(
                plan, order[lo:pos], unvis, stamp, base, scratch,
                by_degree=by_degree,
            )
            if widths is not None and fresh.size:
                widths.append(fresh.size)
            lo = pos
            order[pos : pos + fresh.size] = fresh
            pos += fresh.size
        if pos == n:
            break
        while not unvis[scan]:
            scan += 1
        s = scan
    if widths:
        obs.observe("ordering.frontier_width", np.asarray(widths))
    return order


def frontier_component(
    plan: FrontierPlan, start: int
) -> tuple[np.ndarray, int]:
    """BFS visit order of ``start``'s component and its level count."""
    n = plan.n
    graph = plan.csgraph()
    if graph is not None:
        from scipy.sparse.csgraph import breadth_first_order

        comp, pred = breadth_first_order(
            graph, start, directed=True, return_predecessors=True
        )
        # Eccentricity = depth of the last-claimed vertex, read off the
        # predecessor chain (the start's predecessor is the <0 sentinel).
        v, nlev = int(comp[-1]), 1
        while pred[v] >= 0:
            v = int(pred[v])
            nlev += 1
        return comp.astype(np.int64), nlev
    unvis = np.ones(n + 1, dtype=bool)
    unvis[n] = False
    unvis[start] = False
    stamp = np.empty(n + 1, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    scratch = _scratch(plan)
    order[0] = start
    lo, pos, base, nlev = 0, 1, 0, 1
    while lo < pos:
        fresh, base = _expand_level(
            plan, order[lo:pos], unvis, stamp, base, scratch, by_degree=False
        )
        if fresh.size:
            nlev += 1
        lo = pos
        order[pos : pos + fresh.size] = fresh
        pos += fresh.size
    return order[:pos], nlev


def frontier_distances(plan: FrontierPlan, start: int) -> np.ndarray:
    """BFS distances from ``start`` (-1 outside its component) —
    element-identical to ``sloan._bfs_distance``."""
    n = plan.n
    dist = np.full(n + 1, -1, dtype=np.int64)
    unvis = np.ones(n + 1, dtype=bool)
    unvis[n] = False
    unvis[start] = False
    dist[start] = 0
    stamp = np.empty(n + 1, dtype=np.int64)
    frontier = np.array([start], dtype=np.int64)
    scratch = _scratch(plan)
    base, level = 0, 0
    while frontier.size:
        level += 1
        frontier, base = _expand_level(
            plan, frontier, unvis, stamp, base, scratch, by_degree=False
        )
        dist[frontier] = level
    return dist[:n]


def frontier_pseudo_peripheral(plan: FrontierPlan, start: int) -> int:
    """George-Liu pseudo-peripheral sweep — same vertex as
    ``traversals._pseudo_peripheral`` (its BFS pops match the frontier
    claim order, so the "farthest" vertex is the last one claimed)."""
    current = start
    last_ecc = -1
    for _ in range(8):
        comp, nlev = frontier_component(plan, current)
        ecc = nlev - 1
        if ecc <= last_ecc:
            break
        last_ecc = ecc
        current = int(comp[-1])
    return current


@register_batched_ordering("bfs")
def batched_bfs_ordering(
    mesh: TriMesh, *, seed: int = 0, qualities=None
) -> np.ndarray:
    """Frontier-at-a-time BFS; identical to the reference ``bfs``."""
    n = mesh.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    return frontier_bfs(frontier_plan(mesh.adjacency), int(seed) % n)


@register_batched_ordering("rbfs")
def batched_reverse_bfs_ordering(
    mesh: TriMesh, *, seed: int = 0, qualities=None
) -> np.ndarray:
    """Frontier BFS reversed; identical to the reference ``rbfs``."""
    return batched_bfs_ordering(mesh, seed=seed, qualities=qualities)[::-1].copy()


@register_batched_ordering("rcm")
def batched_rcm_ordering(
    mesh: TriMesh, *, seed: int = 0, qualities=None
) -> np.ndarray:
    """Frontier-at-a-time RCM; identical to the reference ``rcm``."""
    n = mesh.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    plan = frontier_plan(mesh.adjacency)
    start = frontier_pseudo_peripheral(plan, int(seed) % n)
    return frontier_bfs(plan, start, by_degree=True)[::-1].copy()
