"""RDR — the paper's Reuse-Distance-Reducing ordering (Algorithm 2).

The ordering mimics the quality-greedy traversal of the Laplacian
smoother so that *storage order matches access order*:

1. take the worst-quality interior vertex not yet processed,
2. append its not-yet-ordered neighbors, sorted by increasing quality,
3. continue the chain at its worst-quality unprocessed neighbor,
4. when the chain dies out, return to step 1.

Theorem 1 of the paper proves every vertex is ordered exactly once; the
implementation asserts this invariant. One documented deviation: on
meshes where some vertex is unreachable through the interior-seeded
chains (possible only for pathological or disconnected inputs, which
Theorem 1's setting excludes), remaining vertices are appended in
increasing-quality order instead of being dropped.

The chain walk is also exposed as :func:`rdr_chain_heads` for tests and
for the reordering-cost accounting of Section 5.4 (the walk does the
same work as one smoothing iteration, which is the paper's cost
estimate for the pre-computation).

Batched engine
--------------
``get_ordering("rdr")`` runs the same algorithm through a compiled
*ordering plan* (see :class:`_RdrQualityPlan`): the quality-sorted
padded neighbor matrix, the seed cursor and the chain schedule are
built once per ``(graph, qualities)`` pair and cached on the graph, and
each call then *materializes* the permutation from the schedule with a
closed-form array computation — for every vertex ``w``, the chain step
that appends ``w`` is the earliest-processed head among ``w``'s
neighbors that precedes ``w``'s own head position, and ``w``'s rank
within that step is its position in the head's quality-sorted neighbor
row; one stable argsort of the fused ``(step, rank)`` key yields the
permutation.  The result is element-identical to :func:`rdr_ordering`
(chain heads are tie-free, so the claim is unambiguous); the
differential suite pins it across domains and seeds.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..mesh import TriMesh
from ..ordering.base import register_batched_ordering, register_ordering
from ..ordering.batched import FrontierPlan, frontier_plan
from ..quality import vertex_quality

__all__ = [
    "rdr_ordering",
    "sorted_neighbor_lists",
    "rdr_chain_heads",
    "first_touch_ordering",
    "batched_rdr_ordering",
    "batched_first_touch_ordering",
]


def sorted_neighbor_lists(
    mesh: TriMesh, qualities: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency with each row re-sorted by increasing quality.

    Returns ``(xadj, adjncy_by_quality)``. Ties break on vertex index
    (stable sort), making the ordering deterministic.
    """
    g = mesh.adjacency
    rows = np.repeat(
        np.arange(mesh.num_vertices, dtype=np.int64), g.degrees()
    )
    perm = np.lexsort((g.adjncy, qualities[g.adjncy], rows))
    return g.xadj, g.adjncy[perm]


@register_ordering("rdr")
def rdr_ordering(
    mesh: TriMesh,
    *,
    seed: int = 0,
    qualities: np.ndarray | None = None,
) -> np.ndarray:
    """Algorithm 2 of the paper. Returns ``order`` with ``order[new] = old``."""
    n = mesh.num_vertices
    if qualities is None:
        qualities = vertex_quality(mesh)
    qualities = np.asarray(qualities, dtype=np.float64)
    if qualities.shape != (n,):
        raise ValueError(f"qualities must have shape ({n},)")

    xadj, nbrs = sorted_neighbor_lists(mesh, qualities)
    processed = np.zeros(n, dtype=bool)
    ordered = np.zeros(n, dtype=bool)  # the paper's `sorted` array
    vnew = np.empty(n, dtype=np.int64)
    pos = 0

    interior = mesh.interior_vertices()
    seeds = interior[np.argsort(qualities[interior], kind="stable")]

    for i in seeds:
        if processed[i]:
            continue
        if not ordered[i]:
            vnew[pos] = i
            pos += 1
            ordered[i] = True
        processed[i] = True
        # l <- unprocessed neighbors of i, by increasing quality
        row = nbrs[xadj[i] : xadj[i + 1]]
        chain = row[~processed[row]]
        while chain.size:
            fresh = chain[~ordered[chain]]
            k = fresh.size
            if k:
                vnew[pos : pos + k] = fresh
                pos += k
                ordered[fresh] = True
            head = chain[0]
            processed[head] = True
            row = nbrs[xadj[head] : xadj[head + 1]]
            chain = row[~processed[row]]

    if pos < n:
        # Deviation from Theorem 1's setting (see module docstring):
        # append unreachable leftovers by increasing quality.
        rest = np.flatnonzero(~ordered)
        rest = rest[np.argsort(qualities[rest], kind="stable")]
        vnew[pos : pos + rest.size] = rest
        pos += rest.size
        ordered[rest] = True
    assert pos == n, "RDR must order every vertex exactly once"
    return vnew


@register_ordering("oracle")
def first_touch_ordering(
    mesh: TriMesh,
    *,
    seed: int = 0,
    qualities: np.ndarray | None = None,
) -> np.ndarray:
    """First-touch ("oracle") ordering: the alignment upper bound.

    Simulates the quality-greedy smoothing traversal and stores every
    vertex at the position of its *first access* (as a smoothed vertex
    or as a neighbor read). By construction the first smoothing
    iteration then reads memory in a nearly monotone stream, so this
    ordering bounds from above what any a-priori reordering — RDR
    included — can achieve for that traversal. RDR approximates it
    without simulating the smoother (Algorithm 2's walk is the cheap
    surrogate); the gap between ``rdr`` and ``oracle`` measured by the
    ablation benches quantifies the cost of that approximation.
    """
    # Imported here: traversal depends on quality, and the smoothing
    # package imports memsim — a top-level import would be cyclic.
    from ..smoothing.traversal import greedy_traversal

    n = mesh.num_vertices
    if qualities is None:
        qualities = vertex_quality(mesh)
    seq = greedy_traversal(mesh, np.asarray(qualities, dtype=np.float64))
    g = mesh.adjacency
    xadj, adjncy = g.xadj, g.adjncy
    seen = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    for v in seq.tolist():
        if not seen[v]:
            seen[v] = True
            order[pos] = v
            pos += 1
        nbrs = adjncy[xadj[v] : xadj[v + 1]]
        fresh = nbrs[~seen[nbrs]]
        k = fresh.size
        if k:
            order[pos : pos + k] = fresh
            seen[fresh] = True
            pos += k
    if pos < n:
        rest = np.flatnonzero(~seen)
        order[pos : pos + rest.size] = rest
        pos += rest.size
    assert pos == n
    return order


def rdr_chain_heads(
    mesh: TriMesh,
    *,
    qualities: np.ndarray | None = None,
) -> np.ndarray:
    """The sequence of chain heads (processed vertices) of Algorithm 2.

    This is exactly the vertex sequence a quality-greedy smoothing
    iteration would smooth, which is why the paper prices the reordering
    at "approximately one iteration" (Section 5.4). Exposed separately so
    tests can check that RDR's storage order tracks the traversal and so
    the greedy smoother and RDR stay behaviourally aligned.

    The heads are served from the cached ordering plan, so the walk is
    paid once per ``(graph, qualities)`` pair.
    """
    if mesh.num_vertices == 0:
        return np.empty(0, dtype=np.int64)
    if qualities is None:
        qualities = vertex_quality(mesh)
    plan = frontier_plan(mesh.adjacency)
    qplan = _quality_plan(mesh, plan, np.asarray(qualities, dtype=np.float64))
    heads, _ = qplan.rdr_schedule(plan)
    return heads.copy()


# ---------------------------------------------------------------------------
# Batched engine: compiled ordering plans + closed-form materialization
# ---------------------------------------------------------------------------
@dataclass
class _RdrQualityPlan:
    """Quality-keyed half of the RDR/oracle ordering plan.

    Holds everything Algorithm 2 derives from ``(graph, qualities)``:
    the quality rank of each vertex, the quality-sorted padded neighbor
    rows (the padded form of :func:`sorted_neighbor_lists`), each
    vertex's rank inside every neighbor's sorted row, and the argsorted
    seed cursor.  The chain schedules (RDR's head sequence and the
    oracle's greedy-traversal sequence) are computed on first use and
    memoized — they are the only sequential part of the algorithm, so a
    warm plan turns an ordering call into a fingerprint check plus a
    handful of array ops.

    One plan is cached per graph (keyed by a SHA-1 of the quality and
    interior-mask bytes); supplying different qualities simply rebuilds
    it.
    """

    digest: bytes
    qrank: np.ndarray        # (n+1,) quality rank; sentinel rank 2n
    sorted_rows: np.ndarray  # (n, dmax) quality-sorted padded rows
    sorted_pos: np.ndarray   # (n, dmax) rank of v in sorted row of its j-th nbr
    seeds: np.ndarray        # interior vertices by increasing quality
    interior: np.ndarray
    _rdr_heads: np.ndarray | None = field(default=None, repr=False)
    _rdr_starts: np.ndarray | None = field(default=None, repr=False)
    _oracle_heads: np.ndarray | None = field(default=None, repr=False)

    def rdr_schedule(self, plan: FrontierPlan) -> tuple[np.ndarray, np.ndarray]:
        """``(heads, chain_starts)`` of Algorithm 2's walk (memoized)."""
        if self._rdr_heads is None:
            proc = bytearray(plan.n + 1)
            proc[plan.n] = 1
            self._rdr_heads, self._rdr_starts = _chain_walk(
                self.sorted_rows, self.seeds, proc
            )
        return self._rdr_heads, self._rdr_starts

    def oracle_schedule(self, plan: FrontierPlan) -> np.ndarray:
        """The greedy-traversal sequence (memoized).

        Identical to ``greedy_traversal(mesh, qualities)``: only
        interior vertices are eligible, so the walk starts with every
        non-interior vertex pre-marked visited; probing the
        quality-sorted row then yields the worst-quality eligible
        unvisited neighbor, exactly the traversal's ``argmin``.
        """
        if self._oracle_heads is None:
            vis0 = np.ones(plan.n + 1, dtype=np.uint8)
            vis0[self.interior] = 0
            self._oracle_heads, _ = _chain_walk(
                self.sorted_rows, self.seeds, bytearray(vis0.tobytes())
            )
        return self._oracle_heads


def _chain_walk(
    sorted_rows: np.ndarray, seeds: np.ndarray, done: bytearray
) -> tuple[np.ndarray, np.ndarray]:
    """The sequential chain walk shared by RDR and the oracle.

    From each seed not yet marked in ``done``, follow the chain to the
    first unmarked entry of each head's quality-sorted row until the
    chain dies; restart at the next seed.  Returns ``(heads,
    chain_starts)`` with ``chain_starts`` indexing the first head of
    each chain.  This is the only O(n)-sequential piece of the batched
    engine; it runs once per plan and its result is memoized.

    The rows are walked through a flat ``array.array`` rather than
    ``tolist()``: a list-of-lists boxes every entry as a Python int
    (~200 MiB at a million vertices), while the flat buffer stays at 4
    bytes per entry and unboxes only the entries the walk touches.
    """
    n, dmax = sorted_rows.shape
    code = "i" if n < 2**31 else "q"
    dtype = np.int32 if code == "i" else np.int64
    rows = array(code)
    rows.frombytes(np.ascontiguousarray(sorted_rows, dtype=dtype).tobytes())
    seq = array(code)
    seq.frombytes(np.ascontiguousarray(seeds, dtype=dtype).tobytes())
    heads = array(code)
    starts = array(code)
    append = heads.append
    for s in seq:
        if done[s]:
            continue
        starts.append(len(heads))
        h = s
        while True:
            done[h] = 1
            append(h)
            base = h * dmax
            for j in range(base, base + dmax):
                w = rows[j]
                if not done[w]:
                    break
            else:
                break
            h = w
    return (
        np.frombuffer(heads, dtype=dtype).astype(np.int64),
        np.frombuffer(starts, dtype=dtype).astype(np.int64),
    )


def _quality_plan(
    mesh: TriMesh, plan: FrontierPlan, qualities: np.ndarray
) -> _RdrQualityPlan:
    """The (cached) quality-keyed plan for ``mesh.adjacency``."""
    graph = mesh.adjacency
    interior = mesh.interior_vertices()
    digest = hashlib.sha1(
        qualities.tobytes() + mesh.interior_mask.tobytes()
    ).digest()
    cached = getattr(graph, "_rdr_quality_plan", None)
    if cached is not None and cached.digest == digest:
        return cached
    n, dmax = plan.n, plan.dmax
    qrank = np.empty(n + 1, dtype=np.int64)
    qrank[np.argsort(qualities, kind="stable")] = np.arange(n, dtype=np.int64)
    qrank[n] = 2 * n  # sentinel sorts after every real vertex
    if dmax:
        # The n-by-dmax temporaries dominate the ordering stage's peak
        # RSS at million-vertex scale; each is freed as soon as the
        # next derivation no longer needs it, and the positional arrays
        # (values < dmax or < n) stay at 32 bits.
        ranks = qrank.take(plan.padded[:n].ravel()).reshape(n, dmax)
        argsorted = np.argsort(ranks, axis=1, kind="stable")
        del ranks
        sorted_rows = np.take_along_axis(plan.padded[:n], argsorted, axis=1)
        # Inverse of the row argsort: position of each adjacency column
        # in the sorted row, pushed through the reverse-edge map so
        # sorted_pos[v, j] = rank of v inside sorted_rows[padded[v, j]].
        inv = np.empty((n, dmax), dtype=np.int32)
        np.put_along_axis(
            inv,
            argsorted,
            np.broadcast_to(np.arange(dmax, dtype=np.int32), (n, dmax)),
            axis=1,
        )
        del argsorted
        flat = inv[plan.rows_r, plan.cols_r]
        del inv
        sorted_pos = np.zeros((n, dmax), dtype=np.int32)
        sorted_pos[plan.rows_r, plan.cols_r] = flat[plan.reverse_index()]
        del flat
    else:
        sorted_rows = np.empty((n, 0), dtype=np.int64)
        sorted_pos = np.empty((n, 0), dtype=np.int64)
    qplan = _RdrQualityPlan(
        digest=digest,
        qrank=qrank,
        sorted_rows=sorted_rows,
        sorted_pos=sorted_pos,
        seeds=interior[np.argsort(qualities[interior], kind="stable")],
        interior=interior,
    )
    object.__setattr__(graph, "_rdr_quality_plan", qplan)
    return qplan


def _materialize(
    plan: FrontierPlan,
    heads: np.ndarray,
    rank_in_head_row: np.ndarray,
    leftover_key: np.ndarray,
) -> np.ndarray:
    """Closed-form permutation from a chain schedule.

    Vertex ``w`` is appended by the earliest-processed head ``u`` among
    its neighbors with ``position(u) < position(w's own head slot)``;
    its rank within that append step is ``rank_in_head_row[w, j]``
    (``u = padded[w, j]``).  Heads with no earlier appending neighbor
    are the chain seeds — they self-append at their own step with rank
    0 (chain successors are always appended by their predecessor
    first).  Vertices never reached get ``leftover_key`` ranks past
    every chain step.  Head positions are unique, so the fused
    ``step * (dmax + 2) + rank`` key is tie-free and one stable argsort
    reproduces Algorithm 2's append order exactly.
    """
    n, dmax = plan.n, plan.dmax
    nonhead = n + 2
    ht = np.full(n + 1, nonhead, dtype=np.int64)
    ht[heads] = np.arange(heads.size, dtype=np.int64)
    step = np.empty(n, dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    if dmax:
        nbr_ht = ht.take(plan.padded[:n].ravel()).reshape(n, dmax)
        earlier = nbr_ht < ht[:n, None]
        big = (n + 3) * dmax
        best = np.where(
            earlier, nbr_ht * dmax + rank_in_head_row, big
        ).min(axis=1)
        step[:] = best // dmax
        rank[:] = best - step * dmax + 1  # append ranks start after self
        covered = best < big
    else:
        covered = np.zeros(n, dtype=bool)
    own = ht[:n]
    self_appended = ~covered & (own < nonhead)
    step[self_appended] = own[self_appended]
    rank[self_appended] = 0
    leftover = ~covered & ~self_appended
    step[leftover] = (n + 4) + leftover_key[leftover]
    rank[leftover] = 0
    return np.argsort(step * (dmax + 2) + rank, kind="stable")


def _observe_chains(starts: np.ndarray, total: int) -> None:
    if obs.is_enabled() and total:
        bounds = np.append(starts, total)
        obs.observe("ordering.chain_length", np.diff(bounds))


@register_batched_ordering("rdr")
def batched_rdr_ordering(
    mesh: TriMesh,
    *,
    seed: int = 0,
    qualities: np.ndarray | None = None,
) -> np.ndarray:
    """Plan-compiled Algorithm 2; identical to :func:`rdr_ordering`."""
    n = mesh.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if qualities is None:
        qualities = vertex_quality(mesh)
    qualities = np.asarray(qualities, dtype=np.float64)
    if qualities.shape != (n,):
        raise ValueError(f"qualities must have shape ({n},)")
    plan = frontier_plan(mesh.adjacency)
    qplan = _quality_plan(mesh, plan, qualities)
    heads, starts = qplan.rdr_schedule(plan)
    _observe_chains(starts, heads.size)
    return _materialize(plan, heads, qplan.sorted_pos, qplan.qrank[:n])


@register_batched_ordering("oracle")
def batched_first_touch_ordering(
    mesh: TriMesh,
    *,
    seed: int = 0,
    qualities: np.ndarray | None = None,
) -> np.ndarray:
    """Plan-compiled first-touch; identical to
    :func:`first_touch_ordering`.

    The reference appends each traversal vertex's unseen neighbors in
    adjacency order and leftovers in index order, so the materialization
    ranks by position in the *unsorted* row
    (:meth:`FrontierPlan.reverse_cols`) and uses a constant leftover
    key (the stable argsort then keeps index order).
    """
    n = mesh.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if qualities is None:
        qualities = vertex_quality(mesh)
    qualities = np.asarray(qualities, dtype=np.float64)
    plan = frontier_plan(mesh.adjacency)
    qplan = _quality_plan(mesh, plan, qualities)
    heads = qplan.oracle_schedule(plan)
    return _materialize(
        plan, heads, plan.reverse_cols(), np.zeros(n, dtype=np.int64)
    )
