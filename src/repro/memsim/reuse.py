"""Exact reuse-distance analysis as whole-array dominance counting.

The reuse distance (stack distance under LRU) of an access is the number
of *distinct* items referenced since the previous access to the same
item; first accesses are *cold* and carry no distance. Under a
fully-associative LRU cache of capacity C, an access hits iff its reuse
distance is < C — which is the first-order model the paper builds its
whole analysis on (Section 3.1).

With ``p = prev[t]`` the previous access to the same item, the items
touched in ``(p, t)`` are counted once each at their *first* access
inside the window — the accesses ``j`` whose own previous occurrence
lies before the window:

    distance(t) = #{j : p < j < t, prev[j] < p}

That is a two-sided dominance count (a position range crossed with a
value threshold), answered for every access at once by
:func:`count_below`. The kernel is a wavelet matrix walked level by
level without storing the levels: one stable 0/1 partition of the
values per bit, one ``cumsum`` rank array, and every query's range
remapped through it. Its cost is O((n + q) log n) whatever the access
pattern — no gap spectrum or locality degrades it — and its working
memory is O(n + q). The batched cache simulator answers its exact
within-set fallback with the same kernel
(:meth:`repro.memsim.batched._LevelStream._window_distances`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "count_below",
    "reuse_distances",
    "ReuseProfile",
    "profile_from_distances",
    "bucketed_series",
    "hits_under_capacity",
    "max_elements_within",
]

COLD = -1  # sentinel distance for first-touch accesses


def previous_occurrence(stream: np.ndarray) -> np.ndarray:
    """Index of the previous access to the same item, -1 for first touches.

    Works on any integer id stream; the result indexes into ``stream``.
    """
    stream = np.asarray(stream)
    n = stream.size
    prev = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return prev
    # Stable sort groups equal ids while keeping time order inside each
    # group, so the predecessor in sort order is the previous occurrence.
    order = np.argsort(stream, kind="stable")
    sorted_ids = stream[order]
    same = sorted_ids[1:] == sorted_ids[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def count_below(
    values: np.ndarray, lo: np.ndarray, hi: np.ndarray, bound: np.ndarray
) -> np.ndarray:
    """``#{lo[q] <= j < hi[q] : values[j] < bound[q]}`` for every query.

    ``values`` must be non-negative integers; ``lo``/``hi`` are position
    bounds with ``0 <= lo <= hi <= values.size``; ``bound`` is any integer
    (non-positive bounds count nothing, bounds above the maximum count
    the whole range). Returns int64 counts.

    Bits are visited from the most significant down. At each level a
    query's range covers exactly the values that agree with ``bound`` on
    the bits above; those with a 0 at the current bit where ``bound`` has
    a 1 are all below it and are counted, and the range follows the
    bound's bit into the zeros (front) or ones (back) of the stable
    partition, through the prefix count of zeros.
    """
    values = np.asarray(values)
    lo, hi, bound = np.asarray(lo), np.asarray(hi), np.asarray(bound)
    out = np.zeros(lo.size, dtype=np.int64)
    live = lo < hi
    if values.size == 0 or not live.any():
        return out
    if not live.all():  # empty windows count nothing: drop them up front
        out[live] = count_below(values, lo[live], hi[live], bound[live])
        return out
    if int(values.min()) < 0:
        raise ValueError("count_below needs non-negative values")
    n = values.size
    top = int(values.max()) + 1
    idx = np.int32 if max(n, top) < np.iinfo(np.int32).max else np.int64
    # values < bound iff values < clip(bound, 0, max + 1), so every bound
    # fits in the bit length of max + 1: one level per bit.
    bnd = np.clip(bound, 0, top).astype(idx)
    lo, hi = lo.astype(idx), hi.astype(idx)
    cur = values.astype(idx)
    zeros = np.zeros(n + 1, dtype=idx)  # zeros[i] = 0-bits in cur[:i]
    for k in range(top.bit_length() - 1, -1, -1):
        is0 = ((cur >> k) & 1) == 0
        np.cumsum(is0, out=zeros[1:])
        nz = zeros[-1]
        z_lo, z_hi = zeros[lo], zeros[hi]
        up = ((bnd >> k) & 1).astype(bool)
        out += np.where(up, z_hi - z_lo, 0)
        lo = np.where(up, lo - z_lo + nz, z_lo)
        hi = np.where(up, hi - z_hi + nz, z_hi)
        if k:
            cur = np.concatenate((cur[is0], cur[~is0]))
    return out


def reuse_distances(stream: np.ndarray) -> np.ndarray:
    """Reuse distance of every access in an item-id stream.

    Parameters
    ----------
    stream:
        1-D integer array of item ids (cache-line ids, element ids, ...).
        Ids may be arbitrary integers; they are compressed internally.

    Returns
    -------
    int64 array of the same length; ``COLD`` (-1) marks first accesses.
    """
    stream = np.asarray(stream)
    n = stream.size
    out = np.full(n, COLD, dtype=np.int64)
    if n == 0:
        return out
    prev = previous_occurrence(stream)
    t_idx = np.nonzero(prev >= 0)[0]
    if t_idx.size == 0:
        return out
    p_idx = prev[t_idx]
    # prev[j] < p  <=>  prev[j] + 1 < p + 1, with cold (-1) mapped to 0.
    out[t_idx] = count_below(prev + 1, p_idx + 1, t_idx, p_idx + 1)
    return out


@dataclass(frozen=True)
class ReuseProfile:
    """Summary statistics of a reuse-distance population.

    ``quantiles`` follows the paper's definition: the X-quantile is the
    smallest value such that at least a proportion X of the population
    lies at or below it. Cold accesses are excluded from the population
    (they have no distance) but counted in ``num_cold``.
    """

    num_accesses: int
    num_cold: int
    mean: float
    q50: int
    q75: int
    q90: int
    q100: int

    @property
    def num_reuses(self) -> int:
        return self.num_accesses - self.num_cold

    def as_row(self) -> dict:
        return {
            "accesses": self.num_accesses,
            "cold": self.num_cold,
            "mean": self.mean,
            "50%": self.q50,
            "75%": self.q75,
            "90%": self.q90,
            "100%": self.q100,
        }


def profile_from_distances(distances: np.ndarray) -> ReuseProfile:
    """Build a :class:`ReuseProfile` from :func:`reuse_distances` output."""
    distances = np.asarray(distances)
    warm = distances[distances != COLD]
    n = distances.size
    if warm.size == 0:
        return ReuseProfile(n, n, float("nan"), 0, 0, 0, 0)
    srt = np.sort(warm)

    def q(x: float) -> int:
        # Smallest value with at least proportion x of the population
        # at or below it.
        k = max(0, min(srt.size - 1, int(np.ceil(x * srt.size)) - 1))
        return int(srt[k])

    return ReuseProfile(
        num_accesses=n,
        num_cold=int(n - warm.size),
        mean=float(warm.mean()),
        q50=q(0.50),
        q75=q(0.75),
        q90=q(0.90),
        q100=int(srt[-1]),
    )


def bucketed_series(
    distances: np.ndarray, num_buckets: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Average reuse distance per time bucket (Figures 1 and 6).

    Splits the access stream into ``num_buckets`` equal spans and
    averages the (warm) distances inside each; cold accesses are skipped.
    Returns ``(bucket_centers, means)``; buckets with no warm access get
    NaN.
    """
    distances = np.asarray(distances, dtype=np.float64)
    n = distances.size
    if n == 0:
        return np.empty(0), np.empty(0)
    num_buckets = min(num_buckets, n)
    edges = np.linspace(0, n, num_buckets + 1).astype(np.int64)
    centers = 0.5 * (edges[:-1] + edges[1:])
    # Masked segment sums/counts in one pass each; num_buckets <= n keeps
    # the edges strictly increasing, which reduceat requires.
    warm = distances != COLD
    sums = np.add.reduceat(np.where(warm, distances, 0.0), edges[:-1])
    cnts = np.add.reduceat(warm.astype(np.int64), edges[:-1])
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(cnts > 0, sums / cnts, np.nan)
    return centers, means


def hits_under_capacity(distances: np.ndarray, capacity: int) -> int:
    """Accesses that hit a fully-associative LRU cache of ``capacity`` lines.

    The theoretical model of Section 3.1: an access hits iff its reuse
    distance is strictly below the capacity; cold accesses always miss.
    """
    distances = np.asarray(distances)
    return int(np.count_nonzero((distances != COLD) & (distances < capacity)))


def max_elements_within(distances: np.ndarray, num_misses: int) -> int:
    """Invert the model: capacity that would leave exactly ``num_misses``.

    The paper's Table 3 estimate: assuming the ``num_misses`` accesses
    with the largest reuse distances are the ones that missed, the
    implied capacity is the smallest distance among them (i.e. elements
    up to that distance fit). Cold accesses are excluded, mirroring the
    paper's subtraction of compulsory misses.
    """
    distances = np.asarray(distances)
    warm = np.sort(distances[distances != COLD])
    if warm.size == 0:
        return 0
    num_misses = int(min(max(num_misses, 0), warm.size))
    if num_misses == 0:
        return int(warm[-1]) + 1
    return int(warm[warm.size - num_misses])
