"""Unit tests for reuse-distance analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import (
    COLD,
    bucketed_series,
    hits_under_capacity,
    max_elements_within,
    profile_from_distances,
    reuse_distances,
)
from repro.memsim.reuse import count_below

from .oracles import fenwick_reuse_distances


def brute_force_reuse(stream):
    """O(n^2) reference implementation."""
    out = []
    last = {}
    for t, x in enumerate(stream):
        if x in last:
            distinct = len(set(stream[last[x] + 1 : t]))
            out.append(distinct)
        else:
            out.append(COLD)
        last[x] = t
    return np.array(out)


class TestReuseDistances:
    def test_immediate_reuse_is_zero(self):
        assert reuse_distances(np.array([7, 7])).tolist() == [COLD, 0]

    def test_classic_example(self):
        # a b c a : reuse of a sees {b, c} in between -> distance 2.
        out = reuse_distances(np.array([1, 2, 3, 1]))
        assert out.tolist() == [COLD, COLD, COLD, 2]

    def test_repeated_intermediate_counted_once(self):
        # a b b b a : only one distinct element in between.
        out = reuse_distances(np.array([1, 2, 2, 2, 1]))
        assert out.tolist() == [COLD, COLD, 0, 0, 1]

    def test_all_cold(self):
        out = reuse_distances(np.arange(10))
        assert (out == COLD).all()

    def test_cyclic_stream(self):
        # Repeating 0..4: every reuse sees the 4 other elements.
        stream = np.tile(np.arange(5), 3)
        out = reuse_distances(stream)
        assert (out[5:] == 4).all()

    def test_matches_brute_force(self, rng):
        stream = rng.integers(0, 20, 300).tolist()
        fast = reuse_distances(np.array(stream))
        slow = brute_force_reuse(stream)
        assert np.array_equal(fast, slow)

    def test_arbitrary_ids_compressed(self):
        out = reuse_distances(np.array([10**12, -5, 10**12]))
        assert out.tolist() == [COLD, COLD, 1]

    def test_empty_stream(self):
        assert reuse_distances(np.array([], dtype=int)).size == 0


def brute_force_count_below(values, lo, hi, bound):
    return np.array(
        [int(np.count_nonzero(values[a:b] < c)) for a, b, c in zip(lo, hi, bound)],
        dtype=np.int64,
    )


@st.composite
def count_queries(draw):
    """Values plus queries that include empty, full and tail ranges and
    bounds below, inside and above the value range."""
    n = draw(st.integers(min_value=1, max_value=70))
    top = draw(st.sampled_from([0, 1, 5, n, 3 * n + 7]))
    values = np.asarray(
        draw(st.lists(st.integers(0, top), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    position = st.integers(0, n)
    pairs = draw(st.lists(st.tuples(position, position), max_size=40))
    pairs += [(n, n), (0, n), (0, 0)]
    lo = np.array([min(a, b) for a, b in pairs], dtype=np.int64)
    hi = np.array([max(a, b) for a, b in pairs], dtype=np.int64)
    bound = np.asarray(
        draw(
            st.lists(
                st.integers(-3, top + 10),
                min_size=lo.size,
                max_size=lo.size,
            )
        ),
        dtype=np.int64,
    )
    return values, lo, hi, bound


def shuffled_cycles(k, rounds, seed=0):
    """Every round a fresh permutation of ``k`` items: gaps spread over
    1 .. 2k - 1 with long spans."""
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.permutation(k) for _ in range(rounds)])


def geometric_cycles(levels, rounds, seed=0):
    """Shuffled cycles whose lengths double: a geometric gap spectrum."""
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [
            rng.permutation(2**j)
            for j in range(1, levels + 1)
            for _ in range(rounds)
        ]
    )


def nested_mirror(m, copies=2):
    """``0 1 .. m-1 m-1 .. 1 0`` repeated: every reuse gap is distinct."""
    a = np.arange(m)
    return np.tile(np.concatenate([a, a[::-1]]), copies)


class TestCountBelow:
    @given(count_queries())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, case):
        values, lo, hi, bound = case
        got = count_below(values, lo, hi, bound)
        assert got.dtype == np.int64
        assert np.array_equal(got, brute_force_count_below(values, lo, hi, bound))

    def test_single_value(self):
        values = np.array([4])
        lo, hi = np.array([0, 0, 1, 0]), np.array([1, 0, 1, 1])
        bound = np.array([5, 5, 5, 4])
        assert count_below(values, lo, hi, bound).tolist() == [1, 0, 0, 0]

    def test_all_equal_values(self):
        values = np.full(9, 3)
        lo, hi = np.array([0, 2, 9]), np.array([9, 7, 9])
        assert count_below(values, lo, hi, np.array([4, 3, 4])).tolist() == [
            9,
            0,
            0,
        ]

    def test_bounds_above_maximum_count_the_range(self):
        values = np.array([0, 7, 2, 7, 1])
        lo, hi = np.array([0, 1]), np.array([5, 4])
        bound = np.array([10**15, 8])
        assert count_below(values, lo, hi, bound).tolist() == [5, 3]

    def test_no_queries_or_no_values(self):
        empty = np.empty(0, dtype=np.int64)
        assert count_below(np.arange(5), empty, empty, empty).size == 0
        zero = np.zeros(2, dtype=np.int64)
        assert count_below(empty, zero, zero, zero + 3).tolist() == [0, 0]

    def test_negative_values_rejected(self):
        one = np.array([1])
        with pytest.raises(ValueError, match="non-negative"):
            count_below(np.array([-1, 2]), one * 0, one, one)


class TestReuseAgainstOracles:
    @given(st.lists(st.integers(0, 12), max_size=200))
    @settings(max_examples=120, deadline=None)
    def test_matches_fenwick_and_brute_force(self, stream):
        arr = np.asarray(stream, dtype=np.int64)
        got = reuse_distances(arr)
        assert np.array_equal(got, fenwick_reuse_distances(arr))
        assert np.array_equal(got, brute_force_reuse(stream))

    @pytest.mark.parametrize(
        "stream",
        [
            shuffled_cycles(300, 3),
            geometric_cycles(8, 4),
            nested_mirror(300),
        ],
        ids=["shuffled-cycles", "geometric-cycles", "nested-mirror"],
    )
    def test_adversarial_gap_spectra(self, stream):
        # Wide spectra of distinct gaps with long spans: the shape that
        # made a per-gap-class sweep quadratic.
        got = reuse_distances(stream)
        assert np.array_equal(got, fenwick_reuse_distances(stream))
        assert np.array_equal(got, brute_force_reuse(stream.tolist()))


class TestProfile:
    def test_quantile_definition(self):
        # Population 1..10: the paper's X-quantile is the smallest value
        # with at least proportion X at or below it.
        dists = np.arange(1, 11)
        prof = profile_from_distances(dists)
        assert prof.q50 == 5
        assert prof.q75 == 8  # ceil(0.75*10) = 8th smallest
        assert prof.q90 == 9
        assert prof.q100 == 10

    def test_cold_excluded(self):
        dists = np.array([COLD, COLD, 4, 6])
        prof = profile_from_distances(dists)
        assert prof.num_cold == 2
        assert prof.num_reuses == 2
        assert prof.mean == 5.0

    def test_all_cold_profile(self):
        prof = profile_from_distances(np.array([COLD, COLD]))
        assert prof.num_cold == 2
        assert np.isnan(prof.mean)

    def test_as_row_keys(self):
        prof = profile_from_distances(np.array([1, 2, 3]))
        assert set(prof.as_row()) == {
            "accesses",
            "cold",
            "mean",
            "50%",
            "75%",
            "90%",
            "100%",
        }


class TestBucketedSeries:
    def test_bucket_count(self):
        dists = np.arange(100)
        xs, ys = bucketed_series(dists, 10)
        assert xs.size == ys.size == 10

    def test_means_correct(self):
        dists = np.array([2.0, 4.0, 10.0, 20.0])
        xs, ys = bucketed_series(dists, 2)
        assert ys.tolist() == [3.0, 15.0]

    def test_cold_skipped(self):
        dists = np.array([COLD, 6.0, COLD, COLD])
        xs, ys = bucketed_series(dists, 2)
        assert ys[0] == 6.0 and np.isnan(ys[1])

    def test_empty(self):
        xs, ys = bucketed_series(np.array([]), 5)
        assert xs.size == ys.size == 0


class TestCapacityModel:
    def test_hits_under_capacity(self):
        dists = np.array([COLD, 0, 3, 10, 5])
        assert hits_under_capacity(dists, 6) == 3  # 0, 3, 5 hit
        assert hits_under_capacity(dists, 1) == 1  # only the 0

    def test_max_elements_inverse(self):
        dists = np.array([COLD, 1, 2, 3, 4, 5])
        # If exactly 2 accesses missed, they were distances {4, 5}: the
        # implied capacity is 4.
        assert max_elements_within(dists, 2) == 4

    def test_zero_misses_means_everything_fits(self):
        dists = np.array([COLD, 1, 2, 7])
        assert max_elements_within(dists, 0) == 8

    def test_all_missed(self):
        dists = np.array([COLD, 3, 9])
        assert max_elements_within(dists, 2) == 3

    def test_misses_clamped(self):
        dists = np.array([COLD, 3])
        assert max_elements_within(dists, 100) == 3
