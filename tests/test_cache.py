"""Tests for the LRU segment cache.

Includes a hypothesis property suite comparing the extent-granular cache
against a reference model: a dict of event → last-access time with
pointwise LRU eviction.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import CacheError
from repro.data.cache import LRUSegmentCache
from repro.data.intervals import Interval


class TestBasics:
    def test_insert_and_query(self):
        cache = LRUSegmentCache(100)
        cache.insert(Interval(10, 30), now=1.0)
        assert cache.used_events == 20
        assert cache.covers(Interval(10, 30))
        assert cache.covers(Interval(15, 25))
        assert not cache.covers(Interval(5, 15))
        assert cache.cached_events(Interval(0, 100)) == 20

    def test_cached_parts(self):
        cache = LRUSegmentCache(100)
        cache.insert(Interval(0, 10), now=1.0)
        cache.insert(Interval(20, 30), now=2.0)
        parts = cache.cached_parts(Interval(5, 25))
        assert parts.pairs() == [(5, 10), (20, 25)]

    def test_zero_capacity_accepts_nothing(self):
        cache = LRUSegmentCache(0)
        cache.insert(Interval(0, 10), now=1.0)
        assert cache.used_events == 0

    def test_negative_capacity_raises(self):
        with pytest.raises(CacheError):
            LRUSegmentCache(-1)

    def test_empty_insert_is_noop(self):
        cache = LRUSegmentCache(10)
        cache.insert(Interval(5, 5), now=1.0)
        assert cache.used_events == 0

    def test_overwrite_same_range_keeps_size(self):
        cache = LRUSegmentCache(100)
        cache.insert(Interval(0, 50), now=1.0)
        cache.insert(Interval(0, 50), now=2.0)
        assert cache.used_events == 50
        cache.check_invariants()

    def test_oversized_insert_keeps_rightmost(self):
        cache = LRUSegmentCache(10)
        cache.insert(Interval(0, 100), now=1.0)
        assert cache.coverage.pairs() == [(90, 100)]

    def test_free_events(self):
        cache = LRUSegmentCache(100)
        cache.insert(Interval(0, 30), now=1.0)
        assert cache.free_events == 70


class TestLRUEviction:
    def test_oldest_evicted_first(self):
        cache = LRUSegmentCache(100)
        cache.insert(Interval(0, 60), now=1.0)
        cache.insert(Interval(100, 160), now=2.0)
        # 20 events over capacity: the leftmost 20 of the older extent go.
        assert cache.used_events == 100
        assert not cache.contains_point(0)
        assert cache.contains_point(20)
        assert cache.covers(Interval(100, 160))

    def test_touch_protects_from_eviction(self):
        cache = LRUSegmentCache(100)
        cache.insert(Interval(0, 50), now=1.0)
        cache.insert(Interval(100, 150), now=2.0)
        cache.touch(Interval(0, 50), now=3.0)  # refresh the older extent
        cache.insert(Interval(200, 250), now=4.0)
        assert cache.covers(Interval(0, 50))  # survived
        assert not cache.covers(Interval(100, 150))  # evicted instead

    def test_partial_eviction_keeps_rightmost_of_lru(self):
        cache = LRUSegmentCache(100)
        cache.insert(Interval(0, 80), now=1.0)
        cache.insert(Interval(100, 140), now=2.0)
        # 20 over: LRU extent loses its *left* 20 events.
        assert cache.coverage.pairs() == [(20, 80), (100, 140)]

    def test_freshly_inserted_never_self_evicts(self):
        cache = LRUSegmentCache(100)
        cache.insert(Interval(0, 100), now=1.0)
        cache.insert(Interval(200, 260), now=1.0)  # same timestamp tie
        assert cache.covers(Interval(200, 260))
        assert cache.used_events == 100

    def test_invalidate(self):
        cache = LRUSegmentCache(100)
        cache.insert(Interval(0, 50), now=1.0)
        dropped = cache.invalidate(Interval(10, 20))
        assert dropped == 10
        assert cache.coverage.pairs() == [(0, 10), (20, 50)]

    def test_clear(self):
        cache = LRUSegmentCache(100)
        cache.insert(Interval(0, 50), now=1.0)
        cache.clear()
        assert cache.used_events == 0
        assert not cache.coverage


class TestPrefixQueries:
    def test_cached_prefix_hit(self):
        cache = LRUSegmentCache(1000)
        cache.insert(Interval(0, 50), now=1.0)
        assert cache.cached_prefix(Interval(10, 100)) == Interval(10, 50)

    def test_cached_prefix_miss(self):
        cache = LRUSegmentCache(1000)
        cache.insert(Interval(20, 50), now=1.0)
        assert cache.cached_prefix(Interval(0, 100)).empty

    def test_cached_prefix_spans_abutting_extents(self):
        cache = LRUSegmentCache(1000)
        cache.insert(Interval(0, 50), now=1.0)
        cache.insert(Interval(50, 90), now=2.0)  # different stamp: no merge
        assert cache.extent_count() == 2
        assert cache.cached_prefix(Interval(0, 100)) == Interval(0, 90)

    def test_cached_prefix_clipped_to_interval(self):
        cache = LRUSegmentCache(1000)
        cache.insert(Interval(0, 100), now=1.0)
        assert cache.cached_prefix(Interval(10, 40)) == Interval(10, 40)

    def test_uncached_prefix(self):
        cache = LRUSegmentCache(1000)
        cache.insert(Interval(30, 60), now=1.0)
        assert cache.uncached_prefix(Interval(0, 100)) == Interval(0, 30)
        assert cache.uncached_prefix(Interval(30, 100)).empty
        assert cache.uncached_prefix(Interval(60, 100)) == Interval(60, 100)

    def test_empty_interval_prefixes(self):
        cache = LRUSegmentCache(1000)
        assert cache.cached_prefix(Interval(5, 5)).empty
        assert cache.uncached_prefix(Interval(5, 5)).empty


class TestCoalescing:
    def test_same_timestamp_neighbours_merge(self):
        cache = LRUSegmentCache(1000)
        cache.insert(Interval(0, 50), now=1.0)
        cache.insert(Interval(50, 90), now=1.0)
        assert cache.extent_count() == 1

    def test_different_timestamp_neighbours_stay_split(self):
        cache = LRUSegmentCache(1000)
        cache.insert(Interval(0, 50), now=1.0)
        cache.insert(Interval(50, 90), now=2.0)
        assert cache.extent_count() == 2

    def test_touch_splits_extent(self):
        cache = LRUSegmentCache(1000)
        cache.insert(Interval(0, 90), now=1.0)
        cache.touch(Interval(30, 60), now=5.0)
        assert cache.used_events == 90
        # Now three extents with stamps 1.0 / 5.0 / 1.0.
        assert cache.extent_count() == 3
        cache.check_invariants()

    def test_stats(self):
        cache = LRUSegmentCache(50)
        cache.insert(Interval(0, 40), now=1.0)
        cache.insert(Interval(100, 140), now=2.0)
        cache.touch(Interval(100, 120), now=3.0)
        assert cache.stats.inserted_events == 80
        assert cache.stats.evicted_events == 30
        assert cache.stats.touched_events == 20


# -- property suite vs a pointwise reference model ---------------------------------


class _ReferenceCache:
    """Pointwise LRU model: event → last access time."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.stamps = {}
        self.counter = 0  # insertion order tiebreak

    def insert(self, interval: Interval, now: float) -> None:
        if self.capacity == 0 or interval.empty:
            return
        points = list(interval)[-self.capacity:]
        for point in points:
            self.counter += 1
            self.stamps[point] = (now, self.counter)
        self._evict(protect=set(points))

    def touch(self, interval: Interval, now: float) -> None:
        for point in interval:
            if point in self.stamps:
                self.counter += 1
                self.stamps[point] = (now, self.counter)

    def _evict(self, protect) -> None:
        while len(self.stamps) > self.capacity:
            victim = min(
                (p for p in self.stamps if p not in protect),
                key=lambda p: self.stamps[p],
            )
            del self.stamps[victim]

    def points(self) -> set:
        return set(self.stamps)


@st.composite
def cache_ops(draw):
    op = draw(st.sampled_from(["insert", "touch"]))
    start = draw(st.integers(0, 80))
    length = draw(st.integers(1, 30))
    return (op, Interval(start, start + length))


class TestAgainstReferenceModel:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(10, 60), st.lists(cache_ops(), max_size=12))
    def test_coverage_and_occupancy_match(self, capacity, operations):
        cache = LRUSegmentCache(capacity)
        now = 0.0
        for op, interval in operations:
            now += 1.0
            if op == "insert":
                cache.insert(interval, now)
            else:
                cache.touch(interval, now)
            cache.check_invariants()
        # Exact pointwise-LRU equivalence is not required (the extent cache
        # evicts at sub-extent granularity with its own tie-breaks), but the
        # occupancy accounting must be exact and coverage must be a subset
        # of everything ever inserted.
        assert cache.used_events <= capacity
        assert cache.used_events == cache.coverage.measure()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(cache_ops(), max_size=12))
    def test_unbounded_cache_matches_reference_exactly(self, operations):
        """With capacity >= universe, no eviction happens: coverage must
        equal the reference model's point set exactly."""
        cache = LRUSegmentCache(10_000)
        reference = _ReferenceCache(10_000)
        now = 0.0
        for op, interval in operations:
            now += 1.0
            getattr(cache, op)(interval, now)
            getattr(reference, op)(interval, now)
        points = set()
        for extent, _stamp in cache:
            points |= set(extent)
        assert points == reference.points()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(5, 40), st.lists(cache_ops(), min_size=1, max_size=10))
    def test_last_insert_always_present(self, capacity, operations):
        cache = LRUSegmentCache(capacity)
        now = 0.0
        last_insert = None
        for op, interval in operations:
            now += 1.0
            getattr(cache, op)(interval, now)
            if op == "insert":
                last_insert = (interval, now)
        if last_insert is None:
            return
        interval, _ = last_insert
        kept = interval if interval.length <= capacity else Interval(
            interval.end - capacity, interval.end
        )
        assert cache.covers(kept)


@st.composite
def mutation_ops(draw):
    """insert / touch / invalidate (drop) / clear; small capacities make
    inserts evict."""
    op = draw(st.sampled_from(["insert", "insert", "touch", "invalidate", "clear"]))
    start = draw(st.integers(0, 80))
    length = draw(st.integers(1, 30))
    return (op, Interval(start, start + length))


class TestCachedBetween:
    """``cached_between(a, b)`` is ``|coverage ∩ [a, b)|``, computed on ints."""

    @staticmethod
    def brute_force(cache: LRUSegmentCache, a: int, b: int) -> int:
        points = set()
        for extent, _stamp in cache:
            points |= set(extent)
        return sum(1 for point in points if a <= point < b)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(5, 60),
        st.lists(mutation_ops(), max_size=14),
        st.lists(st.tuples(st.integers(-5, 120), st.integers(-5, 120)), max_size=8),
    )
    def test_matches_brute_force(self, capacity, operations, queries):
        cache = LRUSegmentCache(capacity)
        now = 0.0
        for op, interval in operations:
            now += 1.0
            if op == "insert":
                cache.insert(interval, now)
            elif op == "touch":
                cache.touch(interval, now)
            elif op == "invalidate":
                cache.invalidate(interval)
            else:
                cache.clear()
            for a, b in queries:
                expected = self.brute_force(cache, a, b)
                assert cache.cached_between(a, b) == expected
                if a <= b:
                    assert cache.cached_events(Interval(a, b)) == expected

    def test_empty_and_inverted_ranges(self):
        cache = LRUSegmentCache(100)
        cache.insert(Interval(10, 50), now=1.0)
        assert cache.cached_between(20, 20) == 0
        assert cache.cached_between(40, 20) == 0
        assert cache.cached_between(50, 10) == 0
        assert cache.cached_between(0, 100) == 40
        assert cache.cached_between(10, 11) == 1
        assert cache.cached_between(49, 60) == 1
        assert cache.cached_between(50, 60) == 0

    def test_empty_cache(self):
        cache = LRUSegmentCache(100)
        assert cache.cached_between(0, 100) == 0
        assert cache.cached_between(5, 5) == 0
        assert LRUSegmentCache(0).cached_between(0, 10) == 0

    def test_abutting_extents_with_distinct_stamps(self):
        cache = LRUSegmentCache(100)
        cache.insert(Interval(0, 10), now=1.0)
        cache.insert(Interval(10, 20), now=2.0)
        cache.insert(Interval(30, 40), now=3.0)
        assert cache.extent_count() == 3
        assert cache.cached_between(5, 35) == 20
        assert cache.cached_between(-10, 100) == 30
