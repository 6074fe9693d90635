"""Per-node LRU disk caches at data-segment (extent) granularity.

The paper's cache-aware policies all rest on one primitive: "which parts of
this job's data segment are currently on node *n*'s disk?".
:class:`LRUSegmentCache` answers that in O(log n) and maintains
least-recently-used eviction over variable-length extents, as prescribed in
Table 2 of the paper ("when needing new disk cache space, it deallocates
the least recently used cached segments").

Extents are half-open event ranges.  Touching or inserting a sub-range of
an existing extent splits it, so LRU timestamps stay exact at arbitrary
granularity.  Adjacent extents with identical timestamps are coalesced to
bound fragmentation (chunked streaming would otherwise grow the extent
count linearly with simulated time).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.errors import CacheError, InvariantViolation
from ..obs.hooks import NULL_BUS, HookBus, kinds
from .intervals import Interval, IntervalSet


@dataclass
class CacheStats:
    """Lifetime counters of one cache instance (events, not bytes)."""

    inserted_events: int = 0
    evicted_events: int = 0
    touched_events: int = 0
    dropped_events: int = 0  # explicitly invalidated

    def copy(self) -> "CacheStats":
        return CacheStats(
            self.inserted_events,
            self.evicted_events,
            self.touched_events,
            self.dropped_events,
        )


class _Extent:
    __slots__ = ("interval", "last_access", "alive")

    def __init__(self, interval: Interval, last_access: float) -> None:
        self.interval = interval
        self.last_access = last_access
        self.alive = True


class LRUSegmentCache:
    """An LRU cache over event extents with a fixed capacity in events.

    >>> cache = LRUSegmentCache(capacity_events=100)
    >>> cache.insert(Interval(0, 60), now=1.0)
    >>> cache.insert(Interval(200, 260), now=2.0)
    >>> cache.used_events
    100
    >>> cache.coverage.pairs()  # 20 LRU events of [0,60) were evicted
    [(20, 60), (200, 260)]
    """

    def __init__(
        self,
        capacity_events: int,
        obs: HookBus = NULL_BUS,
        owner_id: int = -1,
    ) -> None:
        if capacity_events < 0:
            raise CacheError(f"capacity must be >= 0, got {capacity_events}")
        self.capacity_events = int(capacity_events)
        self.obs = obs
        self.owner_id = owner_id
        self._starts: List[int] = []  # sorted extent start points
        self._by_start: Dict[int, _Extent] = {}  # start -> extent
        #: Lazy-deletion LRU heap of ``(last_access, tiebreak, extent)``;
        #: ``tiebreak`` is unique, so the extent itself is never compared.
        self._lru_heap: List[Tuple[float, int, _Extent]] = []
        self._used = 0
        self._tiebreak = 0
        self.stats = CacheStats()

    # -- queries ---------------------------------------------------------------

    @property
    def used_events(self) -> int:
        """Number of events currently cached."""
        return self._used

    @property
    def free_events(self) -> int:
        return self.capacity_events - self._used

    @property
    def coverage(self) -> IntervalSet:
        """The cached point set (merged extents, timestamps ignored)."""
        merged = IntervalSet()
        for start in self._starts:
            merged.add(self._by_start[start].interval)
        return merged

    def cached_parts(self, interval: Interval) -> IntervalSet:
        """Sub-ranges of ``interval`` present in the cache."""
        result = IntervalSet()
        query_start = interval.start
        query_end = interval.end
        starts = result._starts
        ends = result._ends
        # Overlapping extents arrive start-sorted and disjoint, so the
        # clipped pieces can be appended directly, merging abutting runs
        # (extents may touch when their LRU stamps differ) to keep the
        # set canonical.
        for extent in self._overlapping(interval):
            piece = extent.interval
            start = piece.start if piece.start > query_start else query_start
            end = piece.end if piece.end < query_end else query_end
            if start >= end:
                continue
            if ends and start <= ends[-1]:
                if end > ends[-1]:
                    ends[-1] = end
            else:
                starts.append(start)
                ends.append(end)
        return result

    def cached_events(self, interval: Interval) -> int:
        """Number of events of ``interval`` present in the cache."""
        return self.cached_between(interval.start, interval.end)

    def cached_between(self, start: int, end: int) -> int:
        """Number of cached events in ``[start, end)`` (0 if empty or inverted).

        The allocation-free form of :meth:`cached_events` for hot loops
        that hold the bounds as ints: no ``Interval``, no extent list.
        """
        starts = self._starts
        if start >= end or not starts:
            return 0
        by_start = self._by_start
        # Extents are disjoint and start-sorted: only the one at or left
        # of ``start`` can begin before the query.
        index = bisect_right(starts, start) - 1
        if index < 0:
            index = 0
        n = len(starts)
        total = 0
        while index < n:
            extent_start = starts[index]
            if extent_start >= end:
                break
            extent_end = by_start[extent_start].interval.end
            if extent_end > start:
                total += (extent_end if extent_end < end else end) - (
                    extent_start if extent_start > start else start
                )
            index += 1
        return total

    def covers(self, interval: Interval) -> bool:
        """True if every event of ``interval`` is cached."""
        return self.cached_events(interval) == interval.length

    def contains_point(self, point: int) -> bool:
        index = bisect_right(self._starts, point) - 1
        if index < 0:
            return False
        return self._by_start[self._starts[index]].interval.contains(point)

    def cached_prefix(self, interval: Interval) -> Interval:
        """The longest cached run starting exactly at ``interval.start``.

        Returns an empty interval when the first event is not cached.  This
        is the hot query of chunked execution: a node processing left to
        right asks "how far can I read from disk before hitting a miss?".
        """
        if interval.empty:
            return Interval(interval.start, interval.start)
        starts = self._starts
        by_start = self._by_start
        n = len(starts)
        end = interval.start
        index = bisect_right(starts, end) - 1
        # Walk right over contiguous extents (they may abut without merging
        # when their timestamps differ).
        while True:
            found = None
            if 0 <= index < n:
                candidate = by_start[starts[index]].interval
                if candidate.start <= end < candidate.end:
                    found = candidate
            if found is None and index + 1 < n:
                candidate = by_start[starts[index + 1]].interval
                if candidate.start == end:
                    found = candidate
                    index += 1
            if found is None:
                break
            end = found.end
            if end >= interval.end:
                end = interval.end
                break
        return Interval(interval.start, min(end, interval.end))

    def uncached_prefix(self, interval: Interval) -> Interval:
        """The longest run starting at ``interval.start`` with no cached
        event."""
        start = interval.start
        if interval.empty:
            return Interval(start, start)
        starts = self._starts
        # Only the first overlapping extent bounds the prefix: either an
        # extent covering ``start`` (empty prefix) or the first extent
        # beginning inside the interval.
        index = bisect_right(starts, start) - 1
        if index >= 0 and self._by_start[starts[index]].interval.end > start:
            return Interval(start, start)
        index += 1
        if index < len(starts) and starts[index] < interval.end:
            return Interval(start, starts[index])
        return Interval(start, interval.end)

    def extent_count(self) -> int:
        return len(self._by_start)

    def __iter__(self) -> Iterator[Tuple[Interval, float]]:
        for start in self._starts:
            extent = self._by_start[start]
            yield extent.interval, extent.last_access

    # -- mutation ----------------------------------------------------------------

    def insert(self, interval: Interval, now: float) -> None:
        """Cache ``interval`` with access time ``now``, evicting LRU data.

        Intervals longer than the capacity keep only their rightmost
        ``capacity`` events — exactly what sequential streaming through a
        full cache leaves behind.
        """
        if interval.empty or self.capacity_events == 0:
            return
        if interval.end - interval.start > self.capacity_events:
            interval = Interval(interval.end - self.capacity_events, interval.end)
        self.stats.inserted_events += interval.end - interval.start
        self._carve(interval)
        self._add_extent(interval, now)
        evicted_before = self.stats.evicted_events
        self._evict_to_fit(protect=interval)
        if self.obs.enabled:
            evicted = self.stats.evicted_events - evicted_before
            if evicted:
                self.obs.emit(
                    now,
                    kinds.CACHE_EVICT,
                    "cache",
                    node=self.owner_id,
                    events=evicted,
                )

    def touch(self, interval: Interval, now: float) -> None:
        """Refresh the LRU timestamp of the cached parts of ``interval``."""
        parts = self.cached_parts(interval)
        for part in parts:
            self.stats.touched_events += part.length
            self._carve(part)
            self._add_extent(part, now)

    def invalidate(self, interval: Interval) -> int:
        """Drop any cached events inside ``interval``; returns count."""
        before = self._used
        self._carve(interval)
        dropped = before - self._used
        self.stats.dropped_events += dropped
        return dropped

    def clear(self) -> None:
        self._starts.clear()
        self._by_start.clear()
        self._lru_heap.clear()
        self._used = 0

    # -- internals ---------------------------------------------------------------

    def _overlapping(self, interval: Interval) -> List[_Extent]:
        """Extents intersecting ``interval``, in start order."""
        if interval.empty or not self._starts:
            return []
        starts = self._starts
        by_start = self._by_start
        result: List[_Extent] = []
        query_start = interval.start
        index = bisect_right(starts, query_start) - 1
        if index < 0:
            index = 0
        end = interval.end
        n = len(starts)
        while index < n:
            start = starts[index]
            if start >= end:
                break
            extent = by_start[start]
            if extent.interval.end > query_start:
                result.append(extent)
            index += 1
        return result

    def _carve(self, interval: Interval) -> None:
        """Remove every cached event inside ``interval`` (splitting
        boundary extents, preserving their timestamps)."""
        for extent in self._overlapping(interval):
            self._drop_extent(extent)
            for piece in extent.interval.subtract(interval):
                self._add_extent(piece, extent.last_access, count_stats=False)

    def _add_extent(self, interval: Interval, last_access: float, count_stats: bool = True) -> None:
        if interval.empty:
            return
        # Coalesce with an identically-stamped neighbour on each side.
        interval = self._try_merge(interval, last_access)
        extent = _Extent(interval, last_access)
        insort(self._starts, interval.start)
        self._by_start[interval.start] = extent
        tiebreak = self._tiebreak + 1
        self._tiebreak = tiebreak
        heapq.heappush(self._lru_heap, (last_access, tiebreak, extent))
        self._used += interval.end - interval.start

    def _try_merge(self, interval: Interval, last_access: float) -> Interval:
        """Absorb abutting extents with the same timestamp into
        ``interval`` (removing them); returns the widened interval."""
        changed = True
        while changed:
            changed = False
            index = bisect_left(self._starts, interval.end)
            if index < len(self._starts) and self._starts[index] == interval.end:
                right = self._by_start[self._starts[index]]
                # Stamps are copied values (never arithmetic results), so
                # exact equality is the correct coalescing criterion here.
                if right.last_access == last_access:  # simlint: disable=SIM003
                    self._drop_extent(right)
                    interval = Interval(interval.start, right.interval.end)
                    changed = True
            index = bisect_left(self._starts, interval.start) - 1
            if index >= 0:
                left = self._by_start[self._starts[index]]
                # Same as above: copied stamps, exact equality intended.
                if left.interval.end == interval.start and left.last_access == last_access:  # simlint: disable=SIM003
                    self._drop_extent(left)
                    interval = Interval(left.interval.start, interval.end)
                    changed = True
        return interval

    def _drop_extent(self, extent: _Extent) -> None:
        start = extent.interval.start
        del self._by_start[start]
        index = bisect_left(self._starts, start)
        assert self._starts[index] == start
        del self._starts[index]
        extent.alive = False
        interval = extent.interval
        self._used -= interval.end - interval.start

    def _evict_to_fit(self, protect: Interval) -> None:
        """Evict LRU extents until within capacity, never touching the
        freshly inserted ``protect`` range."""
        stash: List[Tuple[float, int, _Extent]] = []
        while self._used > self.capacity_events:
            if not self._lru_heap:
                raise CacheError("cache accounting corrupt: over capacity with empty LRU")
            entry = heapq.heappop(self._lru_heap)
            extent = entry[2]
            if not extent.alive:
                continue  # stale heap entry (lazy deletion)
            if extent.interval.overlaps(protect):
                stash.append(entry)
                continue
            excess = self._used - self.capacity_events
            if extent.interval.length > excess:
                # Partial eviction: keep the rightmost part (the part a
                # sequential reader touched last).
                keep = Interval(extent.interval.start + excess, extent.interval.end)
                stamp = extent.last_access
                self._drop_extent(extent)
                self.stats.evicted_events += excess
                self._add_extent(keep, stamp, count_stats=False)
            else:
                self.stats.evicted_events += extent.interval.length
                self._drop_extent(extent)
        for entry in stash:
            heapq.heappush(self._lru_heap, entry)

    # -- validation ---------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert internal consistency (tests / debug builds)."""
        if self._used > self.capacity_events:
            raise CacheError(f"used {self._used} > capacity {self.capacity_events}")
        total = 0
        previous_end = None
        for start in self._starts:
            extent = self._by_start[start]
            if extent.interval.start != start:
                raise CacheError("start index out of sync")
            if previous_end is not None and extent.interval.start < previous_end:
                raise CacheError("extents overlap")
            previous_end = extent.interval.end
            total += extent.interval.length
        if total != self._used:
            raise CacheError(f"used counter {self._used} != measured {total}")

    def validate(self) -> None:
        """Deep sim-sanitizer check: event accounting conservation, extent
        index consistency and LRU structure validity.

        Raises :class:`InvariantViolation` with a descriptive message.
        O(extents + heap) — called from the simulator's periodic probe in
        ``--check-invariants`` mode, never from the hot path.
        """
        who = f"cache(node {self.owner_id})"
        if self._used > self.capacity_events:
            raise InvariantViolation(
                f"{who}: accounting over capacity "
                f"({self._used} > {self.capacity_events} events)"
            )
        if self._used < 0:
            raise InvariantViolation(f"{who}: negative used counter {self._used}")
        if len(self._starts) != len(self._by_start):
            raise InvariantViolation(
                f"{who}: extent indexes out of sync "
                f"(starts={len(self._starts)}, extents={len(self._by_start)})"
            )
        total = 0
        previous_end: Optional[int] = None
        for start in self._starts:
            extent = self._by_start.get(start)
            if extent is None:
                raise InvariantViolation(
                    f"{who}: start index {start} has no backing extent"
                )
            if extent.interval.start != start:
                raise InvariantViolation(
                    f"{who}: extent {extent.interval} filed under start {start}"
                )
            if not extent.alive:
                raise InvariantViolation(
                    f"{who}: dead extent {extent.interval} still indexed"
                )
            if previous_end is not None and extent.interval.start < previous_end:
                raise InvariantViolation(
                    f"{who}: extents overlap at {extent.interval.start} "
                    f"(previous extent ends at {previous_end})"
                )
            previous_end = extent.interval.end
            total += extent.interval.length
        if total != self._used:
            raise InvariantViolation(
                f"{who}: event accounting not conserved — used counter says "
                f"{self._used} but extents measure {total}"
            )
        # LRU validity: every live extent must be reachable by eviction,
        # with the heap stamp matching its access time, and the lazy heap
        # must still satisfy the binary-heap ordering property.
        stamped: Dict[int, float] = {}
        for entry_index, entry in enumerate(self._lru_heap):
            for child_index in (2 * entry_index + 1, 2 * entry_index + 2):
                if (
                    child_index < len(self._lru_heap)
                    and self._lru_heap[child_index][:2] < entry[:2]
                ):
                    raise InvariantViolation(
                        f"{who}: LRU heap order violated at index {entry_index}"
                    )
            stamped.setdefault(id(entry[2]), entry[0])
        for extent in self._by_start.values():
            stamp = stamped.get(id(extent))
            if stamp is None:
                raise InvariantViolation(
                    f"{who}: live extent {extent.interval} missing from the "
                    "LRU heap (unreachable by eviction)"
                )
            if not (stamp == extent.last_access):  # simlint: disable=SIM003
                # Exact match intended: the heap entry is a copy of the
                # extent's stamp, never the result of arithmetic.
                raise InvariantViolation(
                    f"{who}: LRU stamp {stamp} != extent access time "
                    f"{extent.last_access} for {extent.interval}"
                )

    def __repr__(self) -> str:
        return (
            f"LRUSegmentCache(used={self._used}/{self.capacity_events} events, "
            f"extents={len(self._by_start)})"
        )
