"""Delayed scheduling (§5, Table 4).

Time is divided into fixed periods.  Jobs accumulate during a period and
are all scheduled at its boundary: split along cache boundaries, the
uncached remainder re-split into *stripes* of at most ``stripe_events``,
and uncached subjobs of different jobs that share a stripe are gathered
into **meta-subjobs** — when a node pops a meta-subjob it streams the
stripe from tertiary storage once and every member then reads it from the
disk cache.  The goal (§5): "load the data from tertiary storage only once
during a given period".

The stripe point algebra follows Table 4 exactly: the boundary points of
all uncached segments are collected; points creating stripes below half
the stripe size are removed; points are added so no stripe exceeds the
stripe size; subjobs are cut at the surviving points.

``period=0`` degenerates to immediate scheduling with the same splitting
machinery — the mode the adaptive policy (§6) uses at low loads.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..core.events import EventPriority
from ..cluster.node import Node
from ..data.intervals import Interval, partition_by
from ..obs.hooks import kinds
from ..workload.jobs import Job, MetaSubjob, Subjob
from .base import (
    SchedulerContext,
    SchedulerPolicy,
    register_policy,
    split_interval_by_caches,
)


def compute_stripe_points(
    segments: List[Interval], stripe_events: int
) -> List[int]:
    """Table 4's stripe point list for a set of uncached segments.

    Returns sorted cut points such that consecutive points are at least
    ``stripe_events / 2`` apart (except where widened by the tail merge)
    and at most ``stripe_events`` apart within the covered span.
    """
    if not segments or stripe_events < 1:
        return []
    raw = sorted({p for seg in segments for p in (seg.start, seg.end)})
    if len(raw) < 2:
        return raw
    half = max(1, stripe_events // 2)

    # 1. Remove points creating stripes below half the stripe size.
    kept = [raw[0]]
    for point in raw[1:]:
        if point - kept[-1] >= half:
            kept.append(point)
    # Always close the span: shift the last kept point onto the true end
    # if the tail stripe collapsed below half size.
    if kept[-1] != raw[-1]:
        if raw[-1] - kept[-1] >= half or len(kept) == 1:
            kept.append(raw[-1])
        else:
            kept[-1] = raw[-1]

    # 2. Add points so that no stripe exceeds the stripe size.
    final: List[int] = [kept[0]]
    for point in kept[1:]:
        gap = point - final[-1]
        if gap > stripe_events:
            pieces = math.ceil(gap / stripe_events)
            base = final[-1]
            for j in range(1, pieces):
                final.append(base + (gap * j) // pieces)
        final.append(point)
    return final


@register_policy
class DelayedPolicy(SchedulerPolicy):
    """Table 4 of the paper."""

    name = "delayed"

    def __init__(
        self,
        period: float = 2 * 86_400.0,
        stripe_events: int = 5_000,
        job_window: Optional[int] = None,
    ) -> None:
        super().__init__()
        if period < 0:
            raise ValueError(f"period must be >= 0, got {period}")
        if stripe_events < 1:
            raise ValueError(f"stripe_events must be >= 1, got {stripe_events}")
        if job_window is not None and job_window < 1:
            raise ValueError(f"job_window must be >= 1, got {job_window}")
        self.period = float(period)
        self.stripe_events = int(stripe_events)
        #: Optional burst-drain discipline: nodes may only start subjobs of
        #: the first ``job_window`` unfinished jobs (by arrival) of the
        #: batch.  Table 4 does not specify the drain order; a small
        #: window concentrates the cluster on one job at a time, trading
        #: some utilization for much shorter per-job processing spans —
        #: the discipline implied by the paper's §5.2 "speedup of more
        #: than 10" at 3 jobs/hour.  ``None`` (default) = no gating.
        self.job_window = job_window
        self.pending_jobs: List[Job] = []
        self.node_queues: Dict[int, List[Subjob]] = {}
        self.meta_queue: List[MetaSubjob] = []
        self._batch_order: List[Job] = []
        self.stats_periods = 0
        self.stats_meta_subjobs = 0
        self.stats_batched_jobs = 0
        self._boundary_event = None

    def bind(self, ctx: SchedulerContext) -> None:
        super().bind(ctx)
        self.node_queues = {node.node_id: [] for node in ctx.cluster}
        if self.period > 0:
            self._boundary_event = self.engine.call_after(
                self.period,
                self._on_period_boundary,
                priority=EventPriority.PERIOD,
                label="period",
            )

    # -- notifications ------------------------------------------------------------

    def on_job_arrival(self, job: Job) -> None:
        if self.period > 0:
            self.pending_jobs.append(job)
        else:
            job.schedule_time = self.engine.now
            self._schedule_batch([job])

    def on_subjob_end(self, node: Node, subjob: Subjob) -> None:
        self.feed_idle(node)

    def on_job_end(self, node: Node, job: Job, subjob: Subjob) -> None:
        self.feed_idle(node)
        if self.job_window is not None:
            # A finished job may unlock the next one for every idle node.
            for other in self.cluster.idle_nodes():
                self.feed_idle(other)

    # -- faults -----------------------------------------------------------------------

    def on_node_failed(self, node: Node, aborted: Optional[Subjob]) -> None:
        """Reassign the dead node's queue to the surviving node caching
        the most of it (its cache is gone from the placement's point of
        view); fall back to the lowest-id up node."""
        own = self.node_queues[node.node_id]
        if not own:
            return
        displaced, own[:] = list(own), []
        for subjob in displaced:
            target: Optional[Node] = None
            best_cached = 0
            for other in self.cluster:
                if other.failed or other is node:
                    continue
                if target is None:
                    target = other  # lowest-id fallback
                cached = other.cache.cached_events(subjob.remaining)
                if cached > best_cached:
                    best_cached = cached
                    target = other
            if target is None:
                own.append(subjob)  # whole cluster down; keep it here
                continue
            subjob.origin = ("node", target.node_id)
            self.node_queues[target.node_id].append(subjob)
        for idle_node in self.cluster.idle_nodes():
            self.feed_idle(idle_node)

    # -- period machinery ------------------------------------------------------------

    def _on_period_boundary(self) -> None:
        self.stats_periods += 1
        batch, self.pending_jobs = self.pending_jobs, []
        now = self.engine.now
        for job in batch:
            job.schedule_time = now
        if self.obs.enabled:
            self.emit(kinds.SCHED_PERIOD, batch=len(batch), period=self.period)
        if batch:
            self._schedule_batch(batch)
        self.period = self._next_period_delay()
        if self.period > 0:
            self._boundary_event = self.engine.call_after(
                self.period,
                self._on_period_boundary,
                priority=EventPriority.PERIOD,
                label="period",
            )
        else:
            self._boundary_event = None

    def _next_period_delay(self) -> float:
        """Length of the next period (hook for the adaptive policy)."""
        return self.period

    # -- batch scheduling (Table 4, "at the end of a period") ----------------------------

    def _schedule_batch(self, jobs: List[Job]) -> None:
        self.stats_batched_jobs += len(jobs)
        jobs = sorted(jobs, key=lambda j: j.arrival_time)
        self._batch_order.extend(jobs)

        # Pass 1: cache-boundary split of every job.
        per_job_pieces: List[Tuple[Job, List[Tuple[Interval, Optional[Node]]]]] = []
        uncached_segments: List[Interval] = []
        for job in jobs:
            pieces = split_interval_by_caches(
                job.segment, self.cluster, self.min_subjob_events
            )
            per_job_pieces.append((job, pieces))
            uncached_segments.extend(
                interval for interval, owner in pieces if owner is None
            )

        # Pass 2: global stripe points over the uncached segments.
        points = compute_stripe_points(uncached_segments, self.stripe_events)

        # Pass 3: final per-job segmentation and subjob creation.
        new_metas: Dict[Tuple[int, int], MetaSubjob] = {}
        for job, pieces in per_job_pieces:
            segments: List[Interval] = []
            tags: List[Optional[Node]] = []
            for interval, owner in pieces:
                if owner is not None:
                    segments.append(interval)
                    tags.append(owner)
                else:
                    parts = self._cut_with_min_size(interval, points)
                    segments.extend(parts)
                    tags.extend([None] * len(parts))
            subjobs = job.make_subjobs(segments)
            if self.obs.enabled:
                self.emit(
                    kinds.JOB_SCHEDULE,
                    job=job.job_id,
                    subjobs=len(subjobs),
                    delayed=self.engine.now - job.arrival_time,
                )
            # make_subjobs sorts segments; rebuild the tag mapping by
            # segment identity.
            tag_by_segment = {seg: tag for seg, tag in zip(segments, tags)}
            for subjob in subjobs:
                owner = tag_by_segment[subjob.segment]
                if owner is not None:
                    subjob.origin = ("node", owner.node_id)
                    self.node_queues[owner.node_id].append(subjob)
                else:
                    cell = self._cell_of(subjob.segment, points)
                    meta = new_metas.get(cell)
                    if meta is None:
                        meta = MetaSubjob(stripe=Interval(cell[0], cell[1]))
                        new_metas[cell] = meta
                    meta.add(subjob)

        self.stats_meta_subjobs += len(new_metas)
        if self.obs.enabled:
            for meta in new_metas.values():
                self.emit(
                    kinds.SCHED_META,
                    stripe_start=meta.stripe.start,
                    stripe_end=meta.stripe.end,
                    members=len(meta.members),
                )
        self.meta_queue.extend(new_metas.values())
        # Fairness among meta-subjobs: earliest member arrival first
        # (stable, so leftovers from previous periods keep their rank).
        self.meta_queue.sort(key=lambda m: m.arrival_time)

        for node in self.cluster.idle_nodes():
            self.feed_idle(node)

    def _cut_with_min_size(
        self, interval: Interval, points: List[int]
    ) -> List[Interval]:
        """Cut ``interval`` at the stripe points, merging sub-minimal
        slivers into their left neighbour."""
        parts = partition_by(interval, points)
        merged: List[Interval] = []
        for part in parts:
            if merged and (
                part.length < self.min_subjob_events
                or merged[-1].length < self.min_subjob_events
            ):
                merged[-1] = Interval(merged[-1].start, part.end)
            else:
                merged.append(part)
        return merged

    def _cell_of(self, segment: Interval, points: List[int]) -> Tuple[int, int]:
        """The stripe cell a segment (mostly) falls in."""
        from bisect import bisect_right

        if not points:
            return (segment.start, segment.end)
        index = bisect_right(points, segment.start) - 1
        if index < 0:
            return (segment.start, points[0])
        if index >= len(points) - 1:
            return (points[-1], max(points[-1] + self.stripe_events, segment.end))
        return (points[index], points[index + 1])

    # -- node feeding (Table 4, "during the period") ----------------------------------------

    def _front_jobs(self) -> Optional[set]:
        """The first ``job_window`` unfinished batch jobs (None = no
        gating)."""
        if self.job_window is None:
            return None
        while self._batch_order and self._batch_order[0].done:
            self._batch_order.pop(0)
        front = set()
        for job in self._batch_order:
            if job.done:
                continue  # finished out of order; skip without unlinking
            front.add(job)
            if len(front) == self.job_window:
                break
        return front

    def feed_idle(self, node: Node) -> None:
        if not node.idle:
            return
        front = self._front_jobs()
        own = self.node_queues[node.node_id]
        for index, subjob in enumerate(own):
            if front is None or subjob.job in front:
                self.start_on(node, own.pop(index))
                return
        for index, meta in enumerate(self.meta_queue):
            members = [s for s in meta.members if not s.done]
            if not members:
                self.meta_queue.pop(index)
                self.feed_idle(node)
                return
            if front is not None and not any(s.job in front for s in members):
                continue
            # All members go to this node's queue: the first streams the
            # stripe from tertiary storage, the rest hit the disk cache.
            self.meta_queue.pop(index)
            first, rest = members[0], members[1:]
            own.extend(rest)
            self.start_on(node, first)
            return

    def describe(self) -> Dict[str, object]:
        return {
            "policy": self.name,
            "period": self.period,
            "stripe_events": self.stripe_events,
        }

    def extra_stats(self) -> Dict[str, float]:
        return {
            "periods": float(self.stats_periods),
            "meta_subjobs": float(self.stats_meta_subjobs),
            "batched_jobs": float(self.stats_batched_jobs),
            "pending_jobs_at_end": float(len(self.pending_jobs)),
            "meta_queue_at_end": float(len(self.meta_queue)),
            "node_queued_at_end": float(
                sum(len(q) for q in self.node_queues.values())
            ),
        }
