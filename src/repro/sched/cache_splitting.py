"""Cache-oriented job splitting (§3.3, Table 2) — FCFS job starts with
cache-aware splitting and LRU node disk caches.

Jobs are split along the current cache boundaries ("data processed by a
given subjob should always either be fully cached on a node or not cached
at all"), cached subjobs are steered to the nodes holding their data, and
preemption choices maximise cached access.  Job *starts* remain first in
first out — the fairness constraint the out-of-order policy later relaxes.

Deviation from the literal Table 2: jobs that arrive when every node is
taken by a distinct job are queued *unsplit* and split when they finally
start; the cache contents at their arrival instant would be stale by then,
so splitting at start strictly improves the placement hints.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..cluster.node import Node
from ..workload.jobs import Job, Subjob, SubjobState
from .base import (
    SchedulerPolicy,
    best_subjob_for_node,
    register_policy,
    split_interval_by_caches,
)


@register_policy
class CacheOrientedSplittingPolicy(SchedulerPolicy):
    """Table 2 of the paper."""

    name = "cache-splitting"

    def __init__(self) -> None:
        super().__init__()
        self.queue: Deque[Job] = deque()
        self.running_jobs: List[Job] = []
        self._preemptions_for_cache = 0

    # -- arrival (Table 2, "Upon job arrival") ------------------------------------

    def on_job_arrival(self, job: Job) -> None:
        idle = self.cluster.idle_nodes()
        if idle:
            self._start_job(job, idle)
            return
        node = self._preempt_for(job)
        if node is not None:
            self._start_job(job, [node])
            return
        self.queue.append(job)

    # -- subjob end (Table 2, "Upon subjob end") ---------------------------------------

    def on_subjob_end(self, node: Node, subjob: Subjob) -> None:
        if not node.idle:
            return
        job = subjob.job
        # 1. Same job first: the waiting subjob with the most data cached
        #    on the freed node.
        own_waiting = job.suspended_subjobs() + job.pending_subjobs()
        if own_waiting:
            chosen = best_subjob_for_node(node, own_waiting)
            assert chosen is not None
            self.start_on(node, chosen)
            return
        self.feed_idle(node)

    # -- job end (Table 2, "Upon job end") ------------------------------------------------

    def on_job_end(self, node: Node, job: Job, subjob: Subjob) -> None:
        if job in self.running_jobs:
            self.running_jobs.remove(job)
        if not node.idle:
            return
        if self.queue:
            self._start_job(self.queue.popleft(), [node])
            return
        self.feed_idle(node)

    # -- internals -------------------------------------------------------------------------

    def _split_job(self, job: Job) -> List[Tuple[Subjob, Optional[Node]]]:
        """Split along cache boundaries; returns (subjob, caching node)."""
        pieces = split_interval_by_caches(
            job.segment, self.cluster, self.min_subjob_events
        )
        subjobs = job.make_subjobs([interval for interval, _ in pieces])
        return list(zip(subjobs, (owner for _, owner in pieces)))

    def _start_job(self, job: Job, idle: List[Node]) -> None:
        """Split ``job`` and dispatch onto the given idle nodes:
        cached subjobs to their nodes first, then any subjob, further
        subdividing if nodes would stay idle."""
        self.running_jobs.append(job)
        tagged = self._split_job(job)
        pending: List[Subjob] = [s for s, _ in tagged]
        owner_of: Dict[int, Optional[Node]] = {s.seq: owner for s, owner in tagged}
        free = list(idle)

        # Phase 1: fully/mostly cached subjobs onto their caching node.
        for node in list(free):
            best: Optional[Subjob] = None
            best_cached = 0
            for subjob in pending:
                if owner_of.get(subjob.seq) is node:
                    cached = node.cache.cached_events(subjob.remaining)
                    if cached > best_cached:
                        best_cached = cached
                        best = subjob
            if best is not None:
                pending.remove(best)
                free.remove(node)
                self.start_on(node, best)

        # Phase 2: remaining subjobs (largest first) onto remaining nodes.
        pending.sort(key=lambda s: -s.remaining_events)
        while free and pending:
            self.start_on(free.pop(0), pending.pop(0))

        # Phase 3: not enough subjobs — subdivide the largest running
        # piece of this job until every idle node works (Table 2: "If
        # there are not enough subjobs for all nodes, they are further
        # subdivided").
        while free:
            candidates = sorted(
                job.running_subjobs(), key=lambda s: -s.remaining_events
            )
            split_done = False
            for subjob in candidates:
                remaining = subjob.remaining
                if remaining.length < 2 * self.min_subjob_events:
                    break
                midpoint = remaining.start + remaining.length // 2
                right = self.split_running_subjob(subjob, midpoint)
                if right is not None:
                    self.start_on(free.pop(0), right)
                    split_done = True
                    break
            if not split_done:
                break
        # Subjobs that did not fit stay PENDING (Table 2's "suspended").

    def _preempt_for(self, job: Job) -> Optional[Node]:
        """Table 2: release one node from a multi-node job, choosing the
        (node, victim) pair that maximises cached data access — prefer
        evicting a subjob reading uncached data from a node on which the
        new job has cached data."""
        from ..cluster.costmodel import DataSource

        best_node: Optional[Node] = None
        best_key: Tuple[int, int, float] = (-1, -1, -1.0)
        for node in self.cluster.busy_nodes():
            victim = node.current
            assert victim is not None
            if victim.job.nodes_held() < 2:
                continue  # never release a job's last node
            gain = node.cache.cached_events(job.segment)
            victim_uncached = 1 if node.current_source() is not DataSource.CACHE else 0
            ratio = victim.job.nodes_held() / max(victim.job.remaining_events, 1)
            key = (victim_uncached, gain, ratio)
            if key > best_key:
                best_key = key
                best_node = node
        if best_node is None:
            return None
        suspended = best_node.preempt()
        if suspended is None and best_node.busy:
            return None  # completion raced us and the node was refilled
        self._preemptions_for_cache += 1
        return best_node if best_node.idle else None

    def feed_idle(self, node: Node) -> None:
        """No work of its own job: serve the queue, then other jobs'
        waiting subjobs, then split the running subjob with the largest
        caching benefit on this node."""
        if self.queue:
            self._start_job(self.queue.popleft(), [node])
            return

        waiting = [
            s
            for other in self.running_jobs
            for s in other.live
            if s.state is not SubjobState.RUNNING
        ]
        if waiting:
            chosen = best_subjob_for_node(node, waiting)
            assert chosen is not None
            self.start_on(node, chosen)
            return

        self._split_for_cache_benefit(node)

    def _split_for_cache_benefit(self, node: Node) -> None:
        """Split the running subjob whose remaining data is most cached on
        ``node``, cutting so the freed node receives the cached run;
        fall back to halving the largest running subjob."""
        min_split = 2 * self.min_subjob_events
        running = [
            s
            for other in self.running_jobs
            for s in other.running_subjobs()
            if s.remaining_events >= min_split
        ]
        if not running:
            return
        best = best_subjob_for_node(node, running)
        assert best is not None
        remaining = best.remaining
        cached_parts = node.cache.cached_parts(remaining)
        point: Optional[int] = None
        if cached_parts:
            # Give this node the tail containing the largest cached run.
            largest = max(cached_parts, key=lambda i: i.length)
            point = largest.start
        if point is None:
            best = max(running, key=lambda s: s.remaining_events)
            remaining = best.remaining
            point = remaining.start + remaining.length // 2
        lower = remaining.start + self.min_subjob_events
        upper = remaining.end - self.min_subjob_events
        if lower > upper:
            return
        point = min(max(point, lower), upper)
        right = self.split_running_subjob(best, point)
        if right is not None:
            self.start_on(node, right)

    def describe(self) -> Dict[str, object]:
        return {
            "policy": self.name,
            "cache_bytes": self.config.cache_bytes if self.ctx else None,
        }

    def extra_stats(self) -> Dict[str, float]:
        return {
            "queued_jobs_at_end": float(len(self.queue)),
            "cache_preemptions": float(self._preemptions_for_cache),
        }
