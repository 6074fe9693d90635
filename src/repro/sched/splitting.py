"""Job-splitting scheduling (§3.2, Table 1) — FCFS with intra-job
parallelism, no caching.

Jobs are split into equal subjobs over the idle nodes; when no node is
idle, the most over-parallelised running job (largest nodes-per-remaining-
event ratio) releases one node to the newcomer.  Freed nodes resume
suspended subjobs of the same job or split the largest running subjob.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ..cluster.access import DataAccessPlanner, NoCachePlanner
from ..cluster.node import Node
from ..data.tertiary import TertiaryStorage
from ..workload.jobs import Job, Subjob
from .base import SchedulerPolicy, register_policy


@register_policy
class JobSplittingPolicy(SchedulerPolicy):
    """Table 1 of the paper."""

    name = "splitting"

    def __init__(self) -> None:
        super().__init__()
        self.queue: Deque[Job] = deque()
        self.running_jobs: List[Job] = []

    def make_planner(self, tertiary: TertiaryStorage) -> DataAccessPlanner:
        return NoCachePlanner(tertiary)

    # -- arrival (Table 1, "Upon job arrival") -----------------------------------

    def on_job_arrival(self, job: Job) -> None:
        idle = self.cluster.idle_nodes()
        if idle:
            # Split into equal subjobs, one per idle node (>= minimal size).
            root = job.make_root_subjob()
            pieces = root.split_remaining_even(len(idle), self.min_subjob_events)
            self.running_jobs.append(job)
            for node, piece in zip(idle, pieces):
                self.start_on(node, piece)
            return

        victim = self._most_parallelised_job()
        if victim is not None:
            released = self._release_one_node(victim)
            if released is not None:
                self.running_jobs.append(job)
                self.start_on(released, job.make_root_subjob())
                return
        self.queue.append(job)

    # -- subjob end, job continues (Table 1, "Upon subjob end") ---------------------

    def on_subjob_end(self, node: Node, subjob: Subjob) -> None:
        if not node.idle:
            return  # deferred completion (re-assigned) or node crashed
        job = subjob.job
        suspended = job.suspended_subjobs()
        if suspended:
            # Resume the largest suspended piece of the same job.
            suspended.sort(key=lambda s: -s.remaining_events)
            self.start_on(node, suspended[0])
            return
        self.feed_idle(node)

    # -- job end (Table 1, "Upon job end") ----------------------------------------------

    def on_job_end(self, node: Node, job: Job, subjob: Subjob) -> None:
        if job in self.running_jobs:
            self.running_jobs.remove(job)
        if not node.idle:
            return
        if self.queue:
            next_job = self.queue.popleft()
            self.running_jobs.append(next_job)
            self.start_on(node, next_job.make_root_subjob())
            return
        self.feed_idle(node)

    # -- internals ----------------------------------------------------------------------

    def _most_parallelised_job(self) -> Optional[Job]:
        """The running job with the largest nodes-per-remaining-event
        ratio among jobs holding more than one node."""
        best: Optional[Job] = None
        best_ratio = -1.0
        for job in self.running_jobs:
            nodes_held = job.nodes_held()
            if nodes_held < 2:
                continue  # a job never loses its last node (§3 principles)
            remaining = max(job.remaining_events, 1)
            ratio = nodes_held / remaining
            if ratio > best_ratio:
                best_ratio = ratio
                best = job
        return best

    def _release_one_node(self, job: Job) -> Optional[Node]:
        """Suspend one of ``job``'s running subjobs; return the freed node.

        Picks the subjob with the least remaining work (the smallest
        suspended quantum; Table 1 does not prescribe the choice)."""
        running = job.running_subjobs()
        if len(running) < 2:
            return None
        running.sort(key=lambda s: s.remaining_events)
        for candidate in running:
            node = candidate.node
            assert node is not None
            if node.preempt() is not None:
                return node
            # The candidate completed during preemption; try the next one
            # (the deferred completion will also free this node shortly,
            # but it is busy-free right now, so use it).
            if node.idle:
                return node
        return None

    def feed_idle(self, node: Node) -> None:
        """Table 1: split the largest running subjob onto the free node."""
        if self.queue:
            # Defensive liveness guard: by Table 1's own induction the
            # queue is empty whenever a job holds several nodes, but a
            # queued job must never starve while a node idles.
            next_job = self.queue.popleft()
            self.running_jobs.append(next_job)
            self.start_on(node, next_job.make_root_subjob())
            return
        candidates = sorted(
            (
                s
                for job in self.running_jobs
                for s in job.running_subjobs()
            ),
            key=lambda s: -s.remaining_events,
        )
        for subjob in candidates:
            remaining = subjob.remaining
            if remaining.length < 2 * self.min_subjob_events:
                break  # sorted descending: nothing splittable remains
            midpoint = remaining.start + remaining.length // 2
            right = self.split_running_subjob(subjob, midpoint)
            if right is not None:
                self.start_on(node, right)
                return
        # Nothing splittable: the node idles until the next event.

    def describe(self) -> Dict[str, object]:
        return {"policy": self.name}

    def extra_stats(self) -> Dict[str, float]:
        return {"queued_jobs_at_end": float(len(self.queue))}
