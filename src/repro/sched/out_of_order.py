"""Out-of-order job scheduling (§4.1, Table 3).

Each node keeps a private queue of subjobs whose data it caches; an extra
global queue holds subjobs with no cached data anywhere.  Jobs whose data
sits in a disk cache overtake earlier jobs that would have to stream from
tape — trading strict FIFO fairness for an order-of-magnitude improvement
in waiting times and sustainable load.

Fairness valve: a job stuck in the no-cached-data queue longer than
``fairness_timeout`` (2 days in the paper) is promoted — the next
available node serves it before anything else.  The paper reports this
triggering for less than 0.5 ‰ of jobs below saturation.

Work stealing: an idle node with nothing queued anywhere takes work from
the most loaded node, splitting so both halves finish together given the
thief reads from tertiary storage while the donor reads from its disk
(Table 3: "the subjobs are split so as to ensure that the two subjobs
terminate around the same time").  Stolen subjobs carry a flag allowing a
later cached subjob to preempt them.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..core import units
from ..core.events import EventPriority
from ..cluster.node import Node
from ..obs.hooks import kinds
from ..workload.jobs import Job, Subjob
from .base import (
    SchedulerContext,
    SchedulerPolicy,
    register_policy,
    split_interval_by_caches,
)

_NOCACHE = ("nocache",)


@register_policy
class OutOfOrderPolicy(SchedulerPolicy):
    """Table 3 of the paper."""

    name = "out-of-order"

    def __init__(self, fairness_timeout: float = 2 * units.DAY) -> None:
        super().__init__()
        self.fairness_timeout = fairness_timeout
        self.node_queues: Dict[int, Deque[Subjob]] = {}
        self.nocache_queue: Deque[Subjob] = deque()
        #: Jobs promoted by the fairness valve, in promotion order.
        self.priority_jobs: Deque[Job] = deque()
        #: Jobs with a pending starvation-clock event.
        self._fairness_armed: Set[Job] = set()
        self.stats_fairness_promotions = 0
        self.stats_steals = 0
        self.stats_preempted_for_cached = 0

    def bind(self, ctx: SchedulerContext) -> None:
        super().bind(ctx)
        self.node_queues = {node.node_id: deque() for node in ctx.cluster}

    # -- arrival (Table 3, "Upon job arrival") -----------------------------------

    def on_job_arrival(self, job: Job) -> None:
        pieces = split_interval_by_caches(
            job.segment, self.cluster, self.min_subjob_events
        )
        subjobs = job.make_subjobs([interval for interval, _ in pieces])
        cached: List[Tuple[Subjob, Node]] = []
        uncached: List[Subjob] = []
        for subjob, (_, owner) in zip(subjobs, pieces):
            if owner is not None:
                cached.append((subjob, owner))
            else:
                uncached.append(subjob)

        # Cached subjobs: run immediately on their node if it is idle or
        # running preemptible (no-cached-data) work; otherwise queue there.
        for subjob, owner in cached:
            subjob.origin = ("node", owner.node_id)
            if owner.idle:
                self.start_on(owner, subjob)
            elif self._preemptible(owner):
                displaced = owner.preempt()
                self.stats_preempted_for_cached += 1
                if self.obs.enabled:
                    self.emit(
                        kinds.SUBJOB_PREEMPT,
                        node=owner.node_id,
                        job=subjob.job.job_id,
                        sid=subjob.sid,
                        displaced=displaced.sid if displaced is not None else "",
                    )
                if displaced is not None:
                    self._put_back_front(displaced)
                if owner.idle:
                    self.start_on(owner, subjob)
                else:  # the displaced subjob finished; deferred event pending
                    self.node_queues[owner.node_id].appendleft(subjob)
            else:
                self.node_queues[owner.node_id].append(subjob)

        # Uncached subjobs: feed idle nodes (splitting to cover them all),
        # queue the rest globally.
        idle = self.cluster.idle_nodes()
        if uncached and idle:
            uncached = self._split_to_feed(uncached, len(idle))
            for node in idle:
                if not uncached:
                    break
                subjob = uncached.pop(0)
                subjob.origin = _NOCACHE
                self.start_on(node, subjob)
        for subjob in uncached:
            subjob.origin = _NOCACHE
            self.nocache_queue.append(subjob)
            self._arm_fairness(subjob.job)

        # Any still-idle node steals from the most loaded one.
        for node in self.cluster.idle_nodes():
            self.feed_idle(node)

    # -- completions -----------------------------------------------------------------

    def on_subjob_end(self, node: Node, subjob: Subjob) -> None:
        self.feed_idle(node)

    def on_job_end(self, node: Node, job: Job, subjob: Subjob) -> None:
        self.feed_idle(node)

    # -- faults ------------------------------------------------------------------------

    def on_node_failed(self, node: Node, aborted: Optional[Subjob]) -> None:
        """Re-home the dead node's private queue: its cache is unreachable,
        so the queued subjobs are effectively no-cached-data work now."""
        own = self.node_queues[node.node_id]
        while own:
            subjob = own.popleft()
            subjob.origin = _NOCACHE
            self.nocache_queue.append(subjob)
            self._arm_fairness(subjob.job)
        for idle_node in self.cluster.idle_nodes():
            self.feed_idle(idle_node)

    # -- node feeding (Table 3, "Whenever nodes become available") ---------------------

    def feed_idle(self, node: Node) -> None:
        if not node.idle:
            return
        # 1. Fairness-promoted jobs first.
        while self.priority_jobs:
            job = self.priority_jobs[0]
            subjob = self._pop_nocache_subjob_of(job)
            if subjob is None:
                self.priority_jobs.popleft()  # nothing left waiting
                continue
            self.start_on(node, subjob)
            return
        # 2. The node's own queue.
        own = self.node_queues[node.node_id]
        if own:
            self.start_on(node, own.popleft())
            return
        # 3. The global no-cached-data queue.
        if self.nocache_queue:
            self.start_on(node, self.nocache_queue.popleft())
            return
        # 4. Steal from the most loaded node.
        self._try_steal(node)

    # -- stealing ---------------------------------------------------------------------------

    def _thief_share(self, total_events: int) -> int:
        """Events the thief takes so both halves finish together: the
        donor reads from its disk, the thief from tertiary storage."""
        model = self.cluster.cost_model
        donor_rate = model.cached_event_time
        thief_rate = model.uncached_event_time
        return int(total_events * donor_rate / (donor_rate + thief_rate))

    def _try_steal(self, thief: Node) -> None:
        donor = self._most_loaded_node(exclude=thief)
        if donor is None:
            return
        queue = self.node_queues[donor.node_id]
        # Prefer splitting the last queued subjob; if the queue is empty,
        # split the running one.
        if queue:
            victim = queue[-1]
            share = self._thief_share(victim.remaining_events)
            if share < self.min_subjob_events:
                if len(queue) > 1 and victim.remaining_events >= self.min_subjob_events:
                    queue.pop()  # take the whole tail subjob
                    self._mark_stolen(victim, donor)
                    self.start_on(thief, victim)
                    self.stats_steals += 1
                return
            if victim.remaining_events - share < self.min_subjob_events:
                return
            point = victim.remaining.end - share
            right = victim.split_remaining_at(point)
            self._mark_stolen(right, donor)
            self.start_on(thief, right)
            self.stats_steals += 1
            return
        victim = donor.current
        assert victim is not None
        share = self._thief_share(victim.remaining_events)
        if (
            share < self.min_subjob_events
            or victim.remaining_events - share < self.min_subjob_events
        ):
            return
        point = victim.remaining.end - share
        right = self.split_running_subjob(victim, point)
        if right is not None:
            self._mark_stolen(right, donor)
            self.start_on(thief, right)
            self.stats_steals += 1

    def _most_loaded_node(self, exclude: Node) -> Optional[Node]:
        """The busy node with the most outstanding work (running subjob
        remainder plus its queue).

        On hierarchical topologies equal loads go to the donor closest to
        the thief in the tier tree — stolen work streams its data from
        the donor's cache, so proximity keeps the transfer off the WAN.
        Flat clusters have all-zero distances, preserving the historical
        first-node-wins rule byte for byte.
        """
        ctx = self.ctx
        topo = ctx.topo if ctx is not None else None
        best: Optional[Node] = None
        best_load = 0
        best_distance = 0
        for node in self.cluster:
            if node is exclude or node.idle:
                continue
            load = node.current.remaining_events if node.current else 0
            load += sum(s.remaining_events for s in self.node_queues[node.node_id])
            if load > best_load:
                best_load = load
                best = node
                if topo is not None:
                    best_distance = topo.distance(
                        exclude.node_id, node.node_id
                    )
            elif (
                topo is not None
                and best is not None
                and load == best_load
                and topo.distance(exclude.node_id, node.node_id) < best_distance
            ):
                best = node
                best_distance = topo.distance(exclude.node_id, node.node_id)
        if best_load < 2 * self.min_subjob_events:
            return None
        return best

    def _mark_stolen(self, subjob: Subjob, donor: Node) -> None:
        subjob.steal_preemptible = True
        # The data is cached on the donor, so that is where the subjob
        # belongs if it ever gets displaced.
        subjob.origin = ("node", donor.node_id)
        if self.obs.enabled:
            self.emit(
                kinds.SUBJOB_STEAL,
                node=donor.node_id,
                job=subjob.job.job_id,
                sid=subjob.sid,
                events=subjob.remaining_events,
            )

    # -- preemption plumbing -----------------------------------------------------------------

    def _preemptible(self, node: Node) -> bool:
        """True if the node runs a subjob a cached subjob may displace:
        one taken from the no-cached-data queue or a stolen one."""
        current = node.current
        if current is None:
            return False
        return current.steal_preemptible or current.origin == _NOCACHE

    def _put_back_front(self, subjob: Subjob) -> None:
        """Return a displaced subjob to the head of its origin queue."""
        if subjob.origin is not None and subjob.origin[0] == "node":
            self.node_queues[subjob.origin[1]].appendleft(subjob)
        else:
            self.nocache_queue.appendleft(subjob)
            self._arm_fairness(subjob.job)

    # -- fairness --------------------------------------------------------------------------------

    def _arm_fairness(self, job: Job) -> None:
        """Start (once per queue residency) the 2-day starvation clock for
        a job whose work sits in the no-cached-data queue.  The clock is
        measured from the job's arrival, so a job displaced back into the
        queue after the timeout is promoted immediately."""
        if self.fairness_timeout <= 0 or job in self._fairness_armed:
            return
        self._fairness_armed.add(job)
        due = max(0.0, job.arrival_time + self.fairness_timeout - self.engine.now)
        self.engine.call_after(
            due,
            self._fairness_check,
            job,
            priority=EventPriority.TIMER,
            label=f"fairness:{job.job_id}",
        )

    def _fairness_check(self, job: Job) -> None:
        """Promote ``job`` if some of its subjobs still wait in the
        no-cached-data queue ``fairness_timeout`` after arrival."""
        self._fairness_armed.discard(job)
        if job.done or job in self.priority_jobs:
            return
        if any(s.job is job for s in self.nocache_queue):
            self.priority_jobs.append(job)
            self.stats_fairness_promotions += 1
            if self.obs.enabled:
                self.emit(
                    kinds.JOB_PROMOTE,
                    job=job.job_id,
                    waited=self.engine.now - job.arrival_time,
                )
            for node in self.cluster.idle_nodes():
                self.feed_idle(node)

    def _pop_nocache_subjob_of(self, job: Job) -> Optional[Subjob]:
        for index, subjob in enumerate(self.nocache_queue):
            if subjob.job is job:
                del self.nocache_queue[index]
                return subjob
        return None

    # -- helpers ------------------------------------------------------------------------------------

    def _split_to_feed(self, subjobs: List[Subjob], node_count: int) -> List[Subjob]:
        """Split (largest first, halving) until there is one subjob per
        node or nothing is splittable; preserves total coverage."""
        pieces = list(subjobs)
        while len(pieces) < node_count:
            pieces.sort(key=lambda s: -s.remaining_events)
            largest = pieces[0]
            if largest.remaining_events < 2 * self.min_subjob_events:
                break
            remaining = largest.remaining
            midpoint = remaining.start + remaining.length // 2
            pieces.append(largest.split_remaining_at(midpoint))
        pieces.sort(key=lambda s: s.segment.start)
        return pieces

    def describe(self) -> Dict[str, object]:
        return {
            "policy": self.name,
            "fairness_timeout": self.fairness_timeout,
        }

    def extra_stats(self) -> Dict[str, float]:
        return {
            "fairness_promotions": float(self.stats_fairness_promotions),
            "steals": float(self.stats_steals),
            "preempted_for_cached": float(self.stats_preempted_for_cached),
            "nocache_queue_at_end": float(len(self.nocache_queue)),
            "node_queued_at_end": float(
                sum(len(q) for q in self.node_queues.values())
            ),
        }
