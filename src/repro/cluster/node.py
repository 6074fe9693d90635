"""Processing nodes: single-CPU executors with chunked, preemptible
subjob execution.

A node runs at most one subjob at a time (§2.4: "we only run a single job
or subjob per processor at any given time").  Execution is *chunked*: the
node asks its :class:`~repro.cluster.access.DataAccessPlanner` for the next
uniform-rate run of events, schedules one engine event at the chunk's
completion time, and repeats.  Preemption between events is exact: an
interrupted chunk credits the whole events finished so far and re-queues
the rest (the in-flight fractional event is re-processed later, matching
the paper's event-atomic processing).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.sanitizer import InvariantChecker

from ..core.engine import Engine
from ..core.errors import SchedulingError
from ..core.events import EventPriority, ScheduledEvent
from ..data.cache import LRUSegmentCache
from ..obs.hooks import NULL_BUS, HookBus, kinds
from ..workload.jobs import Subjob, SubjobState
from .access import ChunkPlan, DataAccessPlanner
from .costmodel import CostModel, DataSource

#: Tolerance for float round-off when counting whole events in an elapsed
#: chunk time (an event is counted as done if at least 1 - 1e-9 of it ran).
_EVENT_EPSILON = 1e-9


@dataclass
class NodeStats:
    """Per-node lifetime counters."""

    busy_seconds: float = 0.0
    events_processed: int = 0
    events_by_source: Dict[DataSource, int] = field(
        default_factory=lambda: {source: 0 for source in DataSource}
    )
    chunks_started: int = 0
    preemptions: int = 0
    subjobs_completed: int = 0
    # -- fault accounting (repro.faults) ------------------------------------
    failures: int = 0
    subjobs_aborted: int = 0
    #: Whole events that were processed but lost with the in-flight chunk.
    lost_events: int = 0
    #: Wall time of crashed chunks (elapsed compute that produced nothing).
    lost_seconds: float = 0.0
    downtime_seconds: float = 0.0

    def utilization(self, elapsed: float) -> float:
        return 0.0 if elapsed <= 0 else self.busy_seconds / elapsed


class _RunningChunk:
    __slots__ = (
        "plan",
        "per_event_time",
        "setup_latency",
        "started_at",
        "completion_event",
    )

    def __init__(
        self,
        plan: ChunkPlan,
        per_event_time: float,
        setup_latency: float,
        started_at: float,
        completion_event: ScheduledEvent,
    ) -> None:
        self.plan = plan
        self.per_event_time = per_event_time
        self.setup_latency = setup_latency
        self.started_at = started_at
        self.completion_event = completion_event


class Node:
    """One processing node: CPU + disk cache + a data-access planner.

    The scheduler-facing API is three calls:

    * :meth:`start` — begin/resume a subjob (node must be idle);
    * :meth:`preempt` — suspend the running subjob between events;
    * :attr:`on_subjob_complete` — callback fired when a subjob's last
      event finishes (installed by the simulator; handlers must check
      :attr:`busy`, since completions triggered from within a preemption
      are notified via a zero-delay event).
    """

    def __init__(
        self,
        node_id: int,
        engine: Engine,
        cache: LRUSegmentCache,
        cost_model: CostModel,
        planner: DataAccessPlanner,
        chunk_events: int = 2000,
        speed_factor: float = 1.0,
        obs: HookBus = NULL_BUS,
        idle_ids: Optional[List[int]] = None,
    ) -> None:
        if chunk_events < 1:
            raise SchedulingError(f"chunk_events must be >= 1, got {chunk_events}")
        if speed_factor <= 0:
            raise SchedulingError(f"speed_factor must be > 0, got {speed_factor}")
        self.node_id = node_id
        self.engine = engine
        self.cache = cache
        self.cost_model = cost_model
        self.planner = planner
        self.chunk_events = chunk_events
        self.speed_factor = speed_factor
        #: Memoized per-source chunk costs: the cost model is a frozen
        #: dataclass and ``speed_factor`` is fixed at construction, so the
        #: per-event time and setup latency per source are constants —
        #: computing them once keeps the chunk hot path free of method
        #: calls and branch chains.
        self._event_time: Dict[DataSource, float] = {
            source: cost_model.event_time(source, speed_factor)
            for source in DataSource
        }
        self._setup_latency: Dict[DataSource, float] = {
            source: cost_model.setup_latency(source) * speed_factor
            for source in DataSource
        }
        self.obs = obs
        self.stats = NodeStats()
        self.current: Optional[Subjob] = None
        self._chunk: Optional[_RunningChunk] = None
        #: Crash state (repro.faults): a failed node accepts no work and
        #: its cache is invisible to placement decisions until recovery.
        self.failed = False
        self._down_since = 0.0
        #: Control-plane reservation (repro.faults.net): set while a
        #: reliable dispatch is in flight to this node so no other
        #: scheduling decision double-books it; cleared on delivery or
        #: dead-letter.  Always ``False`` on a perfect network.  Written
        #: only through :meth:`reserve` / :meth:`release`.
        self.reserved = False
        #: The cluster's shared, ascending idle-node ids (:meth:`_sync_idle`).
        self._idle_ids: List[int] = [node_id] if idle_ids is None else idle_ids
        #: Per-event time multiplier for tertiary chunks (tertiary-stall
        #: modelling; snapshotted into each chunk at plan time, mirroring
        #: the contention planner's rate_factor approximation).
        self.tertiary_slowdown = 1.0
        #: Installed by the simulator: ``callback(node, subjob)``.
        self.on_subjob_complete: Optional[Callable[["Node", Subjob], None]] = None
        #: Sim-sanitizer transition hooks (``--check-invariants``); ``None``
        #: in normal runs, so the cost when off is one ``is None`` test per
        #: subjob transition.
        self.checker: Optional["InvariantChecker"] = None

    # -- queries ---------------------------------------------------------------

    @property
    def busy(self) -> bool:
        return self.current is not None

    @property
    def idle(self) -> bool:
        """Free to accept work: no running subjob, not crashed, and no
        dispatch already in flight to it."""
        return self.current is None and not self.failed and not self.reserved

    def current_source(self) -> Optional[DataSource]:
        """Data source of the in-flight chunk (None when idle)."""
        return self._chunk.plan.source if self._chunk else None

    # -- control ----------------------------------------------------------------

    def start(self, subjob: Subjob) -> None:
        """Begin or resume ``subjob`` on this node."""
        if self.busy:
            raise SchedulingError(
                f"node {self.node_id} is busy with {self.current!r}"
            )
        if self.failed:
            raise SchedulingError(
                f"node {self.node_id} is failed; cannot start {subjob.sid}"
            )
        if subjob.state not in (SubjobState.PENDING, SubjobState.SUSPENDED):
            raise SchedulingError(
                f"cannot start subjob {subjob.sid} in state {subjob.state}"
            )
        if subjob.remaining_events == 0:
            raise SchedulingError(f"subjob {subjob.sid} has no remaining work")
        if self.checker is not None:
            self.checker.on_subjob_start(self, subjob)
        if self.obs.enabled:
            now = self.engine.now
            kind = (
                kinds.SUBJOB_RESUME
                if subjob.state is SubjobState.SUSPENDED
                else kinds.SUBJOB_START
            )
            self.obs.emit(
                now,
                kind,
                "node",
                node=self.node_id,
                job=subjob.job.job_id,
                sid=subjob.sid,
                events=subjob.remaining_events,
            )
            self.obs.emit(now, kinds.NODE_BUSY, "node", node=self.node_id, sid=subjob.sid)
        subjob.state = SubjobState.RUNNING
        subjob.node = self
        self.current = subjob
        self._sync_idle()
        subjob.job.mark_started(self.engine.now)
        self._begin_next_chunk()

    def preempt(self) -> Optional[Subjob]:
        """Suspend the running subjob between events.

        Returns the suspended subjob, or ``None`` if the node was idle or
        the subjob turned out to have just finished (its completion
        callback is then delivered through a zero-delay event).
        """
        subjob = self.current
        if subjob is None:
            return None
        chunk = self._chunk
        assert chunk is not None
        self.engine.cancel(chunk.completion_event)
        elapsed = self.engine.now - chunk.started_at
        productive = max(0.0, elapsed - chunk.setup_latency)
        events_done = int(productive / chunk.per_event_time + _EVENT_EPSILON)
        events_done = min(events_done, chunk.plan.interval.length)
        self._account_chunk(chunk, events_done, min(elapsed, chunk.setup_latency))
        self._chunk = None
        self.current = None
        self._sync_idle()
        self.stats.preemptions += 1
        if subjob.remaining_events == 0:
            # Preempted exactly at completion: it is in fact done.
            self._finish_subjob(subjob, deferred=True)
            return None
        if self.checker is not None:
            self.checker.on_subjob_suspend(self, subjob)
        subjob.state = SubjobState.SUSPENDED
        subjob.node = None
        if self.obs.enabled:
            now = self.engine.now
            self.obs.emit(
                now,
                kinds.SUBJOB_SUSPEND,
                "node",
                node=self.node_id,
                job=subjob.job.job_id,
                sid=subjob.sid,
                events=subjob.remaining_events,
            )
            self.obs.emit(now, kinds.NODE_IDLE, "node", node=self.node_id)
        return subjob

    # -- faults (repro.faults) ----------------------------------------------------

    def fail(self, wipe_cache: bool = False) -> Optional[Subjob]:
        """Crash the node: abort the running chunk, losing its progress.

        Unlike :meth:`preempt`, an abort credits *nothing* from the
        in-flight chunk — the whole events already computed in it are lost
        work (tracked in :attr:`NodeStats.lost_events` /
        :attr:`NodeStats.lost_seconds`).  Progress from previously
        completed chunks survives, so a retried subjob resumes from the
        last chunk boundary.  Returns the aborted subjob (SUSPENDED), or
        ``None`` if the node was not running one.
        """
        if self.failed:
            raise SchedulingError(f"node {self.node_id} is already failed")
        subjob = self.current
        aborted: Optional[Subjob] = None
        if subjob is not None:
            chunk = self._chunk
            assert chunk is not None
            self.engine.cancel(chunk.completion_event)
            elapsed = self.engine.now - chunk.started_at
            productive = max(0.0, elapsed - chunk.setup_latency)
            lost = int(productive / chunk.per_event_time + _EVENT_EPSILON)
            lost = min(lost, chunk.plan.interval.length)
            # Keep the planner's started/finished pairing, crediting no
            # events (contention trackers must see the stream end).
            self.planner.on_chunk_processed(
                self, chunk.plan, chunk.plan.interval.take_left(0)
            )
            self.planner.on_chunk_finished(self, chunk.plan)
            self._chunk = None
            self.current = None
            self.stats.subjobs_aborted += 1
            self.stats.lost_events += lost
            self.stats.lost_seconds += elapsed
            if self.checker is not None:
                self.checker.on_subjob_abort(self, subjob)
            subjob.state = SubjobState.SUSPENDED
            subjob.node = None
            aborted = subjob
        self.failed = True
        self._sync_idle()
        self._down_since = self.engine.now
        self.stats.failures += 1
        if wipe_cache:
            self.cache.clear()
        if self.checker is not None:
            self.checker.on_node_failed(self)
        if self.obs.enabled:
            now = self.engine.now
            if aborted is not None:
                self.obs.emit(
                    now,
                    kinds.SUBJOB_ABORT,
                    "node",
                    node=self.node_id,
                    job=aborted.job.job_id,
                    sid=aborted.sid,
                    events=aborted.remaining_events,
                )
            self.obs.emit(
                now,
                kinds.NODE_FAIL,
                "node",
                node=self.node_id,
                wiped=wipe_cache,
                aborted=aborted.sid if aborted is not None else "",
            )
            self.obs.emit(now, kinds.NODE_IDLE, "node", node=self.node_id)
        return aborted

    def recover(self) -> None:
        """Bring a failed node back up (idle, ready for work)."""
        if not self.failed:
            raise SchedulingError(f"node {self.node_id} is not failed")
        self.failed = False
        self._sync_idle()
        self.stats.downtime_seconds += self.engine.now - self._down_since
        if self.checker is not None:
            self.checker.on_node_recovered(self)
        if self.obs.enabled:
            self.obs.emit(
                self.engine.now, kinds.NODE_RECOVER, "node", node=self.node_id
            )

    def reserve(self) -> None:
        """Hold the node for a dispatch in flight (repro.faults.net)."""
        self.reserved = True
        self._sync_idle()

    def release(self) -> None:
        """Drop the reservation: the dispatch was delivered or dead-lettered."""
        self.reserved = False
        self._sync_idle()

    def flush_downtime(self) -> None:
        """Fold any open downtime stretch into the stats (end of run)."""
        if self.failed:
            self.stats.downtime_seconds += self.engine.now - self._down_since
            self._down_since = self.engine.now

    # -- internals ----------------------------------------------------------------

    def _sync_idle(self) -> None:
        """List this node in the idle index exactly when it is idle; called
        at every change of ``current``, ``failed`` or ``reserved``."""
        ids = self._idle_ids
        node_id = self.node_id
        at = bisect_left(ids, node_id)
        listed = at < len(ids) and ids[at] == node_id
        if self.idle:
            if not listed:
                ids.insert(at, node_id)
        elif listed:
            del ids[at]

    def _begin_next_chunk(self) -> None:
        subjob = self.current
        assert subjob is not None
        remaining = subjob.remaining
        assert not remaining.empty
        plan = self.planner.plan_chunk(self, remaining, self.chunk_events)
        if plan.interval.empty or plan.interval.start != remaining.start:
            raise SchedulingError(
                f"planner returned bad chunk {plan.interval} for {remaining}"
            )
        source = plan.source
        per_event = self._event_time[source] * plan.rate_factor
        if source is DataSource.TERTIARY and self.tertiary_slowdown != 1.0:
            per_event *= self.tertiary_slowdown
        setup = self._setup_latency[source]
        duration = setup + plan.interval.length * per_event
        self.planner.on_chunk_started(self, plan)
        completion = self.engine.call_after(
            duration,
            self._on_chunk_complete,
            priority=EventPriority.COMPLETION,
            label=f"chunk:{subjob.sid}@{self.node_id}" if self.obs.engine_dispatch else "",
        )
        self._chunk = _RunningChunk(
            plan, per_event, setup, self.engine.now, completion
        )
        self.stats.chunks_started += 1

    def _on_chunk_complete(self) -> None:
        subjob = self.current
        chunk = self._chunk
        assert subjob is not None and chunk is not None
        self._account_chunk(chunk, chunk.plan.interval.length, chunk.setup_latency)
        self._chunk = None
        if subjob.remaining_events == 0:
            self.current = None
            self._sync_idle()
            self._finish_subjob(subjob, deferred=False)
        else:
            self._begin_next_chunk()

    def _account_chunk(
        self, chunk: _RunningChunk, events_done: int, setup_spent: float = 0.0
    ) -> None:
        """Credit ``events_done`` whole events of the chunk (plus any
        setup latency actually paid)."""
        subjob = self.current
        assert subjob is not None
        plan = chunk.plan
        planner = self.planner
        processed = plan.interval.take_left(events_done)
        planner.on_chunk_processed(self, plan, processed)
        planner.on_chunk_finished(self, plan)
        subjob.advance(events_done)
        stats = self.stats
        stats.busy_seconds += events_done * chunk.per_event_time + setup_spent
        stats.events_processed += events_done
        stats.events_by_source[plan.source] += events_done
        if self.obs.enabled and events_done > 0:
            self.obs.emit(
                self.engine.now,
                kinds.CHUNK_DONE,
                "node",
                node=self.node_id,
                job=subjob.job.job_id,
                sid=subjob.sid,
                src=chunk.plan.source.value,
                events=events_done,
                duration=events_done * chunk.per_event_time + setup_spent,
            )

    def _finish_subjob(self, subjob: Subjob, deferred: bool) -> None:
        if self.checker is not None:
            self.checker.on_subjob_finish(self, subjob)
        subjob.finish()
        subjob.node = None
        self.stats.subjobs_completed += 1
        if self.obs.enabled:
            now = self.engine.now
            self.obs.emit(
                now,
                kinds.SUBJOB_END,
                "node",
                node=self.node_id,
                job=subjob.job.job_id,
                sid=subjob.sid,
            )
            self.obs.emit(now, kinds.NODE_IDLE, "node", node=self.node_id)
        if self.on_subjob_complete is None:
            return
        if deferred:
            # Notify through the calendar so the preempting scheduler's
            # handler finishes before the completion handler runs.
            self.engine.call_after(
                0.0,
                self.on_subjob_complete,
                self,
                subjob,
                priority=EventPriority.COMPLETION,
                label=f"done:{subjob.sid}" if self.obs.engine_dispatch else "",
            )
        else:
            self.on_subjob_complete(self, subjob)

    def __repr__(self) -> str:
        state = f"running {self.current.sid}" if self.current else "idle"
        return f"Node(#{self.node_id}, {state}, cache={self.cache.used_events}ev)"
