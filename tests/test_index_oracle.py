"""Differential oracle for the scheduler-state indexes: the live-subjob
index, the int-only cache range query and the idle-node index.

The shipped code answers "which subjobs of this job are waiting/running?"
from ``Job.live``, "how much of this subjob is cached on that node?"
with ``LRUSegmentCache.cached_between`` and "which nodes are idle?" from
the index behind ``Cluster.idle_nodes``.  This module freezes the code
those replaced — per-state scans over the whole subjob history, a cache
lookup that builds the remaining ``Interval`` per candidate and a scan of
every node's ``idle`` flag — as a test-only reference, runs each scenario
once with the shipped code and once with the reference, and requires the
recorded ``subjob.*`` hook streams (every start, resume, suspend, split,
preempt and end, with its time, node and payload) and the summaries to
be identical.

Both runs have the sim-sanitizer on, so the ``live == scan`` check in
``Job.check_invariants`` and the idle ``index == scan`` check run at
every probe of every scenario as well.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest
from hypothesis import given, strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.core import units
from repro.obs import TraceRecorder
from repro.sched.base import create_policy
from repro.sched.cache_splitting import CacheOrientedSplittingPolicy
from repro.sim import simulator as simulator_module
from repro.sim.config import FaultConfig, NetFaultConfig, quick_config
from repro.sim.export import result_summary_dict
from repro.sim.simulator import Simulation
from repro.topo.spec import topology_preset
from repro.workload.jobs import Job, JobState, Subjob, SubjobState

from .policy_helpers import micro_config, trace
from .test_policy_fuzz import FUZZ_SETTINGS, workloads

POLICIES = ("cache-splitting", "splitting")


# ---------------------------------------------------------------------------
# The frozen reference
# ---------------------------------------------------------------------------


def reference_best_subjob_for_node(
    node: Node, candidates: List[Subjob]
) -> Optional[Subjob]:
    """Scan-based ``best_subjob_for_node``: the cached amount comes from
    ``cached_parts`` (a walk independent of ``cached_between``) over the
    candidate's ``remaining`` interval, compared as a tuple key."""
    best: Optional[Subjob] = None
    best_key: Tuple[int, int] = (-1, -1)
    for subjob in candidates:
        parts = node.cache.cached_parts(subjob.remaining)
        cached = sum(part.length for part in parts)
        key = (cached, subjob.remaining_events)
        if key > best_key:
            best_key = key
            best = subjob
    return best


class ReferenceJob(Job):
    """Per-state queries as scans over the full subjob history."""

    __slots__ = ()

    def running_subjobs(self) -> List[Subjob]:
        return [s for s in self.subjobs if s.state is SubjobState.RUNNING]

    def suspended_subjobs(self) -> List[Subjob]:
        return [s for s in self.subjobs if s.state is SubjobState.SUSPENDED]

    def pending_subjobs(self) -> List[Subjob]:
        return [s for s in self.subjobs if s.state is SubjobState.PENDING]

    def nodes_held(self) -> int:
        return len(self.running_subjobs())

    def maybe_complete(self, now: float) -> bool:
        if self.state is JobState.DONE:
            return False
        if self.events_done == self.n_events and all(
            s.state is SubjobState.DONE for s in self.subjobs
        ):
            self.state = JobState.DONE
            self.completion = now
            return True
        return False


class ReferenceCacheSplitting(CacheOrientedSplittingPolicy):
    """Cache-splitting with the scan-based selection path."""

    def on_subjob_end(self, node: Node, subjob: Subjob) -> None:
        if not node.idle:
            return
        job = subjob.job
        own_waiting = job.suspended_subjobs() + job.pending_subjobs()
        if own_waiting:
            chosen = reference_best_subjob_for_node(node, own_waiting)
            assert chosen is not None
            self.start_on(node, chosen)
            return
        self.feed_idle(node)

    def feed_idle(self, node: Node) -> None:
        if self.queue:
            self._start_job(self.queue.popleft(), [node])
            return
        waiting = [
            s
            for other in self.running_jobs
            for s in other.subjobs
            if s.state in (SubjobState.PENDING, SubjobState.SUSPENDED)
        ]
        if waiting:
            chosen = reference_best_subjob_for_node(node, waiting)
            assert chosen is not None
            self.start_on(node, chosen)
            return
        self._split_for_cache_benefit(node)

    def _split_for_cache_benefit(self, node: Node) -> None:
        running = [
            s
            for other in self.running_jobs
            for s in other.running_subjobs()
            if s.remaining_events >= 2 * self.min_subjob_events
        ]
        if not running:
            return
        best = reference_best_subjob_for_node(node, running)
        assert best is not None
        remaining = best.remaining
        cached_parts = node.cache.cached_parts(remaining)
        point: Optional[int] = None
        if cached_parts:
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


# ---------------------------------------------------------------------------
# Running both sides
# ---------------------------------------------------------------------------


def _run(config, policy, requests=None):
    """``(subjob.* event keys, summary)`` of one checked, recorded run."""
    recorder = TraceRecorder(capacity=1_000_000, keep="first")
    result = Simulation(
        config, policy, trace=requests, sink=recorder, check_invariants=True
    ).run()
    recorder.close()
    assert recorder.total_emitted <= recorder.capacity  # nothing truncated
    stream = [e.key() for e in recorder.events if e.kind.startswith("subjob.")]
    summary = result_summary_dict(result)
    summary.pop("wall_seconds")
    return stream, summary


def reference_idle_nodes(cluster: Cluster) -> List[Node]:
    """Scan-based ``Cluster.idle_nodes``: every node's ``idle`` flag, in
    id order."""
    return [node for node in cluster.nodes if node.idle]


def reference_first_idle(cluster: Cluster) -> Optional[Node]:
    """Scan-based ``Cluster.first_idle``: the lowest-id idle node."""
    return next((node for node in cluster.nodes if node.idle), None)


def reference_policy(name):
    if name == "cache-splitting":
        return ReferenceCacheSplitting()
    return create_policy(name)  # its reference is ReferenceJob alone


def assert_matches_reference(name, config, requests=None):
    shipped = _run(config, create_policy(name), requests)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator_module, "Job", ReferenceJob)
        reference = _run(config, reference_policy(name), requests)
    assert shipped[0], "scenario emitted no subjob events"
    assert shipped[0] == reference[0]
    assert shipped[1] == reference[1]
    return shipped


@pytest.mark.parametrize("name", POLICIES)
class TestShippedEqualsReference:
    @FUZZ_SETTINGS
    @given(entries=workloads(), n_nodes=st.integers(2, 4))
    def test_fuzzed_traces(self, name, entries, n_nodes):
        assert_matches_reference(
            name,
            micro_config(n_nodes=n_nodes, duration=6 * units.DAY),
            trace(*entries),
        )

    def test_node_faults(self, name):
        config = quick_config(
            seed=7,
            duration=2 * units.DAY,
            faults=FaultConfig(node_mtbf=6 * units.HOUR, node_mttr=30 * units.MINUTE),
        )
        stream, _ = assert_matches_reference(name, config)
        assert any(key[1] == "subjob.suspend" for key in stream)

    def test_depth3_lru_rack(self, name):
        config = quick_config(
            seed=7,
            n_nodes=8,
            duration=2 * units.DAY,
            arrival_rate_per_hour=4.0,
            topology=topology_preset("depth3", "lru-rack"),
        )
        assert_matches_reference(name, config)


def test_reference_job_is_in_use():
    """Guard for the oracle itself: the patched simulator builds
    ``ReferenceJob`` and the reference policy really runs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator_module, "Job", ReferenceJob)
        sim = Simulation(
            micro_config(),
            reference_policy("cache-splitting"),
            trace=trace((0.0, 0, 4000)),
            retain_records=True,
        )
        sim.run()
    (job,) = sim.jobs.values()
    assert type(job) is ReferenceJob and job.done
    assert type(sim.policy) is ReferenceCacheSplitting


# ---------------------------------------------------------------------------
# The idle-node index
# ---------------------------------------------------------------------------

IDLE_POLICIES = (
    "farm",
    "splitting",
    "cache-splitting",
    "out-of-order",
    "delayed",
    "decentral",
)

#: Constructor overrides: delayed's default two-day period would leave
#: the two-day scenarios below without a single batch.
IDLE_POLICY_PARAMS = {"delayed": {"period": 6 * units.HOUR}}

NODE_FAULTS = FaultConfig(node_mtbf=6 * units.HOUR, node_mttr=30 * units.MINUTE)


def assert_idle_matches_reference(name, config, requests=None):
    """The shipped policy against itself on the scan-based ``idle_nodes``
    and ``first_idle``."""
    params = IDLE_POLICY_PARAMS.get(name, {})
    shipped = _run(config, create_policy(name, **params), requests)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Cluster, "idle_nodes", reference_idle_nodes)
        mp.setattr(Cluster, "first_idle", reference_first_idle)
        reference = _run(config, create_policy(name, **params), requests)
    assert shipped[0], "scenario emitted no subjob events"
    assert shipped[0] == reference[0]
    assert shipped[1] == reference[1]
    return shipped


@pytest.mark.parametrize("name", IDLE_POLICIES)
class TestIdleIndexEqualsScan:
    @FUZZ_SETTINGS
    @given(entries=workloads(), n_nodes=st.integers(2, 4))
    def test_fuzzed_traces(self, name, entries, n_nodes):
        assert_idle_matches_reference(
            name,
            micro_config(n_nodes=n_nodes, duration=6 * units.DAY),
            trace(*entries),
        )

    def test_node_faults(self, name):
        config = quick_config(seed=7, duration=2 * units.DAY, faults=NODE_FAULTS)
        _, summary = assert_idle_matches_reference(name, config)
        assert summary["faults"]["failures"] > 0

    def test_lossy_net_with_node_faults(self, name):
        # Central dispatches over a lossy channel reserve and release
        # nodes while crashes take nodes down and back up.
        config = quick_config(
            seed=3,
            n_nodes=6,
            duration=2 * units.DAY,
            arrival_rate_per_hour=6.0,
            faults=NODE_FAULTS,
            net=NetFaultConfig(
                loss=0.2, duplicate=0.1, delay_mean=0.05, reorder=0.1,
                ack_timeout=2.0,
            ),
        )
        _, summary = assert_idle_matches_reference(name, config)
        assert summary["sched"]["retransmits"] > 0


def test_reference_idle_scan_is_in_use():
    """Guard for the idle oracle: the patched cluster answers from the
    scans, which ignore the index entirely."""
    calls = []

    def counting(scan):
        def counted(cluster):
            calls.append(scan.__name__)
            return scan(cluster)

        return counted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Cluster, "idle_nodes", counting(reference_idle_nodes))
        mp.setattr(Cluster, "first_idle", counting(reference_first_idle))
        sim = Simulation(micro_config(), create_policy("farm"), trace=trace((0.0, 0, 400)))
        sim.cluster._idle_ids.clear()
        result = sim.run()
    assert calls and result.jobs_completed == 1
