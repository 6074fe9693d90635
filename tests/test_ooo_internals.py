"""White-box tests of out-of-order scheduling internals."""

import pytest

from repro.core import units
from repro.data.intervals import Interval
from repro.workload.jobs import SubjobState

from .helpers import make_subjob
from .policy_helpers import build_sim, micro_config, trace


def primed_sim(entries, **config_overrides):
    sim = build_sim(
        "out-of-order", trace(*entries), micro_config(**config_overrides)
    )
    sim.prime()
    return sim, sim.policy


class TestPutBackFront:
    def test_nocache_origin_returns_to_global_queue_head(self):
        sim, policy = primed_sim([(0.0, 0, 2000)], n_nodes=1)
        sim.engine.run(until=1.0)
        running = sim.cluster[0].current
        assert running.origin == ("nocache",)
        displaced = sim.cluster[0].preempt()
        policy._put_back_front(displaced)
        assert policy.nocache_queue[0] is displaced

    def test_node_origin_returns_to_node_queue_head(self):
        sim, policy = primed_sim([(0.0, 0, 2000)], n_nodes=2)
        sim.engine.run(until=1.0)
        subjob = sim.cluster[1].current
        subjob.origin = ("node", 1)
        displaced = sim.cluster[1].preempt()
        policy._put_back_front(displaced)
        assert policy.node_queues[1][0] is displaced

    def test_displacement_rearms_fairness_clock(self):
        sim, policy = primed_sim([(0.0, 0, 2000)], n_nodes=1)
        sim.engine.run(until=1.0)
        displaced = sim.cluster[0].preempt()
        policy._fairness_armed.clear()
        policy._put_back_front(displaced)
        assert displaced.job in policy._fairness_armed


class TestStealFromQueue:
    def test_steal_splits_tail_of_most_loaded_queue(self):
        sim, policy = primed_sim([(0.0, 0, 8000)], n_nodes=2)
        sim.engine.run(until=1.0)
        # Manufacture imbalance: node 1 idle, node 0 loaded with a queue.
        queued = make_subjob(20_000, 4000)
        queued.origin = ("node", 0)
        policy.node_queues[0].append(queued)
        displaced = sim.cluster[1].preempt()
        policy.nocache_queue.clear()  # force the steal path
        if displaced is not None:
            displaced.state = SubjobState.DONE  # park it out of the way
        policy.feed_idle(sim.cluster[1])
        thief_subjob = sim.cluster[1].current
        assert thief_subjob is not None
        assert thief_subjob.steal_preemptible
        # The stolen piece is the tail of the queued subjob.
        assert thief_subjob.segment.end == 24_000
        assert queued.segment.end == thief_subjob.segment.start

    def test_no_steal_when_everything_tiny(self):
        # 15 events < 2x min size: the arrival cannot be split to feed
        # both nodes, and the leftover is too small to steal.
        sim, policy = primed_sim([(0.0, 0, 15)], n_nodes=2)
        sim.engine.run(until=0.5)
        idle = [n for n in sim.cluster if n.idle]
        assert idle
        policy.feed_idle(idle[0])
        assert idle[0].idle  # nothing worth stealing

    def test_thief_share_formula(self):
        sim, policy = primed_sim([(0.0, 0, 100)])
        share = policy._thief_share(1000)
        assert share == int(1000 * 0.26 / (0.26 + 0.8))


class TestFeedNodePriorities:
    def test_priority_jobs_served_before_node_queue(self):
        sim, policy = primed_sim([(0.0, 0, 2000)], n_nodes=1)
        sim.engine.run(until=1.0)
        node = sim.cluster[0]
        displaced = node.preempt()
        # Two contenders: a cached subjob in the node queue and the
        # displaced job promoted by the fairness valve.
        cached = make_subjob(50_000, 500)
        cached.origin = ("node", 0)
        policy.node_queues[0].append(cached)
        policy.nocache_queue.appendleft(displaced)
        policy.priority_jobs.append(displaced.job)
        policy.feed_idle(node)
        assert node.current is displaced

    def test_empty_priority_entry_discarded(self):
        sim, policy = primed_sim([(0.0, 0, 2000)], n_nodes=1)
        sim.engine.run(until=1.0)
        node = sim.cluster[0]
        displaced = node.preempt()
        ghost_job = displaced.job
        policy.priority_jobs.append(ghost_job)  # but nothing of it queued
        cached = make_subjob(50_000, 500)
        cached.origin = ("node", 0)
        policy.node_queues[0].append(cached)
        policy.feed_idle(node)
        assert node.current is cached
        assert ghost_job not in policy.priority_jobs


class TestSplitToFeed:
    def test_split_until_one_per_node(self):
        sim, policy = primed_sim([(0.0, 0, 100)], n_nodes=2)
        pieces = policy._split_to_feed([make_subjob(0, 1000)], 4)
        assert len(pieces) == 4
        assert sum(p.remaining_events for p in pieces) == 1000

    def test_stops_at_min_size(self):
        sim, policy = primed_sim([(0.0, 0, 100)], n_nodes=2)
        pieces = policy._split_to_feed([make_subjob(0, 25)], 8)
        assert len(pieces) < 8
        assert all(p.remaining_events >= 10 for p in pieces)
