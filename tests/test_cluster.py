"""Tests for the Cluster container and its scheduling helpers."""

import pytest

from repro.cluster.access import CachingPlanner
from repro.cluster.cluster import Cluster
from repro.cluster.costmodel import CostModel
from repro.core.engine import Engine
from repro.core.errors import ConfigurationError
from repro.core import units
from repro.data.intervals import Interval
from repro.data.tertiary import TertiaryStorage

from .conftest import make_cluster
from .helpers import make_subjob


class TestConstruction:
    def test_node_count(self, engine, tertiary):
        cluster = make_cluster(engine, tertiary, n_nodes=5)
        assert len(cluster) == 5
        assert [node.node_id for node in cluster] == [0, 1, 2, 3, 4]

    def test_indexing(self, engine, tertiary):
        cluster = make_cluster(engine, tertiary)
        assert cluster[1].node_id == 1

    def test_zero_nodes_rejected(self, engine, tertiary):
        with pytest.raises(ConfigurationError):
            Cluster(
                engine, 0, 100, CostModel(), CachingPlanner(tertiary)
            )

    def test_speed_factor_length_checked(self, engine, tertiary):
        with pytest.raises(ConfigurationError):
            Cluster(
                engine, 3, 100, CostModel(), CachingPlanner(tertiary),
                speed_factors=[1.0, 2.0],
            )

    def test_heterogeneous_speeds(self, engine, tertiary):
        cluster = Cluster(
            engine, 2, 10_000,
            CostModel.from_hardware(600 * units.KB),
            CachingPlanner(tertiary),
            speed_factors=[1.0, 2.0],
        )
        for node in cluster:
            node.on_subjob_complete = lambda n, s: None
        cluster[0].start(make_subjob(0, 100))
        cluster[1].start(make_subjob(1000, 100))
        engine.run()
        # The slow node took twice as long.
        assert cluster[1].stats.busy_seconds == pytest.approx(
            2 * cluster[0].stats.busy_seconds
        )


class TestQueries:
    def test_idle_and_busy(self, engine, tertiary):
        cluster = make_cluster(engine, tertiary)
        for node in cluster:
            node.on_subjob_complete = lambda n, s: None
        assert len(cluster.idle_nodes()) == 3
        cluster[1].start(make_subjob(0, 1000))
        assert [n.node_id for n in cluster.idle_nodes()] == [0, 2]
        assert [n.node_id for n in cluster.busy_nodes()] == [1]

    def test_best_cache_owner(self, engine, tertiary):
        cluster = make_cluster(engine, tertiary)
        cluster[0].cache.insert(Interval(0, 100), now=0.0)
        cluster[2].cache.insert(Interval(0, 300), now=0.0)
        owner, events = cluster.best_cache_owner(Interval(0, 500))
        assert owner is cluster[2]
        assert events == 300

    def test_best_cache_owner_excludes(self, engine, tertiary):
        cluster = make_cluster(engine, tertiary)
        cluster[2].cache.insert(Interval(0, 300), now=0.0)
        owner, events = cluster.best_cache_owner(
            Interval(0, 500), exclude=cluster[2]
        )
        assert owner is None
        assert events == 0

    def test_cached_events_by_node(self, engine, tertiary):
        cluster = make_cluster(engine, tertiary)
        cluster[1].cache.insert(Interval(50, 150), now=0.0)
        table = cluster.cached_events_by_node(Interval(0, 100))
        assert table == [(cluster[0], 0), (cluster[1], 50), (cluster[2], 0)]

    def test_total_cached_events(self, engine, tertiary):
        cluster = make_cluster(engine, tertiary)
        cluster[0].cache.insert(Interval(0, 100), now=0.0)
        cluster[1].cache.insert(Interval(0, 100), now=0.0)
        assert cluster.total_cached_events() == 200

    def test_utilization_empty(self, engine, tertiary):
        cluster = make_cluster(engine, tertiary)
        assert cluster.utilization(0.0) == 0.0
        assert cluster.utilization(100.0) == 0.0


class TestIdleIndex:
    """``idle_nodes()`` reads an index the nodes keep at their
    transitions; after each one it must equal the scan, order included."""

    def _cluster(self, engine, tertiary, n_nodes=4):
        cluster = make_cluster(engine, tertiary, n_nodes=n_nodes)
        for node in cluster:
            node.on_subjob_complete = lambda n, s: None
        return cluster

    def _assert_idle(self, cluster, expected):
        assert [n.node_id for n in cluster.idle_nodes()] == expected
        assert [n.node_id for n in cluster if n.idle] == expected

    def test_start_and_preempt(self, engine, tertiary):
        cluster = self._cluster(engine, tertiary)
        self._assert_idle(cluster, [0, 1, 2, 3])
        cluster[2].start(make_subjob(0, 1000))
        self._assert_idle(cluster, [0, 1, 3])
        cluster[0].start(make_subjob(2000, 1000))
        self._assert_idle(cluster, [1, 3])
        engine.run(until=10.0)
        assert cluster[2].preempt() is not None
        self._assert_idle(cluster, [1, 2, 3])
        assert cluster[0].preempt() is not None
        self._assert_idle(cluster, [0, 1, 2, 3])

    def test_preempt_at_completion_frees_the_node(self, engine, tertiary):
        cluster = self._cluster(engine, tertiary)
        subjob = make_subjob(0, 100)
        cluster[1].start(subjob)
        # 100 uncached events end at t=80; stop just short of the
        # completion event so the preemption finds all of them done.
        engine.run(until=80.0 - 1e-10)
        assert cluster[1].preempt() is None
        assert subjob.remaining_events == 0
        self._assert_idle(cluster, [0, 1, 2, 3])

    def test_chunk_complete_finish(self, engine, tertiary):
        cluster = self._cluster(engine, tertiary)
        seen = []
        cluster[3].on_subjob_complete = lambda n, s: seen.append(
            [m.node_id for m in cluster.idle_nodes()]
        )
        cluster[1].start(make_subjob(0, 1000))
        cluster[3].start(make_subjob(5000, 100))
        self._assert_idle(cluster, [0, 2])
        engine.run(until=100.0)
        # The completion handler already sees the freed node as idle.
        assert seen == [[0, 2, 3]]
        self._assert_idle(cluster, [0, 2, 3])
        engine.run()
        self._assert_idle(cluster, [0, 1, 2, 3])

    def test_fail_and_recover(self, engine, tertiary):
        cluster = self._cluster(engine, tertiary)
        cluster[1].start(make_subjob(0, 1000))
        cluster[1].fail()
        self._assert_idle(cluster, [0, 2, 3])
        cluster[3].fail()  # an idle node crashing
        self._assert_idle(cluster, [0, 2])
        cluster[3].recover()
        self._assert_idle(cluster, [0, 2, 3])
        cluster[1].recover()
        self._assert_idle(cluster, [0, 1, 2, 3])

    def test_reserve_and_release(self, engine, tertiary):
        cluster = self._cluster(engine, tertiary)
        cluster[2].reserve()
        self._assert_idle(cluster, [0, 1, 3])
        cluster[0].reserve()
        self._assert_idle(cluster, [1, 3])
        cluster[2].release()
        self._assert_idle(cluster, [1, 2, 3])
        cluster[0].release()
        self._assert_idle(cluster, [0, 1, 2, 3])

    def test_recovered_node_still_reserved_stays_out(self, engine, tertiary):
        cluster = self._cluster(engine, tertiary)
        cluster[1].reserve()
        cluster[1].fail()
        cluster[1].recover()
        # Up again, but a dispatch is still in flight to it.
        assert not cluster[1].failed
        self._assert_idle(cluster, [0, 2, 3])
        cluster[1].release()
        self._assert_idle(cluster, [0, 1, 2, 3])

    def test_release_of_a_failed_node_keeps_it_out(self, engine, tertiary):
        cluster = self._cluster(engine, tertiary)
        cluster[2].reserve()
        cluster[2].fail()
        cluster[2].release()  # the dispatch dead-letters while it is down
        self._assert_idle(cluster, [0, 1, 3])
        cluster[2].recover()
        self._assert_idle(cluster, [0, 1, 2, 3])

    def test_fully_busy_cluster_returns_empty(self, engine, tertiary):
        cluster = self._cluster(engine, tertiary, n_nodes=2)
        cluster[0].start(make_subjob(0, 1000))
        cluster[1].reserve()
        assert cluster.idle_nodes() == []
