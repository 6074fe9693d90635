"""Tests for the runtime sim-sanitizer (``--check-invariants``).

Two claims are verified: a checked run is *transparent* (bit-identical
metrics to an unchecked run, because the checks never schedule events),
and a checked run is *vigilant* (injected corruption of cache accounting,
event ordering, LRU structure or subjob assignment raises
:class:`InvariantViolation` with a descriptive message).
"""

from __future__ import annotations

import heapq

import pytest

from repro.cli import main
from repro.cluster.access import CachingPlanner
from repro.cluster.costmodel import CostModel
from repro.cluster.node import Node
from repro.core import units
from repro.core.engine import Engine
from repro.core.errors import InvariantViolation
from repro.core.events import EventPriority, ScheduledEvent
from repro.data.cache import LRUSegmentCache
from repro.data.dataspace import DataSpace
from repro.data.intervals import Interval
from repro.data.tertiary import TertiaryStorage
from repro.sched.base import create_policy
from repro.sim.config import quick_config
from repro.sim.sanitizer import InvariantChecker
from repro.sim.simulator import Simulation, run_simulation
from repro.workload.jobs import SubjobState

from .helpers import make_subjob


def _config(seed: int = 11):
    return quick_config(duration=4 * units.DAY, seed=seed)


def _checked_simulation(policy: str = "out-of-order") -> Simulation:
    return Simulation(
        _config(), create_policy(policy), check_invariants=True
    )


class TestTransparency:
    @pytest.mark.parametrize("policy", ["farm", "cache-splitting", "out-of-order"])
    def test_checked_run_has_identical_metrics(self, policy):
        plain = run_simulation(_config(), policy)
        checked = run_simulation(_config(), policy, check_invariants=True)
        assert checked.measured.mean_speedup == plain.measured.mean_speedup
        assert checked.measured.mean_waiting == plain.measured.mean_waiting
        assert checked.records == plain.records
        assert checked.events_by_source == plain.events_by_source
        assert checked.engine_events == plain.engine_events
        assert checked.jobs_completed == plain.jobs_completed

    def test_checks_actually_ran(self):
        sim = _checked_simulation()
        sim.run()
        assert sim.checker is not None
        assert sim.checker.checks_run > 0

    def test_unchecked_run_installs_no_hooks(self):
        sim = Simulation(_config(), create_policy("farm"))
        assert sim.checker is None
        assert all(node.checker is None for node in sim.cluster)
        assert not sim.engine.check_invariants


class TestCacheCorruption:
    def test_accounting_corruption_is_caught(self):
        sim = _checked_simulation()
        sim.prime()

        def corrupt() -> None:
            # Test-only hook: break byte/event accounting conservation on
            # one node's cache; the next deep check must notice.
            node = next(iter(sim.cluster))
            node.cache._used += 7

        sim.engine.call_at(units.DAY, corrupt)
        with pytest.raises(InvariantViolation, match="not conserved"):
            sim.engine.run(until=sim.config.duration)

    def test_lru_structure_corruption_is_caught(self):
        sim = _checked_simulation()
        sim.prime()

        def corrupt() -> None:
            # Drop the LRU heap: live extents become unreachable by
            # eviction, which the validator must flag.
            for node in sim.cluster:
                if len(node.cache._lru_heap) > 0:
                    node.cache._lru_heap.clear()
                    return

        sim.engine.call_at(units.DAY, corrupt)
        with pytest.raises(InvariantViolation, match="LRU"):
            sim.engine.run(until=sim.config.duration)

    def test_validate_directly_on_healthy_cache(self):
        cache = LRUSegmentCache(1000)
        cache.insert(Interval(0, 400), now=1.0)
        cache.insert(Interval(600, 900), now=2.0)
        cache.touch(Interval(0, 100), now=3.0)
        cache.validate()
        cache._used -= 1
        with pytest.raises(InvariantViolation, match="accounting"):
            cache.validate()


class TestEventOrderingCorruption:
    def test_non_monotone_dispatch_is_caught(self):
        engine = Engine(check_invariants=True)
        engine.call_at(10.0, lambda: None)
        assert engine.step()
        # Test-only hook: smuggle an event into the past, bypassing
        # call_at's validation — exactly what a buggy component that
        # caches a stale `now` would do.
        stale = ScheduledEvent(
            time=2.0,
            priority=int(EventPriority.ARRIVAL),
            seq=999,
            callback=lambda: None,
            label="stale",
        )
        heapq.heappush(
            engine._heap, (stale.time, stale.priority, stale.seq, stale)
        )
        with pytest.raises(InvariantViolation, match="non-monotone"):
            engine.step()

    def test_heap_property_corruption_is_caught(self):
        engine = Engine(check_invariants=True)
        for t in (5.0, 1.0, 9.0, 3.0):
            engine.call_at(t, lambda: None)
        engine.validate_heap()
        engine._heap[0], engine._heap[-1] = engine._heap[-1], engine._heap[0]
        with pytest.raises(InvariantViolation, match="heap property"):
            engine.validate_heap()

    def test_unchecked_engine_does_not_pay_for_checks(self):
        engine = Engine()
        assert not engine.check_invariants
        engine.call_at(1.0, lambda: None)
        engine.run()
        assert engine.now == 1.0


class TestAssignmentCorruption:
    def _node(self, engine: Engine, node_id: int, checker: InvariantChecker) -> Node:
        space = DataSpace(total_events=1_000_000, event_bytes=600 * units.KB)
        node = Node(
            node_id=node_id,
            engine=engine,
            cache=LRUSegmentCache(10_000),
            cost_model=CostModel.from_hardware(600 * units.KB),
            planner=CachingPlanner(TertiaryStorage(space)),
            chunk_events=100,
        )
        node.checker = checker
        node.on_subjob_complete = lambda n, s: None
        return node

    def test_double_assignment_is_caught(self):
        engine = Engine(check_invariants=True)
        checker = InvariantChecker()
        node_a = self._node(engine, 0, checker)
        node_b = self._node(engine, 1, checker)
        subjob = make_subjob(0, 500)
        node_a.start(subjob)
        # Test-only hook: reset the subjob's bookkeeping as a buggy policy
        # that lost track of its dispatch would, then hand the same subjob
        # to a second node.
        subjob.state = SubjobState.PENDING
        subjob.node = None
        with pytest.raises(InvariantViolation, match="double-assigned"):
            node_b.start(subjob)

    def test_unregistered_finish_is_caught(self):
        checker = InvariantChecker()
        engine = Engine()
        node = self._node(engine, 0, checker)
        subjob = make_subjob(0, 200)
        with pytest.raises(InvariantViolation, match="never registered"):
            checker.on_subjob_suspend(node, subjob)

    def test_legal_lifecycle_passes(self):
        engine = Engine(check_invariants=True)
        checker = InvariantChecker()
        node = self._node(engine, 0, checker)
        subjob = make_subjob(0, 300)
        node.start(subjob)
        engine.run()
        assert subjob.state is SubjobState.DONE
        assert checker.checks_run >= 2


class TestIdleIndexCorruption:
    def test_index_disagreeing_with_the_scan_is_caught(self):
        sim = _checked_simulation()
        sim.prime()
        sim.engine.run(until=units.DAY)
        sim.checker.deep_check(sim.engine, sim.cluster, sim.jobs.values())
        # Test-only hook: flip node 0's membership in the idle index, as a
        # transition that forgot to update it would.
        ids = sim.cluster._idle_ids
        if ids and ids[0] == 0:
            ids.pop(0)
        else:
            ids.insert(0, 0)
        with pytest.raises(InvariantViolation, match="idle-node index"):
            sim.checker.deep_check(sim.engine, sim.cluster, sim.jobs.values())

    def test_index_out_of_order_is_caught(self):
        sim = _checked_simulation()
        sim.prime()
        sim.cluster._idle_ids.reverse()  # every node idle before the run
        with pytest.raises(InvariantViolation, match="idle-node index"):
            sim.checker.deep_check(sim.engine, sim.cluster, sim.jobs.values())


class TestCli:
    def test_simulate_check_invariants_flag(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--policy",
                    "out-of-order",
                    "--days",
                    "1",
                    "--check-invariants",
                ]
            )
            == 0
        )
        assert "mean speedup" in capsys.readouterr().out
