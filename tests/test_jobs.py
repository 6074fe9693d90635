"""Tests for Job / Subjob / MetaSubjob lifecycle and splitting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import SchedulingError
from repro.data.intervals import Interval
from repro.workload.jobs import (
    Job,
    JobRequest,
    JobState,
    MetaSubjob,
    SubjobState,
)

from .helpers import make_job, make_subjob


class TestJobRequest:
    def test_segment(self):
        request = JobRequest(1, 0.0, 100, 50)
        assert request.segment == Interval(100, 150)


class TestJobLifecycle:
    def test_initial_state(self):
        job = make_job(0, 100, arrival=5.0)
        assert job.state is JobState.PENDING
        assert job.remaining_events == 100
        assert job.waiting_time is None
        assert job.processing_time is None

    def test_mark_started_once(self):
        job = make_job(0, 100, arrival=5.0)
        job.mark_started(8.0)
        job.mark_started(9.0)  # later starts don't move it
        assert job.first_start == 8.0
        assert job.waiting_time == pytest.approx(3.0)
        assert job.state is JobState.ACTIVE

    def test_schedule_time_defaults_to_arrival(self):
        job = make_job(0, 100, arrival=5.0)
        job.mark_started(9.0)
        assert job.waiting_time_excl_delay == pytest.approx(4.0)
        job.schedule_time = 7.0
        assert job.waiting_time_excl_delay == pytest.approx(2.0)

    def test_completion(self):
        job = make_job(0, 10)
        subjob = job.make_root_subjob()
        job.mark_started(1.0)
        subjob.advance(10)
        subjob.finish()
        assert job.maybe_complete(4.0) is True
        assert job.done
        assert job.processing_time == pytest.approx(3.0)
        assert job.maybe_complete(5.0) is False  # idempotent

    def test_not_complete_with_open_subjob(self):
        job = make_job(0, 10)
        subjob = job.make_root_subjob()
        subjob.advance(5)
        assert job.maybe_complete(1.0) is False

    def test_progress_overflow_raises(self):
        job = make_job(0, 10)
        subjob = job.make_root_subjob()
        with pytest.raises(SchedulingError):
            subjob.advance(11)


class TestLiveIndex:
    """``Job.live``: the non-DONE subjobs, in creation order."""

    def test_tracks_creation_and_finish(self):
        job = make_job(0, 100)
        root = job.make_root_subjob()
        right = root.split_remaining_at(60)
        middle = root.split_remaining_at(30)
        assert job.live == [root, right, middle] == job.subjobs
        right.advance(40)
        right.finish()
        assert right.state is SubjobState.DONE
        assert job.live == [root, middle]
        assert job.subjobs == [root, right, middle]  # history kept
        job.check_invariants()

    def test_make_subjobs_fills_index(self):
        job = make_job(0, 100)
        pieces = job.make_subjobs([Interval(50, 100), Interval(0, 50)])
        assert job.live == pieces == job.subjobs
        assert job.live is not job.subjobs

    def test_state_queries_skip_finished(self):
        job = make_job(0, 100)
        root = job.make_root_subjob()
        right = root.split_remaining_at(50)
        root.state = SubjobState.RUNNING
        assert job.running_subjobs() == [root]
        assert job.pending_subjobs() == [right]
        assert job.nodes_held() == 1
        root.advance(50)
        root.finish()
        assert job.running_subjobs() == []
        assert job.nodes_held() == 0
        assert job.maybe_complete(1.0) is False  # ``right`` is still live

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda job, subjobs: job.live.pop(),  # dropped live subjob
            lambda job, subjobs: job.live.reverse(),  # order drift
            lambda job, subjobs: setattr(subjobs[0], "state", SubjobState.DONE),
        ],
        ids=["missing", "reordered", "done-still-indexed"],
    )
    def test_drift_is_an_invariant_error(self, corrupt):
        job = make_job(0, 100)
        root = job.make_root_subjob()
        root.split_remaining_at(50)
        job.check_invariants()
        corrupt(job, job.subjobs)
        with pytest.raises(SchedulingError, match="live-subjob index"):
            job.check_invariants()

    def test_sanitizer_reports_drift(self):
        from repro.core.errors import InvariantViolation
        from repro.sched.base import create_policy
        from repro.sim.simulator import Simulation

        from .policy_helpers import micro_config, trace

        sim = Simulation(
            micro_config(),
            create_policy("cache-splitting"),
            trace=trace((0.0, 0, 4000)),
            check_invariants=True,
        )
        sim.prime()
        sim.engine.run(until=1.0)
        (job,) = sim.jobs.values()
        assert len(job.live) == 2  # one piece per node
        sim.checker.deep_check(sim.engine, sim.cluster, sim.jobs.values())
        job.live.reverse()
        with pytest.raises(InvariantViolation, match="live-subjob index"):
            sim.checker.deep_check(sim.engine, sim.cluster, sim.jobs.values())


class TestSubjobStructure:
    def test_root_subjob_covers_job(self):
        job = make_job(10, 90)
        subjob = job.make_root_subjob()
        assert subjob.segment == Interval(10, 100)
        assert subjob.remaining == Interval(10, 100)

    def test_double_root_raises(self):
        job = make_job(0, 10)
        job.make_root_subjob()
        with pytest.raises(SchedulingError):
            job.make_root_subjob()

    def test_make_subjobs_must_tile(self):
        job = make_job(0, 100)
        with pytest.raises(SchedulingError):
            job.make_subjobs([Interval(0, 40), Interval(50, 100)])

    def test_make_subjobs_sorted(self):
        job = make_job(0, 100)
        subjobs = job.make_subjobs([Interval(60, 100), Interval(0, 60)])
        assert [s.segment for s in subjobs] == [Interval(0, 60), Interval(60, 100)]
        job.check_invariants()

    def test_empty_subjob_rejected(self):
        job = make_job(0, 100)
        with pytest.raises(SchedulingError):
            from repro.workload.jobs import Subjob

            Subjob(job, Interval(5, 5))

    def test_advance_updates_remaining(self):
        subjob = make_subjob(0, 100)
        subjob.advance(30)
        assert subjob.remaining == Interval(30, 100)
        assert subjob.remaining_events == 70
        assert subjob.job.events_done == 30


class TestSplitting:
    def test_split_remaining_at(self):
        subjob = make_subjob(0, 100)
        subjob.advance(20)
        right = subjob.split_remaining_at(60)
        assert subjob.segment == Interval(0, 60)
        assert right.segment == Interval(60, 100)
        assert right.state is SubjobState.PENDING
        subjob.job.check_invariants()

    def test_split_point_must_be_inside_remaining(self):
        subjob = make_subjob(0, 100)
        subjob.advance(50)
        with pytest.raises(SchedulingError):
            subjob.split_remaining_at(30)  # already processed
        with pytest.raises(SchedulingError):
            subjob.split_remaining_at(100)  # boundary

    def test_split_running_raises(self):
        subjob = make_subjob(0, 100)
        subjob.state = SubjobState.RUNNING
        with pytest.raises(SchedulingError):
            subjob.split_remaining_at(50)

    def test_split_done_raises(self):
        subjob = make_subjob(0, 100)
        subjob.advance(100)
        subjob.state = SubjobState.DONE
        with pytest.raises(SchedulingError):
            subjob.split_remaining_at(50)

    def test_split_even_tiles(self):
        subjob = make_subjob(0, 100)
        pieces = subjob.split_remaining_even(4, min_events=10)
        assert len(pieces) == 4
        assert [p.segment.length for p in pieces] == [25, 25, 25, 25]
        subjob.job.check_invariants()

    def test_split_even_respects_min(self):
        subjob = make_subjob(0, 35)
        pieces = subjob.split_remaining_even(10, min_events=10)
        assert len(pieces) == 3
        assert all(p.segment.length >= 10 for p in pieces)

    @settings(max_examples=80)
    @given(
        st.integers(20, 500),
        st.lists(st.tuples(st.integers(0, 3), st.floats(0.1, 0.9)), max_size=6),
    )
    def test_random_split_sequences_keep_tiling(self, n_events, splits):
        """Any sequence of splits keeps subjobs tiling the job exactly."""
        job = make_job(0, n_events)
        job.make_root_subjob()
        for index, fraction in splits:
            candidates = [
                s for s in job.subjobs if s.remaining_events >= 2
            ]
            if not candidates:
                break
            target = candidates[index % len(candidates)]
            remaining = target.remaining
            point = remaining.start + max(
                1, int(remaining.length * fraction)
            )
            if point >= remaining.end:
                point = remaining.end - 1
            if point <= remaining.start:
                continue
            target.split_remaining_at(point)
            job.check_invariants()
        total = sum(s.segment.length for s in job.subjobs)
        assert total == n_events


class TestMetaSubjob:
    def test_arrival_is_earliest_member(self):
        meta = MetaSubjob(stripe=Interval(0, 100))
        meta.add(make_subjob(0, 50, arrival=9.0))
        meta.add(make_subjob(20, 60, arrival=4.0))
        assert meta.arrival_time == 4.0
        assert meta.total_events == 110

    def test_empty_meta_arrival_raises(self):
        meta = MetaSubjob(stripe=Interval(0, 100))
        with pytest.raises(SchedulingError):
            meta.arrival_time

    def test_add_outside_stripe_raises(self):
        meta = MetaSubjob(stripe=Interval(0, 100))
        with pytest.raises(SchedulingError):
            meta.add(make_subjob(200, 50))

    def test_slight_overhang_widens_stripe(self):
        meta = MetaSubjob(stripe=Interval(0, 100))
        meta.add(make_subjob(90, 20))  # [90, 110) overlaps, overhangs
        assert meta.stripe == Interval(0, 110)
