"""Tests for the scheduler complexity instrumentation."""

import pytest

from repro.analysis.complexity import CallbackProfile, profile_policy
from repro.core import units

from .policy_helpers import micro_config, trace


class TestCallbackProfile:
    def test_accumulates(self):
        profile = CallbackProfile()
        profile.add(0.5)
        profile.add(1.5)
        assert profile.calls == 2
        assert profile.total_seconds == pytest.approx(2.0)
        assert profile.max_seconds == pytest.approx(1.5)
        assert profile.mean_seconds == pytest.approx(1.0)

    def test_empty_mean_is_nan(self):
        import math

        assert math.isnan(CallbackProfile().mean_seconds)


class TestProfilePolicy:
    ENTRIES = [
        (i * 600.0, (i * 9001) % 60_000, 400 + 31 * (i % 5)) for i in range(30)
    ]

    @pytest.fixture(scope="class")
    def report(self):
        return profile_policy(
            micro_config(duration=6 * units.DAY),
            "out-of-order",
            trace=trace(*self.ENTRIES),
        )

    def test_simulation_unaffected(self, report):
        assert report.result is not None
        assert report.result.jobs_completed == len(self.ENTRIES)

    def test_arrival_callbacks_counted(self, report):
        assert report.profiles["on_job_arrival"].calls == len(self.ENTRIES)

    def test_end_callbacks_partition_completions(self, report):
        ends = (
            report.profiles["on_subjob_end"].calls
            + report.profiles["on_job_end"].calls
        )
        assert report.profiles["on_job_end"].calls == len(self.ENTRIES)
        assert ends >= len(self.ENTRIES)

    def test_decision_costs_are_tiny(self, report):
        # The production-practicality claim: decisions are milliseconds.
        assert report.profiles["on_job_arrival"].mean_seconds < 0.05
        assert report.scheduler_seconds_per_job < 0.1

    def test_space_samples_collected(self, report):
        assert len(report.space) > 10
        assert report.peak_queued_subjobs() >= 0
        assert report.peak_cache_extents() >= 1

    def test_instrumented_matches_plain_run(self):
        from .policy_helpers import run_policy

        plain = run_policy(
            "out-of-order",
            trace(*self.ENTRIES),
            micro_config(duration=6 * units.DAY),
        )
        instrumented = profile_policy(
            micro_config(duration=6 * units.DAY),
            "out-of-order",
            trace=trace(*self.ENTRIES),
        )
        # Instrumentation must not change the simulation itself.
        assert instrumented.result.measured.mean_speedup == pytest.approx(
            plain.measured.mean_speedup
        )
        assert (
            instrumented.result.tertiary_events_read
            == plain.tertiary_events_read
        )


class TestSpaceProbe:
    """The space probe walks the live-subjob index; its samples are pinned
    to the values of the original walk over every subjob ever split."""

    ENTRIES = [
        (i * 240.0, (i * 9001) % 60_000, 1500 + 377 * (i % 7)) for i in range(40)
    ]

    @pytest.mark.parametrize(
        "policy,samples,live_sum,queued_sum,peak_live,peak_queued",
        [
            ("cache-splitting", 289, 159, 25, 6, 4),
            ("out-of-order", 289, 895, 779, 28, 26),
        ],
    )
    def test_samples_pinned(
        self, policy, samples, live_sum, queued_sum, peak_live, peak_queued
    ):
        report = profile_policy(
            micro_config(duration=2 * units.DAY, probe_interval=600.0),
            policy,
            trace=trace(*self.ENTRIES),
        )
        space = report.space
        assert len(space) == samples
        assert sum(s.live_subjobs for s in space) == live_sum
        assert sum(s.queued_subjobs for s in space) == queued_sum
        assert max(s.live_subjobs for s in space) == peak_live
        assert report.peak_queued_subjobs() == peak_queued


class TestComplexityExperiment:
    def test_registered_and_renders(self):
        from repro.experiments import Scale, run_experiment

        outcome = run_experiment("complexity", scale=Scale.SMOKE, processes=1)
        assert "arrival mean (ms)" in outcome.rendered
        assert "out-of-order@10n" in outcome.rendered
