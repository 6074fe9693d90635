"""Scheduler time/space complexity instrumentation.

The paper defers this analysis: "Due to space limitations, the time and
space complexity analysis of the proposed scheduling policies will be
developed in a subsequent paper" (footnote 1).  This module provides the
measurement side of that missing study:

* **time**: wall-clock cost of every policy callback (arrival, subjob
  end, job end), aggregated per notification kind;
* **space**: peak and mean sizes of the policy's queue structures, the
  number of live subjobs, and the cache extent counts —

as functions of cluster size and offered load, via the ``complexity``
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.clock import wall_clock
from ..sched.base import SchedulerPolicy
from ..sim.config import SimulationConfig
from ..sim.simulator import Simulation, SimulationResult
from ..workload.jobs import JobRequest, SubjobState


@dataclass
class CallbackProfile:
    """Wall-clock samples of one policy callback kind."""

    calls: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0

    def add(self, seconds: float) -> None:
        self.calls += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else float("nan")


@dataclass
class SpaceSample:
    """One probe of the scheduler's data-structure sizes."""

    time: float
    live_subjobs: int
    queued_subjobs: int
    cache_extents: int


@dataclass
class ComplexityReport:
    """Scheduler-cost measurements of one instrumented run."""

    policy: str
    n_nodes: int
    load_per_hour: float
    profiles: Dict[str, CallbackProfile]
    space: List[SpaceSample]
    result: Optional[SimulationResult] = None

    @property
    def scheduler_seconds_total(self) -> float:
        return sum(p.total_seconds for p in self.profiles.values())

    @property
    def scheduler_seconds_per_job(self) -> float:
        jobs = self.result.jobs_arrived if self.result else 0
        return self.scheduler_seconds_total / jobs if jobs else float("nan")

    def peak_queued_subjobs(self) -> int:
        return max((s.queued_subjobs for s in self.space), default=0)

    def mean_queued_subjobs(self) -> float:
        if not self.space:
            return float("nan")
        return float(np.mean([s.queued_subjobs for s in self.space]))

    def peak_cache_extents(self) -> int:
        return max((s.cache_extents for s in self.space), default=0)


class _InstrumentedPolicy:
    """Transparent wrapper timing every policy notification."""

    def __init__(self, policy: SchedulerPolicy, report: ComplexityReport) -> None:
        self._policy = policy
        self._report = report

    def __getattr__(self, name):
        return getattr(self._policy, name)

    def _timed(self, kind: str, method, *args) -> None:
        started = wall_clock()
        try:
            method(*args)
        finally:
            self._report.profiles[kind].add(wall_clock() - started)

    def on_job_arrival(self, job) -> None:
        self._timed("on_job_arrival", self._policy.on_job_arrival, job)

    def on_subjob_end(self, node, subjob) -> None:
        self._timed("on_subjob_end", self._policy.on_subjob_end, node, subjob)

    def on_job_end(self, node, job, subjob) -> None:
        self._timed("on_job_end", self._policy.on_job_end, node, job, subjob)


def profile_policy(
    config: SimulationConfig,
    policy: str,
    trace: Optional[Sequence[JobRequest]] = None,
    space_probe_interval: Optional[float] = None,
    **policy_params,
) -> ComplexityReport:
    """Run one simulation with an instrumented policy and collect its
    time/space complexity profile."""
    from ..sched.base import create_policy

    inner = create_policy(policy, **policy_params)
    report = ComplexityReport(
        policy=policy,
        n_nodes=config.n_nodes,
        load_per_hour=config.arrival_rate_per_hour,
        profiles={
            kind: CallbackProfile()
            for kind in ("on_job_arrival", "on_subjob_end", "on_job_end")
        },
        space=[],
    )
    instrumented = _InstrumentedPolicy(inner, report)
    simulation = Simulation(config, instrumented, trace=trace)  # type: ignore[arg-type]

    interval = space_probe_interval or config.probe_interval

    def probe_space() -> None:
        live = 0
        queued = 0
        for job in simulation.jobs.values():
            live += len(job.live)
            for subjob in job.live:
                if subjob.state is not SubjobState.RUNNING:
                    queued += 1
        extents = sum(n.cache.extent_count() for n in simulation.cluster)
        report.space.append(
            SpaceSample(
                time=simulation.engine.now,
                live_subjobs=live,
                queued_subjobs=queued,
                cache_extents=extents,
            )
        )
        if simulation.engine.now + interval <= config.duration:
            simulation.engine.call_after(interval, probe_space)

    simulation.engine.call_at(0.0, probe_space)
    report.result = simulation.run()
    return report
