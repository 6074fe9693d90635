"""Shared infrastructure for the benchmark suite.

Each ``bench_fig*.py`` regenerates one figure (or in-text claim) of the
paper at a reduced-but-faithful scale and prints the same rows/series the
paper reports.  Set ``REPRO_BENCH_SCALE=smoke|quick|full`` to trade
fidelity for wall time (default: quick).

The suite checks the science, not the speed: simulator throughput is
timed by ``repro bench`` (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import Scale, run_experiment


def bench_scale() -> Scale:
    return Scale(os.environ.get("REPRO_BENCH_SCALE", "quick"))


def run_figure(exp_id: str, scale: Scale | None = None):
    """Run one registered experiment and print its paper-figure output."""
    scale = scale or bench_scale()
    outcome = run_experiment(exp_id, scale=scale, processes=None)
    header = (
        f"\n{'=' * 72}\n{exp_id}: {outcome.experiment.title} "
        f"[scale={scale.value}]\n"
        f"paper: {outcome.experiment.paper_ref}\n"
        f"expected shape: {outcome.experiment.expectation}\n{'=' * 72}"
    )
    print(header)
    print(outcome.rendered)
    return outcome


@pytest.fixture
def figure():
    """Fixture returning :func:`run_figure`."""
    return run_figure
