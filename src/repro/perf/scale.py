"""Scale-tier benchmarks: the simulator at 10, 100 and 1000 nodes.

The ``kernel`` and ``policies`` reports guard the hot paths at the
paper's cluster size (tens of nodes).  This tier guards the *scale-out*
story instead: one end-to-end ``run_simulation`` per cluster size, each
reporting wall time, data-event throughput **and peak RSS**, so CI
catches both a slowdown and a memory-bound regression (e.g. a per-job
list sneaking back into the metrics path).

Design notes, documented in docs/SCALING.md:

* **Policy is ``farm``.**  The out-of-order policy scans every node per
  scheduling decision — O(nodes) per job, which is the right trade at
  the paper's 10-node scale but makes a 1000-node run ~50x slower than
  farm without changing what this tier measures (engine + metrics +
  workload generation scaling).
* **Each point runs in a fresh spawned child process.**  Linux
  ``ru_maxrss`` is monotone over a process lifetime, so measuring two
  cluster sizes in one process would report the larger size's peak for
  both.  A ``spawn`` (not ``fork``) child starts from a clean RSS
  baseline; the parent never pays the simulation's memory.
* **Throughput counts engine events**, not data events: the quantity
  that scales with cluster size and job count, and the denominator the
  streaming-metrics work is amortised over.

>>> record = bench_scale_point(4, duration_days=0.05, in_process=True)
>>> record.name
'sim.scale.n4'
>>> record.unit
'events'
>>> record.rss_kb is not None and record.rss_kb > 0
True
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Dict, Optional, Sequence, Tuple

from ..core import units
from ..sim.config import SimulationConfig, quick_config
from ..sim.simulator import run_simulation
from .report import BenchRecord, BenchReport, peak_rss_kb

#: Cluster sizes of the full scale tier (``repro bench --kind scale``).
SCALE_SIZES: Tuple[int, ...] = (10, 100, 1000)

#: Subset run in ``--quick`` mode (CI smoke: seconds, not half a minute).
QUICK_SCALE_SIZES: Tuple[int, ...] = (10, 100)

#: Simulated days per cluster size.  Large clusters drain proportionally
#: more jobs per simulated hour, so the horizon shrinks as the size
#: grows to keep each point's wall time comparable.
SCALE_DURATION_DAYS: Dict[int, float] = {10: 2.0, 100: 2.0, 1000: 0.5}

#: Scheduling policy of the scale tier (see the module docstring).
SCALE_POLICY = "farm"

#: Offered load per node per hour.  2.5 jobs/node/hour on the quick
#: cost model puts utilization near (but below) saturation, so the
#: calendar and metrics paths are exercised under realistic pressure.
SCALE_JOBS_PER_NODE_HOUR = 2.5


def scale_config(
    n_nodes: int, duration_days: Optional[float] = None
) -> SimulationConfig:
    """The scale-tier configuration for one cluster size.

    The quick cost model with the arrival rate scaled linearly in the
    node count, finer chunking (more engine events per job), and a
    dedicated seed so the tier's workloads are not correlated with any
    test fixture.
    """
    if duration_days is None:
        duration_days = SCALE_DURATION_DAYS.get(n_nodes, 1.0)
    return quick_config(
        n_nodes=n_nodes,
        arrival_rate_per_hour=SCALE_JOBS_PER_NODE_HOUR * n_nodes,
        chunk_events=100,
        mean_job_events=2_000.0,
        duration=duration_days * units.DAY,
        seed=7,
    )


def _scale_payload(n_nodes: int, duration_days: Optional[float]) -> Dict[str, Any]:
    """Run one scale point and summarise it (runs inside the child)."""
    result = run_simulation(scale_config(n_nodes, duration_days), SCALE_POLICY)
    return {
        "wall_seconds": result.wall_seconds,
        "engine_events": result.engine_events,
        "jobs_completed": result.jobs_completed,
        "records_dropped": result.records_dropped,
        "exact": result.measured.exact,
        "rss_kb": peak_rss_kb(),
    }


def _scale_child(
    conn: "multiprocessing.connection.Connection",
    n_nodes: int,
    duration_days: Optional[float],
) -> None:  # pragma: no cover - exercised via spawn in bench_scale_point
    try:
        conn.send(_scale_payload(n_nodes, duration_days))
    finally:
        conn.close()


def _run_in_child(n_nodes: int, duration_days: Optional[float]) -> Dict[str, Any]:
    """One scale point in a fresh ``spawn`` child (clean ``ru_maxrss``)."""
    context = multiprocessing.get_context("spawn")
    parent_conn, child_conn = context.Pipe(duplex=False)
    process = context.Process(
        target=_scale_child, args=(child_conn, n_nodes, duration_days)
    )
    process.start()
    child_conn.close()
    try:
        payload: Dict[str, Any] = parent_conn.recv()
    except EOFError:
        process.join()
        raise RuntimeError(
            f"scale benchmark child (n_nodes={n_nodes}) died with exit code "
            f"{process.exitcode}"
        ) from None
    finally:
        parent_conn.close()
    process.join()
    return payload


def bench_scale_point(
    n_nodes: int,
    repeats: int = 1,
    duration_days: Optional[float] = None,
    in_process: bool = False,
) -> BenchRecord:
    """Benchmark one cluster size end-to-end; work is engine events.

    Each repeat runs in a fresh spawned child process so ``rss_kb`` is
    that run's true peak (best wall time, maximum RSS over repeats).
    ``in_process=True`` skips the child — cheaper for tests and
    doctests, but then ``rss_kb`` inherits this process's monotone peak.
    """
    best_wall: Optional[float] = None
    work = 0
    rss_kb = 0
    for _ in range(max(1, repeats)):
        if in_process:
            payload = _scale_payload(n_nodes, duration_days)
        else:
            payload = _run_in_child(n_nodes, duration_days)
        wall = float(payload["wall_seconds"])
        if best_wall is None or wall < best_wall:
            best_wall = wall
            work = int(payload["engine_events"])
        rss_kb = max(rss_kb, int(payload["rss_kb"]))
    assert best_wall is not None
    return BenchRecord(
        name=f"sim.scale.n{n_nodes}",
        wall_seconds=best_wall,
        work=work,
        unit="events",
        repeats=repeats,
        rss_kb=rss_kb,
    )


def run_scale_bench(
    quick: bool = False,
    sizes: Optional[Sequence[int]] = None,
) -> BenchReport:
    """All scale points as one ``scale`` report.

    The points run in child processes, which cProfile in the parent
    cannot see, so scale records carry no hotspots.
    """
    if sizes is None:
        sizes = QUICK_SCALE_SIZES if quick else SCALE_SIZES
    records = tuple(bench_scale_point(n_nodes) for n_nodes in sizes)
    return BenchReport(kind="scale", records=records)
