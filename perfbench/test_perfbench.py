"""Tests of the benchmark's own code, on tiny configurations.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from child import result_digest  # noqa: E402
from reference import REFERENCE_CPU_S, kernel, kernel_cpu_seconds  # noqa: E402
from run import check_digest, end_to_end, load_references, measure  # noqa: E402
from tracer import Tracer, layer_metrics, owner_bucket, traced  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload, sim_seed  # noqa: E402

from repro.cluster.cluster import Cluster  # noqa: E402
from repro.core import units  # noqa: E402
from repro.core.engine import Engine  # noqa: E402
from repro.sched.base import create_policy  # noqa: E402
from repro.sim.config import FaultConfig, NetFaultConfig, quick_config  # noqa: E402
from repro.sim.simulator import Simulation  # noqa: E402
from repro.topo.spec import topology_preset  # noqa: E402


def flat_config():
    return quick_config(n_nodes=6, arrival_rate_per_hour=5.0, duration=2 * units.DAY, seed=3)


def grid_config():
    return flat_config().with_(
        topology=topology_preset("depth3", "lru-rack"),
        faults=FaultConfig(node_mtbf=0.5 * units.DAY, node_mttr=units.HOUR),
        net=NetFaultConfig(loss=0.05, duplicate=0.01, delay_mean=0.05),
    )


CASES = [
    (flat_config, "farm"),
    (flat_config, "cache-splitting"),
    (flat_config, "out-of-order"),
    (grid_config, "decentral"),
]


def simulate(config, policy):
    sim = Simulation(config, create_policy(policy))
    return sim, sim.run()


def simulate_traced(config, policy):
    tracer = Tracer()
    with traced(tracer):
        start = time.perf_counter()
        sim, result = simulate(config, policy)
        wall = time.perf_counter() - start
    return tracer, sim, result, wall


@pytest.mark.parametrize("make_config,policy", CASES)
def test_tracing_leaves_the_digest_unchanged(make_config, policy):
    _, plain = simulate(make_config(), policy)
    _, _, result, _ = simulate_traced(make_config(), policy)
    assert result_digest(result) == result_digest(plain)


@pytest.mark.parametrize("make_config,policy", CASES)
def test_self_times_sum_to_at_most_the_traced_wall_time(make_config, policy):
    tracer, _, _, wall = simulate_traced(make_config(), policy)
    assert all(value >= 0 for value in tracer.self_s.values())
    assert 0 < sum(tracer.self_s.values()) <= wall


@pytest.mark.parametrize("make_config,policy", CASES)
def test_obs_stays_silent_with_tracing_off(make_config, policy):
    tracer, sim, result, _ = simulate_traced(make_config(), policy)
    assert layer_metrics(tracer, sim, result)["obs.emit.calls"][0] == 0


def test_flat_run_never_enters_topo_or_faults():
    tracer, sim, result, _ = simulate_traced(flat_config(), "cache-splitting")
    metrics = layer_metrics(tracer, sim, result)
    for name in (
        "topo.plans",
        "faults.failures",
        "faults.net.messages",
        "faults.net.retransmits",
    ):
        assert metrics[name][0] == 0, name
    for bucket in ("topo", "faults", "faults.net"):
        assert tracer.calls[bucket] == 0, bucket
    assert metrics["data.cache.lookups"][0] > 0
    assert metrics["sched.best_subjob.calls"][0] > 0


def test_grid_run_is_charged_to_topo_and_faults():
    tracer, sim, result, _ = simulate_traced(grid_config(), "decentral")
    metrics = layer_metrics(tracer, sim, result)
    assert metrics["topo.plans"][0] == metrics["cluster.node.chunks"][0] > 0
    assert metrics["faults.failures"][0] > 0
    assert metrics["faults.net.messages"][0] > 0
    for bucket in ("topo", "faults", "faults.net", "sched"):
        assert tracer.self_s[bucket] > 0, bucket


def test_decisions_and_scan_counters_are_consistent():
    tracer, sim, result, _ = simulate_traced(flat_config(), "cache-splitting")
    metrics = layer_metrics(tracer, sim, result)
    assert metrics["sched.decisions"][0] == metrics["sched.decision_us.samples"][0] > 0
    assert 0 < metrics["sched.decision_us.p50"][0] <= metrics["sched.decision_us.p99"][0]
    assert metrics["cluster.idle_nodes.nodes_scanned"][0] == 6 * metrics["cluster.idle_nodes.calls"][0]
    assert 0 <= metrics["cluster.idle_nodes.yield"][0] <= 1
    assert 0 <= metrics["workload.jobs.scan_yield"][0] <= 1
    assert 0 <= metrics["data.cache.lookup_hit_ratio"][0] <= 1
    assert metrics["core.engine.events"][0] == result.engine_events


def test_restore_unpatches_every_boundary():
    original = Engine.__dict__["call_at"]
    tracer = Tracer()
    with traced(tracer):
        assert Engine.__dict__["call_at"] is not original
    assert Engine.__dict__["call_at"] is original


def test_install_fails_on_a_missing_boundary(monkeypatch):
    original = Engine.__dict__["call_at"]
    monkeypatch.delattr(Cluster, "idle_nodes")
    with pytest.raises(AttributeError, match="idle_nodes"):
        with traced(Tracer()):
            pass
    assert Engine.__dict__["call_at"] is original


def test_spans_are_capped_and_written_once(tmp_path):
    tracer = Tracer(span_cap=50)
    with traced(tracer):
        simulate(flat_config(), "farm")
    path = tmp_path / "spans.json"
    tracer.write_spans(str(path), {"workload": "tiny"})
    trace = json.loads(path.read_text())
    assert len(trace["traceEvents"]) == 50
    assert trace["otherData"]["spans_total"] == tracer.spans_total > 50


def test_owner_bucket_prefers_the_longest_prefix():
    assert owner_bucket("repro.faults.net") == "faults.net"
    assert owner_bucket("repro.faults.injector") == "faults"
    assert owner_bucket("repro.cluster.node") == "cluster.node"
    assert owner_bucket("repro.cluster.access") == "cluster.access"
    assert owner_bucket("repro.sim.metrics") == "sim.metrics"


def test_digest_check_uses_references_and_the_untraced_run():
    record = {"digest": "ab" * 32}
    assert check_digest(record, None, 7) == ""
    assert check_digest(record, {"7": "ab" * 32}, 7) == ""
    assert "!= reference" in check_digest(record, {"7": "cd" * 32}, 7)
    assert "no reference" in check_digest(record, {"8": "ab" * 32}, 7)
    assert "untraced" in check_digest(record, None, 7, expected="cd" * 32)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_references_cover_every_repeat_of_the_reference_seed(workload):
    references = load_references(WORKLOADS[workload], DEFAULT_SEED)
    assert set(references) == {
        str(sim_seed(DEFAULT_SEED, rep)) for rep in range(WORKLOADS[workload].repeats)
    }
    assert load_references(WORKLOADS[workload], DEFAULT_SEED + 1) is None


def fake_children(monkeypatch):
    """Replace the child process by a record of the seeds it was given,
    and the reference kernel by the reference host's time."""
    seeds = []

    def fake_run_child(workload, seed, trace, timeout, span_file=None):
        seeds.append(seed)
        record = {"digest": "ab" * 32, "data_events": 10, "run_s": 1.0, "wall_s": 1.5,
                  "setup_s": 0.5, "run_cpu_s": 1.0, "wall_cpu_s": 1.5, "setup_cpu_s": 0.5,
                  "kernel_cpu_s": REFERENCE_CPU_S, "rss_kb": 1024}
        return record, ""

    monkeypatch.setattr(run, "run_child", fake_run_child)
    monkeypatch.setattr(run, "run_kernel", lambda timeout: REFERENCE_CPU_S)
    return seeds


def test_a_run_simulates_whole_cycles_of_the_same_inputs(monkeypatch):
    seeds = fake_children(monkeypatch)
    tiny = Workload("tiny", "farm", flat_config, repeats=3)
    attempted, failed, _ = measure(tiny, 5, seconds=0.0, references=None)
    assert (attempted, failed) == (3, 0)
    assert seeds == [5000, 5001, 5002]
    seeds.clear()
    attempted, failed, _ = measure(tiny, 5, seconds=0.05, references=None)
    assert attempted % 3 == 0 and attempted > 3 and failed == 0
    assert seeds == [5000, 5001, 5002] * (attempted // 3)


def test_a_cycle_cut_by_the_hard_limit_fails_its_unrun_repeats(monkeypatch):
    seeds = fake_children(monkeypatch)
    monkeypatch.setattr(run, "HARD_LIMIT_S", 0.0)
    tiny = Workload("tiny", "farm", flat_config, repeats=3)
    assert measure(tiny, 5, seconds=60.0, references=None)[:2] == (3, 2)
    assert seeds == [5000]


def test_throughput_is_pooled_wall_is_geometric_and_the_rest_medians():
    records = [
        {"data_events": 100, "run_cpu_s": run_s, "wall_cpu_s": 2 * run_s, "setup_cpu_s": run_s,
         "kernel_cpu_s": REFERENCE_CPU_S, "rss_kb": 2048}
        for run_s in (1.0, 2.0, 5.0)
    ]
    metrics = end_to_end(records)
    assert metrics["data_events_per_s"] == (37.5, "events/s")
    assert metrics["wall_s"][0] == pytest.approx((2 * 4 * 10) ** (1 / 3))
    assert metrics["setup_s"] == (2.0, "s")
    assert metrics["peak_rss_mb"] == (2.0, "MiB")


def test_times_are_scaled_to_the_reference_host():
    """A repeat on a host twice as slow as the reference host (its kernel
    takes twice as long) reports the same times as one on the reference
    host taking half the CPU seconds."""
    slow = {"data_events": 100, "run_cpu_s": 4.0, "wall_cpu_s": 6.0, "setup_cpu_s": 2.0,
            "kernel_cpu_s": 2 * REFERENCE_CPU_S, "rss_kb": 1024}
    metrics = end_to_end([slow])
    assert metrics["data_events_per_s"][0] == pytest.approx(50.0)
    assert metrics["wall_s"][0] == pytest.approx(3.0)
    assert metrics["setup_s"][0] == pytest.approx(1.0)


def test_reference_kernel_is_deterministic_and_leaves_collection_on():
    assert kernel() == kernel()
    assert kernel_cpu_seconds() > 0
    assert gc.isenabled()


def test_repeat_seeds_are_distinct_per_run_and_repeat():
    seeds = {sim_seed(seed, rep) for seed in range(1, 11) for rep in range(100)}
    assert len(seeds) == 1000


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "farm-n1000",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
