"""The repository benchmark: seeded batch simulations, timed end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload farm-n1000 --seed 1 --seconds 30 --trace 0

One run makes whole cycles of the workload's repeats, one after another, each a
single simulation in a fresh single-threaded process (``child.py``), for
about ``--seconds``, and reports one value per end-to-end metric.  Its times
are the repeats' CPU seconds scaled to a reference host by the reference
kernel (``reference.py``), timed before and after every repeat.  ``--trace 1`` instead
makes one untraced and one traced repeat of the same input and reports
the per-layer metrics of the traced one.  Every repeat's result digest
is checked: against ``reference_digests.json`` where it holds one, and
the traced repeat against the untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from reference import REFERENCE_CPU_S
from workloads import DEFAULT_SEED, WORKLOADS, Workload, sim_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "reference_digests.json"
#: Traced runs write their spans here (Chrome trace JSON).
OUT_DIR = ROOT / ".perfbench-out"
#: A run never takes longer than this, whatever ``--seconds`` says.
HARD_LIMIT_S = 170.0
#: Exit code of ``child.py`` when the simulator is not importable.
CHILD_NO_PROGRAM = 3


class NoProgram(Exception):
    """The checkout holds no simulator to benchmark."""


def load_references(workload: Workload, seed: int) -> Optional[Dict[str, str]]:
    """The reference digests of a run with ``--seed seed``, keyed by
    simulation seed, or ``None`` if the references are of another seed."""
    with open(REFERENCES, encoding="utf-8") as handle:
        stored = json.load(handle)
    if stored["seed"] != seed:
        return None
    return stored["digests"].get(workload.name, {})


def run_child(
    workload: Workload,
    seed: int,
    trace: bool,
    timeout: float,
    span_file: Optional[Path] = None,
) -> Tuple[Optional[Dict[str, Any]], str]:
    """One repeat in a fresh process: ``(record or None, error)``."""
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload.name,
        "--sim-seed", str(seed),
        "--trace", str(int(trace)),
    ]
    if span_file is not None:
        command += ["--span-file", str(span_file)]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        done = subprocess.run(
            command + ["--t0", repr(t0)],
            capture_output=True,
            text=True,
            timeout=max(1.0, timeout),
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if done.returncode == CHILD_NO_PROGRAM:
        raise NoProgram(done.stderr.strip())
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit code {done.returncode}: {tail[0]}"
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, "no result line"


def run_kernel(timeout: float) -> float:
    """CPU seconds of the reference kernel, run in a process of its own."""
    done = subprocess.run(
        [sys.executable, str(HERE / "reference.py")],
        capture_output=True,
        text=True,
        timeout=max(1.0, timeout),
        check=True,
    )
    return float(done.stdout)


def check_digest(
    record: Dict[str, Any],
    references: Optional[Dict[str, str]],
    seed: int,
    expected: Optional[str] = None,
) -> str:
    """Why the repeat's digest is wrong, or ``""``.

    With ``references`` (a run of the reference seed) every repeat must
    have a reference digest and match it.
    """
    digest = record["digest"]
    if references is not None:
        reference = references.get(str(seed))
        if reference is None:
            return f"no reference digest for seed {seed}"
        if digest != reference:
            return f"digest {digest[:12]} != reference {reference[:12]}"
    if expected is not None and digest != expected:
        return f"digest {digest[:12]} != untraced {expected[:12]}"
    return ""


def describe(index: int, seed: int, record: Optional[Dict[str, Any]], error: str) -> str:
    if record is None:
        return f"repeat {index} seed {seed}: FAILED ({error})"
    status = f"FAILED ({error})" if error else "ok"
    line = (
        f"repeat {index} seed {seed}: host setup {record['setup_s']:.3f} s, "
        f"run {record['run_s']:.3f} s, wall {record['wall_s']:.3f} s; "
        f"CPU run {record['run_cpu_s']:.3f} s; "
    )
    if "kernel_cpu_s" in record:
        scale = speed_scale(record)
        line += (
            f"kernel {record['kernel_cpu_s'] * 1e3:.0f} ms, scaled setup "
            f"{record['setup_cpu_s'] * scale:.3f} s, run {record['run_cpu_s'] * scale:.3f} s, "
            f"wall {record['wall_cpu_s'] * scale:.3f} s, "
            f"{record['data_events'] / (record['run_cpu_s'] * scale):.0f} data events/s; "
        )
    return line + f"rss {record['rss_kb'] / 1024:.1f} MiB, digest {record['digest'][:16]} {status}"


def speed_scale(record: Dict[str, Any]) -> float:
    """The factor that turns the repeat's CPU times into those of the
    reference host: ``REFERENCE_CPU_S`` over its kernel time."""
    return REFERENCE_CPU_S / record["kernel_cpu_s"]


def end_to_end(records: List[Dict[str, Any]]) -> Dict[str, Tuple[float, str]]:
    """The run's end-to-end metrics.

    Times are the run process's CPU seconds, which leave out the time
    the host gave to other processes, scaled by ``speed_scale`` to the
    reference host, which takes out how fast the host's cores ran
    meanwhile.  Repeats simulate different inputs whose cost per event
    differs, so the two metrics that follow the input average over all
    repeats (whole cycles, so every input weighs the same): throughput
    is pooled (all data events over all seconds of ``Simulation.run``,
    as one long run would see them) and ``wall_s`` is the geometric
    mean.  Set-up time and RSS, which the input barely moves, are
    medians.
    """
    median = statistics.median
    return {
        "data_events_per_s": (
            sum(r["data_events"] for r in records)
            / sum(r["run_cpu_s"] * speed_scale(r) for r in records),
            "events/s",
        ),
        "wall_s": (
            statistics.geometric_mean(r["wall_cpu_s"] * speed_scale(r) for r in records),
            "s",
        ),
        "setup_s": (median(r["setup_cpu_s"] * speed_scale(r) for r in records), "s"),
        "peak_rss_mb": (median(r["rss_kb"] / 1024 for r in records), "MiB"),
    }


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    references: Optional[Dict[str, str]],
) -> Tuple[int, int, Dict[str, Tuple[float, str]]]:
    """The untraced run: whole cycles of ``workload.repeats`` repeats,
    then the end-to-end metrics over them.

    The reference kernel runs once to warm up, then before the first
    repeat and after every repeat; a repeat's kernel time is the mean of
    the two around it.  Repeat ``i`` of every cycle simulates
    ``sim_seed(seed, i)``.  Another
    cycle starts only if it is expected to end within ``seconds``; the
    first always runs.  So a faster commit simulates more cycles of the
    same inputs, never other inputs.  A cycle cut by ``HARD_LIMIT_S``
    counts its unrun repeats as failed.
    """
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    good: List[Dict[str, Any]] = []
    run_kernel(HARD_LIMIT_S)  # warm-up: the first run after a pause reads slow
    kernel = [run_kernel(HARD_LIMIT_S)]
    attempted = 0
    unrun = 0
    while True:
        rep_seed = sim_seed(seed, attempted % workload.repeats)
        record, error = run_child(workload, rep_seed, False, deadline - time.monotonic())
        kernel.append(run_kernel(deadline - time.monotonic()))
        if record is not None:
            record["kernel_cpu_s"] = (kernel[-2] + kernel[-1]) / 2
            error = check_digest(record, references, rep_seed)
            if not error:
                good.append(record)
        print(describe(attempted, rep_seed, record, error), flush=True)
        attempted += 1
        elapsed = time.monotonic() - start
        if elapsed >= HARD_LIMIT_S:
            unrun = -attempted % workload.repeats
            if unrun:
                print(f"hard limit of {HARD_LIMIT_S:.0f} s reached: {unrun} repeats not run")
            break
        if attempted % workload.repeats == 0:
            cycles = attempted // workload.repeats
            if elapsed * (cycles + 1) / cycles > seconds:
                break
    print(
        f"reference kernel {min(kernel) * 1e3:.0f}-{max(kernel) * 1e3:.0f} ms, "
        f"median {statistics.median(kernel) * 1e3:.0f} ms "
        f"(reference host {REFERENCE_CPU_S * 1e3:.0f} ms)"
    )
    attempted += unrun
    return attempted, attempted - len(good), end_to_end(good) if good else {}


def measure_traced(
    workload: Workload, seed: int, references: Optional[Dict[str, str]]
) -> Tuple[int, int, Dict[str, Tuple[float, str]]]:
    """The traced run: per-layer metrics of one traced repeat, checked
    against an untraced repeat of the same input."""
    deadline = time.monotonic() + HARD_LIMIT_S
    rep_seed = sim_seed(seed, 0)
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
    plain, error = run_child(workload, rep_seed, False, deadline - time.monotonic())
    if plain is not None:
        error = check_digest(plain, references, rep_seed)
    print(describe(0, rep_seed, plain, error), flush=True)
    if plain is None or error:
        return 2, 2, {}
    traced, error = run_child(
        workload, rep_seed, True, deadline - time.monotonic(), span_file
    )
    if traced is not None:
        error = check_digest(traced, references, rep_seed, expected=plain["digest"])
    print("traced " + describe(0, rep_seed, traced, error), flush=True)
    if traced is None or error:
        return 2, 1, {}
    print(f"spans written to {span_file}")
    metrics = {name: tuple(pair) for name, pair in traced["layers"].items()}
    metrics["trace.overhead_ratio"] = (traced["run_cpu_s"] / plain["run_cpu_s"], "ratio")
    return 2, 0, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics as JSON."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for about this long (no cycle of repeats starts that would overrun it)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    references = load_references(workload, args.seed)
    try:
        if args.trace:
            attempted, failed, metrics = measure_traced(workload, args.seed, references)
        else:
            attempted, failed, metrics = measure(
                workload, args.seed, args.seconds, references
            )
    except NoProgram as error:
        print(f"simulator not runnable: {error}", file=sys.stderr)
        return 2
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
