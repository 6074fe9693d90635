"""One benchmark repeat: a single simulation in a fresh process.

``run.py`` starts this script once per repeat, so the repeat's
``ru_maxrss`` and set-up time (interpreter start and imports included)
belong to it alone.  It prints one JSON line: the host and CPU times of
set-up and run, the peak RSS, the data events simulated, the digest of
the result summary and, for a traced repeat, the per-layer metrics.

Exit code 3 means the simulator could not be imported from this
checkout's ``src/``.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

def now() -> float:
    """A clock shared by every process on the host (``t0`` comes from the
    parent)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def result_digest(result) -> str:
    """SHA-256 of the result summary without its host wall time."""
    from repro.sim.export import result_summary_dict

    summary = result_summary_dict(result)
    del summary["wall_seconds"]
    payload = json.dumps(summary, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def import_simulator() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit with code 3."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as error:
        print(f"cannot import repro from {SRC}: {error}", file=sys.stderr)
        raise SystemExit(3)
    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"repro was imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(3)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--sim-seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="host monotonic time at which the parent started this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--span-file", default=None)
    args = parser.parse_args(argv)

    import_simulator()
    from workloads import WORKLOADS
    from repro.sched.base import create_policy
    from repro.sim.simulator import Simulation

    workload = WORKLOADS[args.workload]
    tracer = None
    context = nullcontext()
    if args.trace:
        from tracer import Tracer, traced

        tracer = Tracer()
        context = traced(tracer)
    with context:
        config = workload.build(args.sim_seed)
        sim = Simulation(config, create_policy(workload.policy))
        sim.prime()
        primed = now()
        primed_cpu = time.process_time()
        result = sim.run()
        done = now()
        done_cpu = time.process_time()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # CPU times count from the process's start, interpreter start-up included.
    record = {
        "setup_s": primed - args.t0,
        "run_s": done - primed,
        "wall_s": done - args.t0,
        "setup_cpu_s": primed_cpu,
        "run_cpu_s": done_cpu - primed_cpu,
        "wall_cpu_s": done_cpu,
        "data_events": sum(result.events_by_source.values()),
        "rss_kb": rss_kb,
        "digest": result_digest(result),
    }
    if tracer is not None:
        from tracer import layer_metrics

        record["layers"] = layer_metrics(tracer, sim, result)
        if args.span_file:
            tracer.write_spans(
                args.span_file,
                {"workload": workload.name, "sim_seed": args.sim_seed},
            )
    print(json.dumps(record))


if __name__ == "__main__":
    main()
