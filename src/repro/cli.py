"""Command-line interface: ``python -m repro`` / ``repro``.

Subcommands::

    repro policies                      # list scheduling policies
    repro experiments                   # list registered experiments
    repro limits                        # print the paper's theoretical anchors
    repro run fig3 --scale quick        # regenerate a figure
    repro run-all --scale full -o report.md
    repro sweep fig3 -o fig3.json       # sweep -> summary-JSON v7

Sweep-shaped commands (run, run-all, sweep, export, replicate,
calibrate) share the execution-layer knobs: ``--jobs/-j`` (worker
processes; ``$REPRO_JOBS`` sets the default), and where results are
cacheable ``--no-cache``, ``--cache-dir`` and ``--resume``.
    repro simulate --policy out-of-order --load 1.5 --days 20
    repro trace --policy out-of-order --days 7 -o run   # traced run
    repro calibrate --stripe 5000       # measure the adaptive delay table
    repro lint                          # simlint static analysis
    repro bench --quick --baseline-dir .   # benchmark + regression check
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .exec.executor import Executor

from . import __version__
from .analysis.tables import format_table
from .analysis.theory import theoretical_limits
from .core import units
from .experiments import (
    Scale,
    available_experiments,
    calibrate_delay_table,
    get_experiment,
    render_markdown_report,
    run_experiment,
    summarize_table,
)
from .sched import available_policies, policy_parameters, unknown_policy_message
from .sim.config import FaultConfig, NetFaultConfig, paper_config
from .sim.simulator import run_simulation


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=[s.value for s in Scale],
        default=Scale.QUICK.value,
        help="sweep size: smoke (seconds), quick (minutes), full (paper-faithful)",
    )


def _add_exec_args(parser: argparse.ArgumentParser, cache: bool = True) -> None:
    """The uniform execution-layer knobs (``repro.exec``)."""
    group = parser.add_argument_group("execution layer (repro.exec)")
    group.add_argument(
        "--jobs",
        "-j",
        "--processes",
        dest="jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: auto — serial for tiny sweeps, "
        "one per CPU otherwise; $REPRO_JOBS overrides the default; 1 = serial)",
    )
    if not cache:
        return
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed result cache (recompute every "
        "point even when .repro-cache/ already holds it)",
    )
    group.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache location (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted sweep from its checkpoint journal: "
        "run only the specs the journal does not mark complete",
    )
    group.add_argument(
        "--spec-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill a sweep point that produces no completion within this "
        "many wall seconds and record it as SpecError(kind='timeout') "
        "($REPRO_SPEC_TIMEOUT sets the default)",
    )


def _executor_from_args(
    args: argparse.Namespace, journal_name: Optional[str] = None
) -> "Executor":
    """Build the executor a sweep-shaped command asked for."""
    from .exec import Executor, RetryPolicy, make_cache

    resume = bool(getattr(args, "resume", False))
    no_cache = bool(getattr(args, "no_cache", True))
    if resume and no_cache:
        raise SystemExit("repro: --resume requires the result cache (drop --no-cache)")
    cache = None
    journal_path = None
    if not no_cache:
        cache = make_cache(getattr(args, "cache_dir", None))
        if journal_name is not None:
            journal_path = cache.journal_path(journal_name)
    return Executor(
        jobs=args.jobs,
        cache=cache,
        retry=RetryPolicy(max_attempts=2),
        journal_path=journal_path,
        resume=resume,
        spec_timeout=getattr(args, "spec_timeout", None),
    )


def _print_exec_stats(sweep) -> None:
    if sweep.stats is not None:
        print(sweep.stats.brief())


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("fault injection (repro.faults)")
    group.add_argument(
        "--faults",
        action="store_true",
        help="inject node crashes from seeded exponential MTBF/MTTR processes",
    )
    group.add_argument(
        "--mtbf",
        default="1d",
        metavar="DUR",
        help="mean time between failures per node, e.g. 6h, 1d, 1w (default 1d)",
    )
    group.add_argument(
        "--mttr",
        default="2h",
        metavar="DUR",
        help="mean time to repair per node (default 2h)",
    )
    group.add_argument(
        "--stall-interval",
        default=None,
        metavar="DUR",
        help="also inject cluster-wide tertiary stalls with this mean gap "
        "(off unless given)",
    )
    group.add_argument(
        "--wipe-cache",
        action="store_true",
        help="a crash also loses the node's disk cache contents",
    )
    net = parser.add_argument_group("control-plane faults (repro.faults.net)")
    net.add_argument(
        "--net-loss",
        type=float,
        default=0.0,
        metavar="P",
        help="per-message control-plane loss probability in [0, 1) "
        "(default 0: perfect network, zero-overhead pass-through)",
    )
    net.add_argument(
        "--net-dup",
        type=float,
        default=0.0,
        metavar="P",
        help="per-message duplication probability in [0, 1)",
    )
    net.add_argument(
        "--net-delay",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="mean exponential one-way message delay in simulated seconds",
    )
    net.add_argument(
        "--net-reorder",
        type=float,
        default=0.0,
        metavar="P",
        help="probability a message copy is held back past later traffic",
    )


def _add_topology_arg(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("hierarchical topology (repro.topo)")
    group.add_argument(
        "--topology",
        default=None,
        metavar="FILE|PRESET",
        help="run on a hierarchical data grid: a preset name (flat, "
        "depth2, depth3 — optionally NAME:PLACEMENT, e.g. "
        "depth3:lru-rack) or a TopologySpec JSON file; default is the "
        "paper's flat cluster",
    )


def _resolve_topology(value: str, prog: str):
    """Parse a ``--topology`` value: preset[:placement] or a JSON file.

    Exits with status 2 (argparse convention) on unknown presets, bad
    placements, unreadable files and invalid specs — all carrying the
    spec validator's actionable message.
    """
    import json
    import os

    from .core.errors import ConfigurationError
    from .topo.spec import TOPOLOGY_PRESETS, TopologySpec, topology_preset

    def _die(message: str) -> "SystemExit":
        print(f"{prog}: --topology: {message}", file=sys.stderr)
        return SystemExit(2)

    looks_like_file = (
        os.sep in value or value.endswith(".json") or os.path.exists(value)
    )
    if not looks_like_file:
        name, _, placement = value.partition(":")
        if name in TOPOLOGY_PRESETS:
            try:
                return topology_preset(name, placement or "none")
            except ConfigurationError as error:
                raise _die(str(error)) from None
        raise _die(
            f"unknown preset {name!r} and no such file; presets: "
            f"{', '.join(sorted(TOPOLOGY_PRESETS))}"
        )
    try:
        with open(value, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as error:
        raise _die(f"cannot read {value!r}: {error}") from None
    except json.JSONDecodeError as error:
        raise _die(f"{value!r} is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise _die(f"{value!r} must contain a JSON object")
    try:
        return TopologySpec.from_dict(payload)
    except (ConfigurationError, TypeError) as error:
        raise _die(f"{value!r}: {error}") from None


def _topology_from_args(args: argparse.Namespace, prog: str):
    if getattr(args, "topology", None) is None:
        return None
    return _resolve_topology(args.topology, prog)


def _net_config_from_args(args: argparse.Namespace) -> Optional[NetFaultConfig]:
    """The control-plane fault model the flags describe (None = perfect)."""
    net = NetFaultConfig(
        loss=args.net_loss,
        duplicate=args.net_dup,
        delay_mean=args.net_delay,
        reorder=args.net_reorder,
    )
    return net if net.enabled else None


def _fault_config_from_args(args: argparse.Namespace) -> Optional[FaultConfig]:
    if not args.faults:
        if args.wipe_cache or args.stall_interval is not None:
            raise SystemExit(
                "repro: --wipe-cache/--stall-interval require --faults"
            )
        return None
    return FaultConfig(
        node_mtbf=units.parse_duration(args.mtbf),
        node_mttr=units.parse_duration(args.mttr),
        wipe_cache_on_failure=args.wipe_cache,
        stall_interval=(
            units.parse_duration(args.stall_interval)
            if args.stall_interval is not None
            else 0.0
        ),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Ponce & Hersch (IPDPS 2004): data-"
        "intensive analysis-job scheduling on PC clusters.",
        epilog=(
            "fault injection: simulate/trace accept --faults --mtbf DUR "
            "--mttr DUR [--stall-interval DUR] [--wipe-cache], plus "
            "--net-loss/--net-dup/--net-delay/--net-reorder for "
            "control-plane message faults (repro.faults.net).  "
            "performance: `repro bench` times the kernel hot paths, "
            "every policy end-to-end and the 10/100/1000-node scale tier "
            "(peak RSS included), writes BENCH_kernel.json / "
            "BENCH_policies.json / BENCH_scale.json, and with "
            "--baseline-dir fails on throughput or memory regressions "
            "(see docs/PERFORMANCE.md and docs/SCALING.md)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("policies", help="list available scheduling policies")
    sub.add_parser("experiments", help="list registered experiments")
    sub.add_parser("limits", help="print the theoretical performance anchors")

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment id (e.g. fig3)")
    _add_scale(run_parser)
    _add_exec_args(run_parser)
    run_parser.add_argument("--output", "-o", default=None, help="write report here")

    all_parser = sub.add_parser("run-all", help="run every experiment")
    _add_scale(all_parser)
    _add_exec_args(all_parser)
    all_parser.add_argument("--only", nargs="*", default=None, help="subset of ids")
    all_parser.add_argument("--output", "-o", default=None)

    sweep_parser = sub.add_parser(
        "sweep",
        help="run an experiment's raw sweep and emit its summary JSON "
        "(schema v7; deterministic across --jobs, cache hits and --resume)",
    )
    sweep_parser.add_argument("experiment", help="experiment id (e.g. fig3)")
    _add_scale(sweep_parser)
    _add_exec_args(sweep_parser)
    sweep_parser.add_argument(
        "--output",
        "-o",
        default=None,
        help="write the sweep summary JSON here (default: stdout)",
    )

    sim_parser = sub.add_parser("simulate", help="run a single simulation")
    sim_parser.add_argument(
        "--policy",
        required=True,
        help="policy name (see `repro policies`; underscores are accepted)",
    )
    sim_parser.add_argument("--load", type=float, default=1.0, help="jobs/hour")
    sim_parser.add_argument("--days", type=float, default=20.0)
    sim_parser.add_argument("--cache-gb", type=float, default=100.0)
    sim_parser.add_argument("--nodes", type=int, default=10)
    sim_parser.add_argument("--seed", type=int, default=0)
    sim_parser.add_argument("--period", type=float, default=None, help="seconds")
    sim_parser.add_argument("--stripe", type=int, default=None, help="events")
    sim_parser.add_argument(
        "--grant-batch",
        type=int,
        default=None,
        help="decentral: max tasks per grant message",
    )
    sim_parser.add_argument(
        "--task-events",
        type=int,
        default=None,
        help="decentral: rule task size in events",
    )
    sim_parser.add_argument(
        "--check-invariants",
        action="store_true",
        help="run the sim-sanitizer: assert engine/cache/node/scheduler "
        "invariants during the run (identical metrics, slower)",
    )
    sim_parser.add_argument(
        "--dump-records", default=None, help="write per-job records CSV here"
    )
    sim_parser.add_argument(
        "--retain-records",
        action="store_true",
        help="keep every per-job record in memory instead of the default "
        "bounded retention (first 100k records, the rest summarised by "
        "the streaming metrics); implied by --dump-records",
    )
    sim_parser.add_argument(
        "--dump-json", default=None, help="write the result summary JSON here"
    )
    _add_topology_arg(sim_parser)
    _add_fault_args(sim_parser)

    trace_parser = sub.add_parser(
        "trace",
        help="run one traced simulation; export Chrome-trace JSON, counter "
        "CSV and an ASCII timeline",
    )
    trace_parser.add_argument(
        "--policy",
        required=True,
        help="policy name (see `repro policies`; underscores are accepted)",
    )
    trace_parser.add_argument("--load", type=float, default=1.0, help="jobs/hour")
    trace_parser.add_argument("--days", type=float, default=7.0)
    trace_parser.add_argument("--cache-gb", type=float, default=100.0)
    trace_parser.add_argument("--nodes", type=int, default=10)
    trace_parser.add_argument("--seed", type=int, default=0)
    trace_parser.add_argument("--period", type=float, default=None, help="seconds")
    trace_parser.add_argument("--stripe", type=int, default=None, help="events")
    trace_parser.add_argument(
        "--quick",
        action="store_true",
        help="use the reduced-scale test configuration instead of the "
        "paper's (runs in milliseconds)",
    )
    trace_parser.add_argument(
        "--out",
        "-o",
        default="trace",
        help="output prefix: writes PREFIX.trace.json and PREFIX.counters.csv",
    )
    trace_parser.add_argument(
        "--limit-events",
        type=int,
        default=1_000_000,
        metavar="N",
        help="safety cap on recorded trace events (keeps the first N)",
    )
    trace_parser.add_argument(
        "--sample-seconds",
        type=float,
        default=3600.0,
        help="counter time-series sampling interval (simulated seconds)",
    )
    trace_parser.add_argument(
        "--width", type=int, default=100, help="ASCII timeline width"
    )
    trace_parser.add_argument(
        "--no-ascii", action="store_true", help="skip the ASCII timeline"
    )
    _add_topology_arg(trace_parser)
    _add_fault_args(trace_parser)

    topo_parser = sub.add_parser(
        "topo",
        help="inspect hierarchical data-grid topologies (repro.topo)",
    )
    topo_sub = topo_parser.add_subparsers(dest="topo_command", required=True)
    topo_show = topo_sub.add_parser(
        "show",
        help="print a topology's tier tree, link rates and cache sizes",
    )
    topo_show.add_argument(
        "spec",
        help="preset name (flat, depth2, depth3 — optionally "
        "NAME:PLACEMENT, e.g. depth3:lru-rack) or a TopologySpec JSON file",
    )

    exp_parser = sub.add_parser(
        "export", help="run an experiment and write gnuplot .dat/.gp files"
    )
    exp_parser.add_argument("experiment", help="experiment id (e.g. fig3)")
    _add_scale(exp_parser)
    _add_exec_args(exp_parser)
    exp_parser.add_argument("--output", "-o", required=True, help="directory")

    rep_parser = sub.add_parser(
        "replicate", help="replicated runs with 95%% confidence intervals"
    )
    rep_parser.add_argument(
        "--policy",
        required=True,
        help="policy name (see `repro policies`; underscores are accepted)",
    )
    rep_parser.add_argument("--load", type=float, default=1.0, help="jobs/hour")
    rep_parser.add_argument("--days", type=float, default=16.0)
    rep_parser.add_argument("--cache-gb", type=float, default=100.0)
    rep_parser.add_argument("-n", "--replications", type=int, default=5)
    rep_parser.add_argument("--period", type=float, default=None, help="seconds")
    rep_parser.add_argument("--stripe", type=int, default=None, help="events")
    _add_exec_args(rep_parser, cache=False)

    cal_parser = sub.add_parser(
        "calibrate", help="measure the adaptive policy's delay table"
    )
    cal_parser.add_argument("--stripe", type=int, default=5000)
    cal_parser.add_argument("--days", type=float, default=30.0)
    _add_exec_args(cal_parser, cache=False)

    lint_parser = sub.add_parser(
        "lint",
        help="run simlint (determinism & invariant static analysis) over "
        "python sources; exit 1 on findings",
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files/directories to lint (default: src/repro)",
    )
    lint_parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (json has a stable schema for CI)",
    )
    lint_parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to check (default: all)",
    )
    lint_parser.add_argument(
        "--rules", action="store_true", help="print the rule catalogue and exit"
    )
    lint_parser.add_argument(
        "--flow",
        action="store_true",
        help="run the whole-program flow analysis (SIM101-SIM105) instead "
        "of the per-file rules",
    )
    lint_parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="flow-findings baseline JSON (default: .simlint-flow.json "
        "when it exists); new findings gate, grandfathered ones report",
    )
    lint_parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="with --flow: rewrite the baseline file from the current "
        "findings (justifications left as TODO) and exit 0",
    )

    bench_parser = sub.add_parser(
        "bench",
        help="benchmark the simulation kernel, policies and scale tier; "
        "write BENCH_*.json and optionally compare against a committed "
        "baseline",
    )
    bench_parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced sizes and repeats (seconds instead of minutes; "
        "skips the paper-scale figure-5 record)",
    )
    bench_parser.add_argument(
        "--profile",
        action="store_true",
        help="additionally run each kernel and policy benchmark under "
        "cProfile and attach the top hotspots to its JSON record (scale "
        "points run in child processes and carry no hotspots)",
    )
    bench_parser.add_argument(
        "--kind",
        choices=["kernel", "policies", "scale", "all"],
        default="all",
        help="which report(s) to produce: kernel micro-benchmarks, "
        "end-to-end policy runs, or the 10/100/1000-node scale tier "
        "with peak-RSS tracking (default: all)",
    )
    bench_parser.add_argument(
        "--out-dir",
        default=".",
        metavar="DIR",
        help="directory receiving the BENCH_<kind>.json report(s) "
        "(default: current directory)",
    )
    bench_parser.add_argument(
        "--baseline-dir",
        default=None,
        metavar="DIR",
        help="compare against the committed BENCH_*.json in DIR; exit 1 "
        "when any record's slowdown exceeds the threshold",
    )
    bench_parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="FACTOR",
        help="tolerated slowdown factor for --baseline-dir (default 2.0)",
    )

    return parser


def _resolve_policy(name: str, prog: str) -> str:
    """Normalise a user-supplied policy name or die with a helpful error.

    Shared by simulate/replicate/trace so the unknown-policy message (and
    its did-you-mean suggestions) is identical everywhere.
    """
    resolved = name.replace("_", "-")
    if resolved not in available_policies():
        print(f"{prog}: {unknown_policy_message(name)}", file=sys.stderr)
        raise SystemExit(2)
    return resolved


def _cmd_policies() -> int:
    rows = []
    for name in available_policies():
        params = ", ".join(
            key if value == "required" else f"{key}={value!r}"
            for key, value in policy_parameters(name).items()
        )
        rows.append([name, params or "-"])
    print(
        format_table(
            ["policy", "tunable parameters (defaults)"],
            rows,
            title="Scheduling policies",
        )
    )
    return 0


def _cmd_experiments() -> int:
    rows = []
    for exp_id in available_experiments():
        experiment = get_experiment(exp_id)
        rows.append([exp_id, experiment.paper_ref, experiment.title])
    print(format_table(["id", "paper", "title"], rows))
    return 0


def _cmd_limits() -> int:
    limits = theoretical_limits(paper_config())
    rows = [[key, f"{value:.3f}"] for key, value in limits.as_dict().items()]
    print(format_table(["quantity", "value"], rows, title="Paper configuration anchors"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    executor = _executor_from_args(
        args, journal_name=f"run-{args.experiment}-{args.scale}"
    )
    outcome = run_experiment(
        args.experiment,
        scale=Scale(args.scale),
        progress=True,
        executor=executor,
    )
    print(outcome.rendered)
    _print_exec_stats(outcome.sweep)
    if args.output:
        report = render_markdown_report([outcome], Scale(args.scale))
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"\nreport written to {args.output}")
    return 1 if outcome.sweep.n_failed else 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    # One executor (and checkpoint journal) per experiment, so --resume
    # restarts exactly the interrupted figure; the result cache is
    # shared across all of them by content fingerprint.
    ids = list(args.only) if args.only else available_experiments()
    outcomes = []
    for exp_id in ids:
        executor = _executor_from_args(
            args, journal_name=f"run-{exp_id}-{args.scale}"
        )
        outcomes.append(
            run_experiment(
                exp_id, scale=Scale(args.scale), progress=True, executor=executor
            )
        )
        _print_exec_stats(outcomes[-1].sweep)
    report = render_markdown_report(outcomes, Scale(args.scale))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"report written to {args.output}")
    else:
        print(report)
    return 1 if any(outcome.sweep.n_failed for outcome in outcomes) else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sim.runner import run_sweep

    experiment = get_experiment(args.experiment)
    executor = _executor_from_args(
        args, journal_name=f"sweep-{args.experiment}-{args.scale}"
    )
    sweep = run_sweep(
        experiment.specs(Scale(args.scale)),
        progress=True,
        executor=executor,
        on_error="capture",
    )
    payload = sweep.to_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"sweep summary written to {args.output}")
    else:
        print(payload)
    _print_exec_stats(sweep)
    for _, error in sweep.errors():
        print(f"FAILED: {error.brief()}", file=sys.stderr)
    return 1 if sweep.n_failed else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    policy = _resolve_policy(args.policy, "repro simulate")
    config = paper_config(
        arrival_rate_per_hour=args.load,
        duration=args.days * units.DAY,
        cache_bytes=int(args.cache_gb * units.GB),
        n_nodes=args.nodes,
        seed=args.seed,
        faults=_fault_config_from_args(args),
        net=_net_config_from_args(args),
        topology=_topology_from_args(args, "repro simulate"),
    )
    params = {}
    if args.period is not None:
        params["period"] = args.period
    if args.stripe is not None:
        params["stripe_events"] = args.stripe
    if args.grant_batch is not None:
        params["grant_batch"] = args.grant_batch
    if args.task_events is not None:
        params["task_events"] = args.task_events
    result = run_simulation(
        config,
        policy,
        check_invariants=args.check_invariants,
        # --dump-records needs every record; truncated CSV would silently
        # misrepresent the run.
        retain_records=args.retain_records or bool(args.dump_records),
        **params,
    )
    print(result.brief())
    summary = result.measured
    rows = [
        ["jobs measured", summary.n_jobs],
        ["mean speedup", f"{summary.mean_speedup:.2f}"],
        ["mean waiting", units.fmt_duration(summary.mean_waiting)],
        ["mean waiting (excl. delay)", units.fmt_duration(summary.mean_waiting_excl_delay)],
        ["mean processing", units.fmt_duration(summary.mean_processing)],
        ["p95 waiting", units.fmt_duration(summary.p95_waiting)],
        ["node utilization", f"{result.node_utilization:.2f}"],
        ["tertiary redundancy", f"{result.tertiary_redundancy:.2f}"],
        ["cache hit fraction", f"{result.cache_hit_fraction():.2f}"],
        ["overloaded", result.overload.overloaded],
    ]
    print(format_table(["metric", "value"], rows))
    if result.faults is not None:
        faults = result.faults
        total_node_seconds = config.duration * config.n_nodes
        fault_rows = [
            ["node failures", faults.failures],
            ["subjobs aborted", faults.subjobs_aborted],
            ["retries / giveups", f"{faults.retries} / {faults.giveups}"],
            ["lost events", faults.lost_events],
            ["lost work", units.fmt_duration(faults.lost_seconds)],
            ["downtime", units.fmt_duration(faults.downtime_seconds)],
            [
                "availability",
                f"{1.0 - faults.downtime_seconds / total_node_seconds:.4f}",
            ],
            ["tertiary stalls", faults.stalls],
            ["stall time", units.fmt_duration(faults.stall_seconds)],
            ["goodput", f"{faults.goodput:.4f}"],
        ]
        print(format_table(["fault metric", "value"], fault_rows))
    if result.sched is not None and result.sched.mode == "decentral":
        sched = result.sched
        sched_rows = [
            ["arbitration rounds", sched.rounds],
            ["rules published", sched.rules_published],
            ["bids scored / grants", f"{sched.bids} / {sched.grants}"],
            ["control messages", sched.messages],
            ["control bytes", sched.control_bytes],
            ["control time", units.fmt_duration(sched.control_seconds)],
            ["messages / subjob", f"{sched.messages_per_subjob():.2f}"],
        ]
        print(format_table(["scheduler metric", "value"], sched_rows))
    if config.net is not None and result.sched is not None:
        sched = result.sched
        net_rows = [
            ["retransmits", sched.retransmits],
            ["duplicates dropped", sched.duplicates_dropped],
            ["ack timeouts", sched.timeouts],
            ["dead letters", sched.dead_letters],
            ["arbiter failovers", sched.failovers],
        ]
        print(
            format_table(
                ["reliability metric", "value"],
                net_rows,
                title="Control-plane reliability",
            )
        )
    if args.dump_records:
        from .sim.export import write_records_csv

        count = write_records_csv(args.dump_records, result.records)
        print(f"wrote {count} job records to {args.dump_records}")
    if args.dump_json:
        from .sim.export import write_result_json

        write_result_json(args.dump_json, result)
        print(f"wrote result summary to {args.dump_json}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import TraceRecorder, render_timeline, write_chrome_trace
    from .sim.config import quick_config

    policy = _resolve_policy(args.policy, "repro trace")
    if args.limit_events < 1:
        print(
            f"repro trace: --limit-events must be >= 1, got {args.limit_events}",
            file=sys.stderr,
        )
        return 2
    if args.width < 8:
        print(
            f"repro trace: --width must be >= 8, got {args.width}",
            file=sys.stderr,
        )
        return 2
    factory = quick_config if args.quick else paper_config
    config = factory(
        arrival_rate_per_hour=args.load,
        duration=args.days * units.DAY,
        cache_bytes=int(args.cache_gb * units.GB),
        n_nodes=args.nodes,
        seed=args.seed,
        faults=_fault_config_from_args(args),
        net=_net_config_from_args(args),
        topology=_topology_from_args(args, "repro trace"),
    )
    params = {}
    if args.period is not None:
        params["period"] = args.period
    if args.stripe is not None:
        params["stripe_events"] = args.stripe
    recorder = TraceRecorder(
        capacity=args.limit_events,
        sample_interval=args.sample_seconds,
        keep="first",
    )
    result = run_simulation(config, policy, sink=recorder, **params)
    recorder.close()

    trace_path = f"{args.out}.trace.json"
    counters_path = f"{args.out}.counters.csv"
    n_entries = write_chrome_trace(trace_path, recorder)
    n_samples = recorder.write_counters_csv(counters_path)

    if not args.no_ascii:
        print(render_timeline(recorder, width=args.width))
        print()
    print(result.brief())
    summary = recorder.summary()
    rows = [[name, f"{value}"] for name, value in summary.items()]
    print(format_table(["counter", "value"], rows, title="Trace counters"))
    if recorder.dropped_events:
        print(
            f"\nNOTE: event cap reached; {recorder.dropped_events} events "
            f"beyond the first {args.limit_events} were dropped "
            "(raise --limit-events to keep more)."
        )
    print(f"\nchrome trace ({n_entries} entries) written to {trace_path}")
    print("  open it at https://ui.perfetto.dev or chrome://tracing")
    print(f"counter time-series ({n_samples} samples) written to {counters_path}")
    return 0


def _cmd_topo_show(args: argparse.Namespace) -> int:
    spec = _resolve_topology(args.spec, "repro topo")
    if spec.is_trivial:
        note = "trivial (flat cluster; simulated on the stock data path)"
    else:
        note = "active (tiered data path engaged)"
    print(
        f"depth {spec.depth}, placement {spec.placement!r} "
        f"(promote_threshold={spec.promote_threshold}), {note}"
    )
    rows = []
    for tier in spec.tiers:
        level = len(spec.path_to_root(tier.name)) - 1
        indent = "  " * level
        if tier.parent is None:
            uplink = "- (hosts tertiary)"
        else:
            streams = (
                f"{tier.link_capacity_streams} streams"
                if tier.link_capacity_streams
                else "uncontended"
            )
            uplink = (
                f"{tier.link_bandwidth / units.MB:.0f} MB/s -> "
                f"{tier.parent} ({streams})"
            )
        cache = (
            f"{tier.cache_bytes / units.GB:.0f} GB" if tier.cache_bytes else "-"
        )
        attach = "nodes" if tier in spec.leaves else "-"
        rows.append([f"{indent}{tier.name}", cache, uplink, attach])
    print(
        format_table(
            ["tier", "cache", "uplink", "attaches"],
            rows,
            title="Tier tree",
        )
    )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .experiments.gnuplot import export_sweep
    from .sim.runner import run_sweep

    experiment = get_experiment(args.experiment)
    executor = _executor_from_args(
        args, journal_name=f"export-{args.experiment}-{args.scale}"
    )
    sweep = run_sweep(
        experiment.specs(Scale(args.scale)),
        progress=True,
        executor=executor,
    )
    wait_metric = (
        "waiting_excl_delay" if args.experiment in ("fig5", "fig6") else "waiting"
    )
    script = export_sweep(
        sweep, args.output, title=args.experiment, wait_metric=wait_metric
    )
    _print_exec_stats(sweep)
    print(f"gnuplot data and script written to {script.parent}")
    print(f"render with: cd {script.parent} && gnuplot {script.name}")
    return 0


def _cmd_replicate(args: argparse.Namespace) -> int:
    from .sim.replications import run_replications

    policy = _resolve_policy(args.policy, "repro replicate")
    config = paper_config(
        arrival_rate_per_hour=args.load,
        duration=args.days * units.DAY,
        cache_bytes=int(args.cache_gb * units.GB),
    )
    params = {}
    if args.period is not None:
        params["period"] = args.period
    if args.stripe is not None:
        params["stripe_events"] = args.stripe
    replicated = run_replications(
        config,
        policy,
        n_replications=args.replications,
        processes=args.jobs,
        **params,
    )
    rows = [
        [name, str(estimate)]
        for name, estimate in replicated.estimates.items()
    ]
    print(
        format_table(
            ["metric", "mean ± 95% CI"],
            rows,
            title=f"{args.policy} @ {args.load} jobs/h — "
            f"{replicated.n} replications",
        )
    )
    if replicated.any_overloaded:
        print(
            "\nNOTE: at least one replication left steady state; treat the "
            "averages with care."
        )
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    config = paper_config(duration=args.days * units.DAY)
    table = calibrate_delay_table(
        config, stripe_events=args.stripe, processes=args.jobs
    )
    print(summarize_table(table))
    print("\nPython literal for AdaptiveDelayPolicy(delay_table=...):")
    print(repr(table))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import (
        ALL_RULES,
        LintUsageError,
        lint_paths,
        make_config,
        render_json,
        render_text,
    )

    if args.rules:
        rows = [
            [code, description] for code, description in sorted(ALL_RULES.items())
        ]
        print(format_table(["code", "rule"], rows, title="simlint rule catalogue"))
        return 0
    try:
        config = make_config(
            args.select.split(",") if args.select else None
        )
        if args.flow:
            return _lint_flow(args, config)
        if args.update_baseline:
            print(
                "repro lint: --update-baseline requires --flow",
                file=sys.stderr,
            )
            return 2
        findings, files_checked = lint_paths(args.paths, config)
    except LintUsageError as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(findings, files_checked))
    else:
        print(render_text(findings, files_checked))
    return 1 if findings else 0


def _lint_flow(args: argparse.Namespace, config) -> int:
    from pathlib import Path

    from .lint import render_flow_json, render_flow_text
    from .lint.flow import (
        DEFAULT_BASELINE_NAME,
        BaselineError,
        default_flow_config,
        flow_lint_paths,
        write_baseline,
    )

    if not args.select:
        config = default_flow_config()
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
    else:
        default = Path(DEFAULT_BASELINE_NAME)
        baseline_path = default if default.exists() else None
    if args.update_baseline:
        report = flow_lint_paths(args.paths, config, baseline_path=None)
        target = baseline_path or Path(DEFAULT_BASELINE_NAME)
        write_baseline(target, report.all_findings)
        print(
            f"repro lint: wrote {len(report.all_findings)} entr"
            f"{'y' if len(report.all_findings) == 1 else 'ies'} to {target}"
        )
        return 0
    try:
        report = flow_lint_paths(args.paths, config, baseline_path=baseline_path)
    except BaselineError as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_flow_json(report))
    else:
        print(render_flow_text(report))
    return 0 if report.is_clean() else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    import os

    from .perf import (
        DEFAULT_THRESHOLD,
        compare_reports,
        load_baseline,
        render_report,
        report_filename,
        run_kernel_bench,
        run_policy_bench,
        run_scale_bench,
    )

    if args.threshold is not None and args.baseline_dir is None:
        print("repro bench: --threshold requires --baseline-dir", file=sys.stderr)
        return 2
    threshold = args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    if threshold <= 0:
        print(
            f"repro bench: --threshold must be > 0, got {threshold}",
            file=sys.stderr,
        )
        return 2
    kinds = (
        ["kernel", "policies", "scale"] if args.kind == "all" else [args.kind]
    )
    regressed = False
    for kind in kinds:
        if kind == "kernel":
            report = run_kernel_bench(quick=args.quick, profile=args.profile)
        elif kind == "scale":
            report = run_scale_bench(quick=args.quick)
        else:
            report = run_policy_bench(quick=args.quick, profile=args.profile)
        print(render_report(report))
        # Load the baseline BEFORE writing: with --out-dir and
        # --baseline-dir both pointing at the repo root, writing first
        # would overwrite the committed baseline and trivially pass.
        baseline = (
            load_baseline(args.baseline_dir, kind)
            if args.baseline_dir is not None
            else None
        )
        path = os.path.join(args.out_dir, report_filename(kind))
        report.write(path)
        print(f"report written to {path}")
        if args.baseline_dir is not None:
            if baseline is None:
                print(
                    f"no committed baseline {report_filename(kind)} in "
                    f"{args.baseline_dir}; skipping comparison"
                )
            else:
                comparison = compare_reports(report, baseline, threshold)
                print(comparison.describe())
                regressed = regressed or comparison.regressed
        print()
    if regressed:
        print("repro bench: throughput regression detected", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "policies":
        return _cmd_policies()
    if args.command == "experiments":
        return _cmd_experiments()
    if args.command == "limits":
        return _cmd_limits()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "run-all":
        return _cmd_run_all(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "topo":
        return _cmd_topo_show(args)
    if args.command == "export":
        return _cmd_export(args)
    if args.command == "replicate":
        return _cmd_replicate(args)
    if args.command == "calibrate":
        return _cmd_calibrate(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "bench":
        return _cmd_bench(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
