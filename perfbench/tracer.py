"""Outside-in layer tracing for the benchmark's traced run.

The tracer wraps public functions of each ``repro`` layer *from this
file*: nothing under ``src/`` is instrumented and no simulated bit
changes (the traced run must reproduce the untraced digest).  Every
wrapped call is a span charged to a bucket named after the module that
owns the code; a bucket's self time is its spans' duration minus the
time covered by their child spans.

Engine callbacks are attributed by wrapping the callable handed to
``Engine.call_at`` / ``call_at_batch`` (and ``ControlChannel.send_reliable``)
and charging it to the module that owns the callable; ``Timer`` firings
are charged to the owner of the timer's target.

Spans are kept in memory (the first ``span_cap`` of them, with their
parent links) and written out once, as a Chrome trace, when the traced
run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Owner module prefix -> bucket; the longest matching prefix wins.
MODULE_BUCKETS: Tuple[Tuple[str, str], ...] = (
    ("repro.core", "core.engine"),
    ("repro.workload", "workload.jobs"),
    ("repro.sched", "sched"),
    ("repro.cluster.access", "cluster.access"),
    ("repro.cluster", "cluster.node"),
    ("repro.data.tertiary", "data.tertiary"),
    ("repro.data", "data.cache.write"),
    ("repro.topo", "topo"),
    ("repro.faults.net", "faults.net"),
    ("repro.faults", "faults"),
    ("repro.sim.metrics", "sim.metrics"),
    ("repro.sim", "sim"),
)

#: Buckets whose nested calls fold into the enclosing span of the same
#: family instead of opening a child span (a cache write that looks up
#: the cache is one write, not a write plus a lookup).
FAMILY = {
    "data.cache.lookup": "data.cache",
    "data.cache.write": "data.cache",
}

#: Every bucket that has a self time, in report order.
BUCKETS: Tuple[str, ...] = (
    "core.engine",
    "workload.generate",
    "workload.jobs",
    "sched",
    "sched.best_subjob",
    "cluster.idle_nodes",
    "cluster.best_cache_owner",
    "cluster.node",
    "cluster.access",
    "data.cache.lookup",
    "data.cache.write",
    "data.tertiary",
    "topo",
    "faults",
    "faults.net",
    "sim.setup",
    "sim",
    "sim.metrics",
    "sim.result",
    "obs.emit",
)

#: Policy entry points the simulator calls; each outermost one is a
#: scheduling decision.
POLICY_HANDLERS = (
    "on_job_arrival",
    "on_subjob_end",
    "on_job_end",
    "on_node_failed",
    "on_node_recovered",
    "pick_retry_node",
)

DEFAULT_SPAN_CAP = 100_000


def owner_bucket(module: str) -> str:
    """The bucket charged for code living in ``module``."""
    best = ""
    bucket = "sim"
    for prefix, name in MODULE_BUCKETS:
        if (module == prefix or module.startswith(prefix + ".")) and len(
            prefix
        ) > len(best):
            best, bucket = prefix, name
    return bucket


class Tracer:
    """Span stack, per-bucket self times and counters of one traced run."""

    def __init__(self, span_cap: int = DEFAULT_SPAN_CAP) -> None:
        self.span_cap = span_cap
        #: Open spans: ``[bucket, child_seconds, span_id]``.
        self._stack: List[List[Any]] = []
        self.self_s: Dict[str, float] = dict.fromkeys(BUCKETS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(BUCKETS, 0)
        #: Free-form counters fed by result hooks (items scanned, hits...).
        self.counts: Dict[str, int] = {}
        #: Inclusive duration of every outermost scheduling decision.
        self.decision_s = array("d")
        self._sched_depth = 0
        #: Retained spans: ``(bucket, start, end, span_id, parent_id)``.
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.spans_total = 0
        self.origin = perf_counter()
        self._restore: List[Tuple[Any, str, Any]] = []
        #: Buckets that at least one patch charges.
        self.patched: set = set()
        #: ``repro.core.engine.Timer``, bound by :func:`install`.
        self.timer_cls: Optional[type] = None
        self._owner_buckets: Dict[Any, str] = {}

    # -- spans ------------------------------------------------------------

    def call(self, bucket: str, fn: Callable[..., Any], *args: Any, **kw: Any) -> Any:
        """Run ``fn`` as a span of ``bucket``."""
        return self.span(bucket, None, fn, args, kw)

    def span(
        self,
        bucket: str,
        on_result: Optional[Callable[[Tuple[Any, ...], Any], None]],
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        kw: Dict[str, Any],
    ) -> Any:
        """Run ``fn(*args, **kw)`` as a span of ``bucket``.

        A call nested directly in a span of the same bucket (or family)
        folds into it: no new span, no count, no ``on_result``.
        """
        stack = self._stack
        if stack:
            top = stack[-1][0]
            if top == bucket or (
                bucket in FAMILY and FAMILY.get(top) == FAMILY[bucket]
            ):
                return fn(*args, **kw)
        span_id = self.spans_total
        self.spans_total = span_id + 1
        parent_id = stack[-1][2] if stack else -1
        frame = [bucket, 0.0, span_id]
        stack.append(frame)
        decision = bucket == "sched" and self._sched_depth == 0
        if bucket == "sched":
            self._sched_depth += 1
        start = perf_counter()
        try:
            result = fn(*args, **kw)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[bucket] += duration - frame[1]
            self.calls[bucket] += 1
            if stack:
                stack[-1][1] += duration
            if bucket == "sched":
                self._sched_depth -= 1
                if decision:
                    self.decision_s.append(duration)
            if span_id < self.span_cap:
                self.spans.append((bucket, start, end, span_id, parent_id))
        if on_result is not None:
            on_result(args, result)
        return result

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrapping ---------------------------------------------------------

    def _patch(self, owner: Any, name: str, replacement: Any, bucket: str) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)
        self.patched.add(bucket)

    def wrap_method(
        self,
        cls: type,
        name: str,
        bucket: str,
        on_result: Optional[Callable[[Tuple[Any, ...], Any], None]] = None,
        optional: bool = False,
    ) -> None:
        """Make ``cls.name`` a span of ``bucket``.

        A boundary that ``cls`` does not define is an error, so a renamed
        method cannot silently read as zero calls; ``optional`` allows it
        (loops over subclasses, which override only some hooks).
        """
        if name not in cls.__dict__:
            if optional:
                return
            raise AttributeError(f"{cls.__qualname__} defines no {name!r} to trace")
        original = cls.__dict__[name]
        span = self.span

        def wrapper(*args: Any, **kw: Any) -> Any:
            return span(bucket, on_result, original, args, kw)

        functools.update_wrapper(wrapper, original)
        self._patch(cls, name, wrapper, bucket)

    def wrap_function(self, module_name: str, name: str, bucket: str) -> None:
        """Wrap a module-level function everywhere it was imported by name."""
        original = getattr(sys.modules[module_name], name)
        span = self.span

        def wrapper(*args: Any, **kw: Any) -> Any:
            return span(bucket, None, original, args, kw)

        functools.update_wrapper(wrapper, original)
        for module_key, module in list(sys.modules.items()):
            if (module_key == "repro" or module_key.startswith("repro.")) and (
                module.__dict__.get(name) is original
            ):
                self._patch(module, name, wrapper, bucket)

    def callback(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` as a span of the bucket owning it (engine callbacks)."""
        owner = _owner_code(fn, self.timer_cls)
        # Keyed by code object: closures made afresh per call share one.
        key = getattr(owner, "__code__", owner)
        bucket = self._owner_buckets.get(key)
        if bucket is None:
            bucket = owner_bucket(getattr(owner, "__module__", "") or "")
            self._owner_buckets[key] = bucket
        span = self.span

        def traced(*args: Any) -> Any:
            return span(bucket, None, fn, args, {})

        traced.__name__ = getattr(fn, "__name__", "callback")
        return traced

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- results ----------------------------------------------------------

    def write_spans(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the retained spans as a Chrome trace (``chrome://tracing``)."""
        origin = self.origin
        events = [
            {
                "name": bucket,
                "cat": bucket.split(".")[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent_id},
            }
            for bucket, start, end, span_id, parent_id in self.spans
        ]
        meta = dict(meta, spans_total=self.spans_total, spans_kept=len(events))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"traceEvents": events, "otherData": meta}, handle, separators=(",", ":")
            )


def _owner_code(fn: Any, timer_cls: Optional[type]) -> Any:
    """The function whose module owns the callable ``fn``."""
    target = getattr(fn, "__self__", None)
    if timer_cls is not None and isinstance(target, timer_cls):
        return _owner_code(target.callback, timer_cls)
    fn = getattr(fn, "__func__", fn)
    while isinstance(fn, functools.partial):
        fn = fn.func
    return fn


class _TracedIterator:
    """An iterator whose every ``next`` is a span (lazy generators)."""

    def __init__(self, tracer: Tracer, bucket: str, inner: Iterator[Any]) -> None:
        self._call = tracer.call
        self._bucket = bucket
        self._next = inner.__next__

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self) -> Any:
        return self._call(self._bucket, self._next)


# ---------------------------------------------------------------------------
# What is wrapped
# ---------------------------------------------------------------------------


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def install(tracer: Tracer) -> None:
    """Patch every traced boundary.  Undo with :meth:`Tracer.restore`."""
    import repro.sched  # noqa: F401  (registers every policy class)
    from repro.cluster.access import DataAccessPlanner
    from repro.cluster.cluster import Cluster
    from repro.cluster.node import Node
    from repro.core.engine import Engine, Timer
    from repro.data.cache import LRUSegmentCache
    from repro.data.tertiary import TertiaryStorage
    from repro.faults.injector import FaultInjector
    from repro.faults.net import ControlChannel
    from repro.faults.recovery import RecoveryManager
    from repro.obs.hooks import HookBus
    from repro.sched.base import SchedulerPolicy
    from repro.sim.metrics import MetricsCollector
    from repro.sim.simulator import Simulation
    from repro.topo.planner import TieredPlanner
    from repro.topo.tree import Tier, TierCache, Topology
    from repro.workload.generator import WorkloadGenerator
    from repro.workload.jobs import Job

    tracer.timer_cls = Timer
    count = tracer.count
    wrap = tracer.wrap_method
    traced_callback = tracer.callback

    def counter(key: str) -> Callable[[Tuple[Any, ...], Any], None]:
        return lambda args, result: count(key)

    # core: the dispatch loop and the calendar.  Callbacks are re-bound to
    # their owners' buckets at scheduling time.
    wrap(Engine, "run", "core.engine")
    wrap(Engine, "step", "core.engine")
    wrap(Engine, "cancel", "core.engine")
    call_at = Engine.__dict__["call_at"]
    call_at_batch = Engine.__dict__["call_at_batch"]
    call = tracer.call

    def rebound_call_at(self: Any, time: float, callback: Any, *args: Any, **kw: Any) -> Any:
        return call_at(self, time, traced_callback(callback), *args, **kw)

    def traced_call_at(self: Any, *args: Any, **kw: Any) -> Any:
        return call("core.engine", rebound_call_at, self, *args, **kw)

    def rebound_call_at_batch(self: Any, entries: Any, *args: Any, **kw: Any) -> Any:
        rebound = (
            (time, traced_callback(cb), cb_args, label)
            for time, cb, cb_args, label in entries
        )
        return call_at_batch(self, rebound, *args, **kw)

    def traced_call_at_batch(self: Any, *args: Any, **kw: Any) -> Any:
        return call("core.engine", rebound_call_at_batch, self, *args, **kw)

    tracer._patch(
        Engine, "call_at", functools.update_wrapper(traced_call_at, call_at), "core.engine"
    )
    tracer._patch(
        Engine,
        "call_at_batch",
        functools.update_wrapper(traced_call_at_batch, call_at_batch),
        "core.engine",
    )
    for name in ("schedule_at", "cancel"):
        wrap(Timer, name, "core.engine")

    # workload: lazy generation and the per-job subjob-list scans.
    generate = WorkloadGenerator.__dict__["generate"]

    def traced_generate(self: Any, *args: Any, **kw: Any) -> Any:
        return _TracedIterator(tracer, "workload.generate", generate(self, *args, **kw))

    tracer._patch(
        WorkloadGenerator,
        "generate",
        functools.update_wrapper(traced_generate, generate),
        "workload.generate",
    )

    def subjob_scan(args: Tuple[Any, ...], result: Any) -> None:
        count("workload.jobs.subjobs_scanned", len(args[0].subjobs))
        count("workload.jobs.subjobs_returned", len(result))

    for name in ("running_subjobs", "pending_subjobs", "suspended_subjobs"):
        wrap(Job, name, "workload.jobs", subjob_scan)

    # sched: every policy entry point; helpers the policies share.
    for cls in _subclasses(SchedulerPolicy):
        for name in POLICY_HANDLERS:
            wrap(cls, name, "sched", optional=True)
    tracer.wrap_function("repro.sched.base", "best_subjob_for_node", "sched.best_subjob")

    # cluster: node scans, cache geography, the node state machine, the
    # access planners.
    def idle_scan(args: Tuple[Any, ...], result: Any) -> None:
        count("cluster.idle_nodes.nodes_scanned", len(args[0].nodes))
        count("cluster.idle_nodes.idle_returned", len(result))

    wrap(Cluster, "idle_nodes", "cluster.idle_nodes", idle_scan)
    wrap(Cluster, "best_cache_owner", "cluster.best_cache_owner")
    for name in ("start", "preempt", "fail", "recover"):
        wrap(Node, name, "cluster.node")
    for cls in _subclasses(DataAccessPlanner):
        bucket = "topo" if issubclass(cls, TieredPlanner) else "cluster.access"
        wrap(cls, "plan_chunk", bucket, counter(bucket + ".plans"), optional=True)
        for name in ("on_chunk_started", "on_chunk_finished", "on_chunk_processed"):
            wrap(cls, name, bucket, optional=True)

    # data: cache lookups (with hit accounting), cache writes, tertiary.
    def lookup_hit(hit: Callable[[Tuple[Any, ...], Any], bool]) -> Callable[..., None]:
        def record(args: Tuple[Any, ...], result: Any) -> None:
            if hit(args, result):
                count("data.cache.lookup_hits")

        return record

    lookups = {
        "cached_events": lambda args, result: result > 0,
        "cached_parts": lambda args, result: bool(result),
        "cached_prefix": lambda args, result: not result.empty,
        "uncached_prefix": lambda args, result: result.length < args[1].length,
        "covers": lambda args, result: bool(result),
        "contains_point": lambda args, result: bool(result),
    }
    for name, hit in lookups.items():
        wrap(LRUSegmentCache, name, "data.cache.lookup", lookup_hit(hit))
    for name in ("insert", "touch", "invalidate", "clear"):
        wrap(LRUSegmentCache, name, "data.cache.write")
    wrap(TertiaryStorage, "read", "data.tertiary")

    # topo: tree queries, tier caches and links.
    for name in ("path_of", "tier_of", "distance", "uplinks_between", "finalize", "summary"):
        wrap(Topology, name, "topo")
    for name in ("cached_prefix", "serve", "record_miss", "admit", "finalize"):
        wrap(TierCache, name, "topo")
    for name in ("planned_link_time", "acquire", "release"):
        wrap(Tier, name, "topo")

    # faults: crash/recovery and the lossy control channel.
    for name in ("prime", "on_completion", "finalize", "summary"):
        wrap(FaultInjector, name, "faults")
    for name in ("add", "drain"):
        wrap(RecoveryManager, name, "faults")
    send_reliable = ControlChannel.__dict__["send_reliable"]

    def rebound_send_reliable(
        self: Any, deliver: Any, *args: Any, on_dead_letter: Any = None, **kw: Any
    ) -> Any:
        if on_dead_letter is not None:
            on_dead_letter = traced_callback(on_dead_letter)
        return send_reliable(
            self, traced_callback(deliver), *args, on_dead_letter=on_dead_letter, **kw
        )

    def traced_send_reliable(self: Any, *args: Any, **kw: Any) -> Any:
        return call("faults.net", rebound_send_reliable, self, *args, **kw)

    tracer._patch(
        ControlChannel,
        "send_reliable",
        functools.update_wrapper(traced_send_reliable, send_reliable),
        "faults.net",
    )
    for name in ("attempt", "dispatch", "drain", "attach_policy"):
        wrap(ControlChannel, name, "faults.net")

    # sim: construction, the run, its callbacks, metrics, the result.
    wrap(Simulation, "__init__", "sim.setup")
    for name in ("run", "prime", "_on_subjob_complete", "_on_report_delivered"):
        wrap(Simulation, name, "sim")
    wrap(Simulation, "_build_result", "sim.result")
    for name in ("on_arrival", "on_completion", "probe", "summary"):
        wrap(MetricsCollector, name, "sim.metrics")

    # obs: must stay silent with tracing off.
    wrap(HookBus, "emit", "obs.emit")

    unpatched = [bucket for bucket in BUCKETS if bucket not in tracer.patched]
    if unpatched:
        raise RuntimeError(f"no traced boundary charges {', '.join(unpatched)}")


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install the tracer for the duration of the block."""
    try:
        install(tracer)
        yield tracer
    finally:
        tracer.restore()


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(samples: "array[float]", q: int) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, sim: Any, result: Any) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of one traced run: ``name -> (value, unit)``."""
    self_s = tracer.self_s
    calls = tracer.calls
    counts = tracer.counts.get
    nodes = list(sim.cluster)
    channel = sim.channel
    injector = sim.injector
    topo = result.topo
    scanned = counts("workload.jobs.subjobs_scanned", 0)
    nodes_scanned = counts("cluster.idle_nodes.nodes_scanned", 0)
    tier_hits = topo.tier_hit_events if topo is not None else 0
    tier_misses = topo.tier_miss_events if topo is not None else 0
    decisions = tracer.decision_s
    metrics: Dict[str, Tuple[float, str]] = {
        "core.engine.events": (result.engine_events, "count"),
        "core.engine.self_s": (self_s["core.engine"], "s"),
        "workload.generate.self_s": (self_s["workload.generate"], "s"),
        "workload.jobs.subjob_scans": (calls["workload.jobs"], "count"),
        "workload.jobs.subjobs_scanned": (scanned, "count"),
        "workload.jobs.scan_yield": (
            _ratio(counts("workload.jobs.subjobs_returned", 0), scanned),
            "ratio",
        ),
        "workload.jobs.self_s": (self_s["workload.jobs"], "s"),
        "sched.decisions": (len(decisions), "count"),
        "sched.self_s": (self_s["sched"], "s"),
        "sched.decision_us.p50": (_percentile(decisions, 50) * 1e6, "us"),
        "sched.decision_us.p99": (_percentile(decisions, 99) * 1e6, "us"),
        "sched.decision_us.samples": (len(decisions), "count"),
        "sched.best_subjob.calls": (calls["sched.best_subjob"], "count"),
        "sched.best_subjob.self_s": (self_s["sched.best_subjob"], "s"),
        "cluster.idle_nodes.calls": (calls["cluster.idle_nodes"], "count"),
        "cluster.idle_nodes.nodes_scanned": (nodes_scanned, "count"),
        "cluster.idle_nodes.yield": (
            _ratio(counts("cluster.idle_nodes.idle_returned", 0), nodes_scanned),
            "ratio",
        ),
        "cluster.idle_nodes.self_s": (self_s["cluster.idle_nodes"], "s"),
        "cluster.best_cache_owner.calls": (calls["cluster.best_cache_owner"], "count"),
        "cluster.best_cache_owner.self_s": (self_s["cluster.best_cache_owner"], "s"),
        "cluster.node.chunks": (sum(n.stats.chunks_started for n in nodes), "count"),
        "cluster.node.self_s": (self_s["cluster.node"], "s"),
        "cluster.access.plans": (counts("cluster.access.plans", 0), "count"),
        "cluster.access.self_s": (self_s["cluster.access"], "s"),
        "data.cache.lookups": (calls["data.cache.lookup"], "count"),
        "data.cache.lookup_hit_ratio": (
            _ratio(counts("data.cache.lookup_hits", 0), calls["data.cache.lookup"]),
            "ratio",
        ),
        "data.cache.lookup.self_s": (self_s["data.cache.lookup"], "s"),
        "data.cache.writes": (calls["data.cache.write"], "count"),
        "data.cache.write.self_s": (self_s["data.cache.write"], "s"),
        "data.cache.evictions": (
            sum(n.cache.stats.evicted_events for n in nodes),
            "events",
        ),
        "data.tertiary.reads": (sim.tertiary.stats.read_requests, "count"),
        "data.tertiary.events_read": (sim.tertiary.stats.events_read, "events"),
        "data.tertiary.self_s": (self_s["data.tertiary"], "s"),
        "topo.plans": (counts("topo.plans", 0), "count"),
        "topo.self_s": (self_s["topo"], "s"),
        "topo.tier_hit_ratio": (_ratio(tier_hits, tier_hits + tier_misses), "ratio"),
        "faults.self_s": (self_s["faults"], "s"),
        "faults.failures": (injector.stats_failures if injector else 0, "count"),
        "faults.net.messages": (
            channel.stats.sent + channel.stats.oneway_sent if channel else 0,
            "count",
        ),
        "faults.net.retransmits": (channel.stats.retransmits if channel else 0, "count"),
        "faults.net.self_s": (self_s["faults.net"], "s"),
        "sim.setup.self_s": (self_s["sim.setup"], "s"),
        "sim.self_s": (self_s["sim"], "s"),
        "sim.metrics.calls": (calls["sim.metrics"], "count"),
        "sim.metrics.self_s": (self_s["sim.metrics"], "s"),
        "sim.result.self_s": (self_s["sim.result"], "s"),
        "obs.emit.calls": (calls["obs.emit"], "count"),
    }
    return metrics
