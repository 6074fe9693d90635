"""The cluster: a set of processing nodes behind one master scheduler.

Mirrors the paper's Fig. 1 architecture — N identical single-CPU nodes,
each with a local disk cache, all connected to a shared tertiary storage
system.  The master node itself is not simulated (its scheduling decisions
are instantaneous), matching the paper's simulator.

The flat cluster is the degenerate depth-1 case of the hierarchical
topology layer (``repro.topo``): when a run carries no
:class:`~repro.topo.spec.TopologySpec` — or a trivial one (a single
root tier, no tier cache) — the simulator never builds a
:class:`~repro.topo.tree.Topology` and this module's data path runs
exactly the historical code, which is what makes the depth-1
bit-identity guarantee exact rather than approximate.  Deeper specs
arrange these same nodes under rack/site tiers whose caches and
contended uplinks are consulted by the tiered access planner; the
``Cluster`` object itself is unchanged either way.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

from ..core.engine import Engine
from ..core.errors import ConfigurationError
from ..data.cache import LRUSegmentCache
from ..data.intervals import Interval
from ..obs.hooks import NULL_BUS, HookBus
from .access import DataAccessPlanner
from .costmodel import CostModel
from .node import Node


class Cluster:
    """N processing nodes sharing a cost model and an access planner."""

    def __init__(
        self,
        engine: Engine,
        n_nodes: int,
        cache_capacity_events: int,
        cost_model: CostModel,
        planner: DataAccessPlanner,
        chunk_events: int = 2000,
        speed_factors: Optional[List[float]] = None,
        obs: HookBus = NULL_BUS,
    ) -> None:
        if n_nodes < 1:
            raise ConfigurationError(f"need at least one node, got {n_nodes}")
        if speed_factors is not None and len(speed_factors) != n_nodes:
            raise ConfigurationError(
                f"{len(speed_factors)} speed factors for {n_nodes} nodes"
            )
        self.engine = engine
        self.cost_model = cost_model
        self.planner = planner
        self.obs = obs
        #: Ascending ids of the idle nodes, kept by the nodes themselves at
        #: their transitions so :meth:`idle_nodes` never scans the cluster.
        self._idle_ids: List[int] = list(range(n_nodes))
        self.nodes: List[Node] = [
            Node(
                node_id=i,
                engine=engine,
                cache=LRUSegmentCache(cache_capacity_events, obs=obs, owner_id=i),
                cost_model=cost_model,
                planner=planner,
                chunk_events=chunk_events,
                speed_factor=1.0 if speed_factors is None else speed_factors[i],
                obs=obs,
                idle_ids=self._idle_ids,
            )
            for i in range(n_nodes)
        ]

    # -- iteration -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def __getitem__(self, node_id: int) -> Node:
        return self.nodes[node_id]

    # -- scheduling helpers -------------------------------------------------------

    def idle_nodes(self) -> List[Node]:
        """All currently idle nodes, in id order (deterministic)."""
        ids = self._idle_ids
        if not ids:
            return []
        nodes = self.nodes
        return [nodes[i] for i in ids]

    def first_idle(self) -> Optional[Node]:
        """The idle node with the lowest id, or None when none is idle."""
        ids = self._idle_ids
        return self.nodes[ids[0]] if ids else None

    def busy_nodes(self) -> List[Node]:
        return [node for node in self.nodes if node.busy]

    def set_completion_callback(
        self, callback: Callable[[Node, object], None]
    ) -> None:
        for node in self.nodes:
            node.on_subjob_complete = callback

    # -- cache geography ------------------------------------------------------------

    def cached_events_by_node(self, interval: Interval) -> List[Tuple[Node, int]]:
        """``(node, cached events of interval)`` for every node, id order."""
        return [(node, node.cache.cached_events(interval)) for node in self.nodes]

    def best_cache_owner(
        self, interval: Interval, exclude: Optional[Node] = None
    ) -> Tuple[Optional[Node], int]:
        """The node caching the most of ``interval`` (ties → lowest id).

        Returns ``(None, 0)`` when nothing is cached anywhere.
        """
        best: Optional[Node] = None
        best_events = 0
        for node in self.nodes:
            if node is exclude:
                continue
            events = node.cache.cached_events(interval)
            if events > best_events:
                best = node
                best_events = events
        return best, best_events

    def total_cached_events(self) -> int:
        return sum(node.cache.used_events for node in self.nodes)

    def utilization(self, elapsed: float) -> float:
        """Mean fraction of node time spent processing events."""
        if elapsed <= 0 or not self.nodes:
            return 0.0
        return sum(n.stats.utilization(elapsed) for n in self.nodes) / len(self.nodes)

    def __repr__(self) -> str:
        busy = sum(1 for n in self.nodes if n.busy)
        return f"Cluster({len(self.nodes)} nodes, {busy} busy)"
