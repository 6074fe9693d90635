"""The benchmark's workloads: one seeded simulation configuration each.

Every workload is built from the repository's stock configurations
(``repro.perf.scale.scale_config`` and ``repro.sim.config.paper_config``);
only the seed comes from the benchmark.  Horizons are shortened from the
sizing runs so that a cycle of several repeats fits into one measured
run; ``README.md`` records the layer shares measured at these horizons.
``cachesplit-n100`` runs at 1.5 rather than 2.5 jobs/node-h, where its
queue would grow and its inputs differ twofold in cost per data event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict

#: Seed of the reference digests in ``reference_digests.json``.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    policy: str
    #: ``build(sim_seed)`` returns the ``SimulationConfig`` of one repeat.
    build: Callable[[int], Any]
    #: Repeats in one cycle: a run simulates ``sim_seed(seed, 0)`` to
    #: ``sim_seed(seed, repeats - 1)``, in whole cycles only, so the inputs
    #: it averages over do not depend on how fast the code is.
    repeats: int


def _farm(seed: int) -> Any:
    """1000 nodes, quick cost model, 2.5 jobs/node-h, 0.08 days."""
    from repro.perf.scale import scale_config

    return scale_config(1000, 0.08).with_(seed=seed)


def _cachesplit(seed: int) -> Any:
    """100 nodes, quick cost model, 1.5 jobs/node-h, 0.02 days."""
    from repro.perf.scale import scale_config

    return scale_config(100, 0.02).with_(seed=seed, arrival_rate_per_hour=1.5 * 100)


def _ooo_paper(seed: int) -> Any:
    """The paper's constants (10 nodes) at the fig. 5 load, 15 days."""
    from repro.core import units
    from repro.sim.config import paper_config

    return paper_config(
        arrival_rate_per_hour=1.6, duration=15 * units.DAY, seed=seed
    )


def _decentral_grid(seed: int) -> Any:
    """100 nodes at 1.5 jobs/node-h on a three-tier grid with node
    crashes and a lossy control channel, 0.05 days."""
    from repro.core import units
    from repro.perf.scale import scale_config
    from repro.sim.config import FaultConfig, NetFaultConfig
    from repro.topo.spec import topology_preset

    return scale_config(100, 0.05).with_(
        seed=seed,
        arrival_rate_per_hour=1.5 * 100,
        topology=topology_preset("depth3", "lru-rack"),
        faults=FaultConfig(node_mtbf=0.5 * units.DAY, node_mttr=units.HOUR),
        net=NetFaultConfig(loss=0.05, duplicate=0.01, delay_mean=0.05),
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("farm-n1000", "farm", _farm, repeats=7),
        Workload("cachesplit-n100", "cache-splitting", _cachesplit, repeats=11),
        Workload("ooo-paper-n10", "out-of-order", _ooo_paper, repeats=9),
        Workload("decentral-grid-n100", "decentral", _decentral_grid, repeats=10),
    )
}


def sim_seed(seed: int, rep: int) -> int:
    """The simulation seed of repeat ``rep`` of a run with ``--seed seed``.

    Each repeat simulates its own input, so one run's value averages
    over several workload draws as well as over host noise.
    """
    return seed * 1000 + rep
