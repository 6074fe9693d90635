"""Regenerate ``reference_digests.json``: the result digest of every
repeat in a cycle of a ``--seed 1`` run, for every workload.

Run from the repository root, only when a change is meant to alter
simulated output::

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json

from run import HARD_LIMIT_S, REFERENCES, run_child
from workloads import DEFAULT_SEED, WORKLOADS, sim_seed


def main() -> None:
    digests = {}
    for workload in WORKLOADS.values():
        digests[workload.name] = {}
        for index in range(workload.repeats):
            seed = sim_seed(DEFAULT_SEED, index)
            record, error = run_child(workload, seed, False, HARD_LIMIT_S)
            if record is None:
                raise SystemExit(f"{workload.name} seed {seed}: {error}")
            digests[workload.name][str(seed)] = record["digest"]
            print(workload.name, seed, record["digest"][:16], flush=True)
    with open(REFERENCES, "w", encoding="utf-8") as handle:
        json.dump({"seed": DEFAULT_SEED, "digests": digests}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
