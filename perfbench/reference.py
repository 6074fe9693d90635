"""A fixed pure-Python reference kernel that measures the host's speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes (other tenants on the same cores, caches and memory bus).
``run.py`` times this kernel in a process of its own before the first
repeat and after every repeat, and scales each repeat's CPU times by
``REFERENCE_CPU_S`` over the mean kernel time before and after it: the
times the repeat would have taken on a host on which the kernel takes
``REFERENCE_CPU_S``.  The kernel is the benchmark's own code, so no
change to the simulator moves it, and it runs in its own process, so it
moves neither the repeat's peak RSS nor its set-up time.

It mimics what the simulator spends its time on: allocating many small
slotted objects, then a heap-ordered event loop over them with int-keyed
dict lookups, inserts and deletes and short scans of per-owner lists.
It does so twice, over a working set that fits a core's L2 cache and
over one of tens of MiB that does not, because contention slows the two
differently and the workloads sit between them: timed on a busy host,
the small phase alone followed the 10-node workload best and the large
one the 1000-node workload, and their sum followed both.  Collection is off while it runs and every key is an
int, so neither the garbage collector nor hash randomisation moves its
time.

Run it alone to see the host's current speed::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import gc
import heapq
import time

#: CPU seconds of ``kernel()`` on the reference host, about what a 2-vCPU
#: 2.1 GHz Xeon VM (Python 3.11) reads.  It is the unit of every time
#: metric: changing it rescales them all, so it stays fixed.
REFERENCE_CPU_S = 0.3

#: (items, events) of the kernel's two phases: a working set that fits a
#: core's L2 cache, then one ten times larger that does not.
PHASES = ((20_000, 50_000), (200_000, 50_000))


class _Item:
    __slots__ = ("key", "size", "hits", "owner")

    def __init__(self, key: int, size: int, owner: int) -> None:
        self.key = key
        self.size = size
        self.hits = 0
        self.owner = owner


def _phase(items: int, events: int) -> float:
    pool = [_Item(k, (k * 7919) % 1000 + 1, k % 97) for k in range(items)]
    by_owner: dict = {}
    for item in pool:
        by_owner.setdefault(item.owner, []).append(item)
    table: dict = {}
    heap = [(float(i), i, i) for i in range(256)]
    heapq.heapify(heap)
    state = 12345
    seq = len(heap)
    total = 0.0
    for _ in range(events):
        at, _seq, key = heapq.heappop(heap)
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        item = pool[(key + state) % items]
        item.hits += 1
        cached = table.get(item.key)
        if cached is None:
            table[item.key] = item.size * 0.5
        else:
            total += cached
            if state & 7 == 0:
                del table[item.key]
        if state & 3 == 0:
            total += sum(peer.size for peer in by_owner[item.owner][:16]) * 1e-6
        seq += 1
        heapq.heappush(heap, (at + (state % 1000) * 1e-3, seq, (key * 31 + 7) % items))
    return total


def kernel() -> float:
    """Run the kernel once; its result only keeps the work from being
    optimised away."""
    return sum(_phase(items, events) for items, events in PHASES)


def kernel_cpu_seconds() -> float:
    """CPU seconds of one run of ``kernel()``, collection off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        kernel()
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    print(repr(kernel_cpu_seconds()))
