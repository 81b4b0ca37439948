"""The host-speed reference: a fixed pure-Python kernel that ``cell.py`` times.

On a shared host the speed of a core drifts by tens of percent within a
minute (other tenants' load on shared caches and memory), so two runs of the
same code can differ by more than any bound worth setting.
``perfbench/cell.py`` therefore times :func:`kernel` after every repeat of a
workload and scales the repeat's host times by ``NOMINAL_S`` over the mean
of the kernel's timings just before and just after the repeat.

The kernel floods messages over a random overlay with a heap-ordered event
loop, per-node dicts and SHA-256 digests: the same kind of work as the
simulator's per-message path, with a working set of about 20 MB, like the
workloads' networks of 100 to 1,000 nodes.  It runs in the benchmark's own
process, on the core and memory the workload just used; timed in a separate
process it tracked the workload's speed far less closely.  It imports
nothing from the program, and the collector is off while it runs, so the
size of the program's heap does not change its time.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import random
import time

#: The kernel's typical time on the host the benchmark was tuned on (a
#: 2-vCPU Intel Xeon VM); scaled host times read as seconds at that speed.
NOMINAL_S = 0.6

NODES = 20_000
PEERS = 8
FLOODS = 2


class _Node:
    __slots__ = ("ident", "seen", "peers")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.seen: dict[bytes, tuple[float, int]] = {}
        self.peers: list["_Node"] = []


def kernel() -> int:
    """Build the overlay and flood ``FLOODS`` messages over it; a checksum."""
    rng = random.Random(7)
    nodes = [_Node(i) for i in range(NODES)]
    for node in nodes:
        node.peers = rng.sample(nodes, PEERS)
    delivered = 0
    for flood in range(FLOODS):
        message = b"m%d" % flood
        heap = [(0.0, 0, nodes[flood * 7919 % NODES])]
        sequence = 1
        while heap:
            at, _, node = heapq.heappop(heap)
            if message in node.seen:
                continue
            node.seen[message] = (at, sequence)
            digest = hashlib.sha256(message + node.ident.to_bytes(4, "little")).digest()
            for peer in node.peers:
                if message not in peer.seen:
                    heapq.heappush(heap, (at + 0.01 + digest[peer.ident % 32] * 1e-4, sequence, peer))
                    sequence += 1
            delivered += len(node.seen)
    return delivered


def timed() -> float:
    """Host seconds of one :func:`kernel` call, with the collector off."""
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - started
    finally:
        gc.enable()
    gc.collect()
    return elapsed
