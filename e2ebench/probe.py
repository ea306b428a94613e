"""Host-speed probe: a frozen kernel sampled all through a repeat.

The benchmark runs on a few cores of a shared host whose speed drifts
by up to 2x over minutes; process CPU time drifts with it, so neither
wall nor CPU time of a repeat is steady.  The probe measures the drift
while the program runs.  Every ``INTERVAL_S`` of wall time a timer
signal runs :func:`kernel`, a fixed pure-Python event loop of heap,
attribute, dict and ``random`` work, and records how long it took.  The
kernel shares no state with the program, so it changes none of the
program's results.

A host-time metric is then the program's own time (wall time minus the
probe's) multiplied by the window's speed, ``REFERENCE_CHUNK_S`` over
the mean kernel time in that window: the time the program would have
taken on a host running the kernel at its reference speed.  Sampling is
uniform in wall time, so the mean weights each moment as the program's
wall time does.

The kernel and ``REFERENCE_CHUNK_S`` are frozen.  Changing either
rescales every host-time metric, so it needs a new baseline.
"""

from __future__ import annotations

import heapq
import random
import signal
import time
from typing import List, Optional, Tuple

#: Wall time between two kernel samples.
INTERVAL_S = 0.02

#: Events one kernel sample fires.
EVENTS = 500

#: One sample's time at the reference speed the metrics are expressed
#: in.  A 2-core x86_64 VM (Python 3.11) took 0.9-1.4 ms per sample
#: while it ran about half as fast as in its quiet hours.
REFERENCE_CHUNK_S = 0.0006


class _Node:
    __slots__ = ("id", "recent", "sent", "peers")

    def __init__(self, i: int):
        self.id = i
        self.recent: List[float] = []
        self.sent = 0
        self.peers: List["_Node"] = []


def kernel() -> int:
    """Build a 64-node ring and fire ``EVENTS`` heap events over it.

    The state is built afresh on every call, so each sample pays for
    allocation and seeding as the program does, and meets the caches as
    the program left them.
    """
    rng = random.Random(7)
    nodes = [_Node(i) for i in range(64)]
    for node in nodes:
        node.peers = [nodes[(node.id + d) % 64] for d in (1, 3, 7, 15)]
    heap = [(rng.random(), i, node.id) for i, node in enumerate(nodes)]
    heapq.heapify(heap)
    seq = len(heap)
    pairs = {}
    for _ in range(EVENTS):
        t, _, nid = heapq.heappop(heap)
        node = nodes[nid]
        node.recent.append(t)
        if len(node.recent) > 4:
            node.recent.pop(0)
        peer = node.peers[int(t * 1000) & 3]
        peer.sent += 1
        key = (nid, peer.id)
        pairs[key] = pairs.get(key, 0) + 1
        seq += 1
        heapq.heappush(heap, (t + rng.expovariate(1.0), seq, peer.id))
    return sum(pairs.values())


class SpeedProbe:
    """Samples :func:`kernel` on ``SIGALRM`` between :meth:`start` and
    :meth:`stop`; the process must not use ``SIGALRM`` itself."""

    def __init__(self):
        #: ``(start, duration)`` of every sample, ``time.monotonic()``.
        self.samples: List[Tuple[float, float]] = []
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        began = time.monotonic()
        kernel()
        self.samples.append((began, time.monotonic() - began))
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, begin: float, end: float
               ) -> Tuple[float, Optional[float]]:
        """The probe's own time between ``begin`` and ``end``, and the
        host's speed there relative to the reference (``None`` when no
        sample started in the window)."""
        inside = [d for s, d in self.samples if begin <= s < end]
        if not inside:
            return 0.0, None
        spent = sum(inside)
        return spent, REFERENCE_CHUNK_S * len(inside) / spent
