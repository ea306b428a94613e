"""Workload interface and event primitives.

A workload is anything that yields a time-sorted stream of
:class:`TraceEvent` message injections; the network consumes them lazily
(:meth:`repro.sim.network.FbflyNetwork.attach_workload`), so generators
may be unbounded in length.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Protocol


@dataclass(frozen=True, order=True)
class TraceEvent:
    """One message injection: at ``time_ns``, ``src`` sends ``size_bytes``
    to ``dst``.  Ordering is by time (then src/dst/size) so event streams
    can be heap-merged."""

    time_ns: float
    src: int
    dst: int
    size_bytes: int

    def __post_init__(self) -> None:
        if self.time_ns < 0:
            raise ValueError(f"negative event time {self.time_ns}")
        if self.size_bytes <= 0:
            raise ValueError(f"non-positive message size {self.size_bytes}")
        if self.src == self.dst:
            raise ValueError(f"self-directed event at host {self.src}")


class Workload(Protocol):
    """Produces a time-sorted injection stream for a host population."""

    @property
    def num_hosts(self) -> int:
        """Number of host endpoints."""
        ...

    def events(self, duration_ns: float) -> Iterator[TraceEvent]:
        """Yield events with ``time_ns`` in [0, duration_ns), sorted."""
        ...


#: The fields ``TraceEvent``'s generated ordering compares, in order, as
#: one tuple built in C.
_ORDER_KEY = attrgetter("time_ns", "src", "dst", "size_bytes")


def merge_event_streams(
    streams: Iterable[Iterator[TraceEvent]],
) -> Iterator[TraceEvent]:
    """Merge per-host sorted streams into one global sorted stream.

    Uses a lazy heap merge, so per-host generators are only advanced as
    the simulation consumes events.  Events compare by the tuple
    ``TraceEvent``'s ``order=True`` comparison builds, without its
    Python-level ``__lt__``/``__eq__`` calls; equal keys keep stream
    order, as equal events did.
    """
    return heapq.merge(*streams, key=_ORDER_KEY)
