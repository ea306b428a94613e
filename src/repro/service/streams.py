"""Telemetry-in stream: the service's bounded ingest queue.

The simulator hands the epoch controller perfect, synchronous
readings; a live service gets an asynchronous stream that can outrun
its consumer.  This module defines the wire records and the bounded
ingest queue between the load generator and the decision loop:

- :class:`TelemetryRecord` — one group's epoch reading (offered
  demand as the sensor saw it, utilization, queue fraction, power
  state), stamped with its emission time so decision latency is
  measurable end-to-end.
- :class:`EpochTick` — the epoch boundary marker.  The decision loop
  decides once per *processed* tick, so under backlog the ticks queue
  up and decision latency — not correctness — absorbs the lag.  Ticks
  are control records: they are never shed and never counted against
  the data watermark.
- :class:`TelemetryStream` — single-consumer FIFO with a hard record
  capacity, high/low **watermark backpressure** (a hysteretic flag the
  generator observes and the metrics layer gauges), and deterministic
  **load shedding**: when a record arrives at capacity, the stream
  evicts the *oldest* queued record of the incoming record's own
  group, or, if that group has nothing queued, of the most-backlogged
  group (ties by name); never the incoming one — so however far
  behind the consumer falls, the freshest reading per group survives
  and the degraded-mode ladder always sees the best available truth.

Ingest costs the same whatever the number of groups: the stream keeps
a running count of queued data records and holds a per-group queue
only while that group has records queued, so at most ``capacity``
groups are ever candidates.  Picking the fallback victim builds
nothing per group: one pass finds the deepest queue length, a second
the least group name at that length.  When every queued group holds
exactly one record (the running count equals the number of queues,
as under a fleet-wide burst) all are deepest, so the victim is the
least name and the length pass is skipped.

Shedding disabled (``capacity=None``) gives the unprotected arm: an
unbounded queue whose latency grows without bound once the consumer
is slower than the offered load.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Dict, Optional, Union

from repro.service.clock import VirtualClock

if TYPE_CHECKING:
    import asyncio


@dataclass(frozen=True, init=False)
class TelemetryRecord:
    """One control group's epoch reading, as emitted on the wire.

    Frozen, with a hand-written initializer: the plant emits one per
    group per epoch, and the generated frozen ``__init__`` pays one
    ``object.__setattr__`` per field.  This one stores the whole
    instance dict at once; its parameters, their order and defaults
    are the field list's (a test pins that).

    Attributes:
        seq: Stream-unique monotone sequence number.
        epoch: Epoch ordinal the reading covers.
        group: Control-group name.
        time_ns: Virtual emission time (epoch boundary).
        demand_gbps: Offered demand the sensor estimated over the epoch.
        utilization: Busy fraction of the configured rate (0 when off).
        queue_fraction: Output-queue occupancy at epoch end (grows
            while demand goes unserved — the wake signal a gated group
            has left).
        is_off: Whether the group was powered off during the epoch.
    """

    seq: int
    epoch: int
    group: str
    time_ns: float
    demand_gbps: float
    utilization: float
    queue_fraction: float
    is_off: bool

    def __init__(self, seq: int, epoch: int, group: str, time_ns: float,
                 demand_gbps: float, utilization: float,
                 queue_fraction: float, is_off: bool):
        object.__setattr__(self, "__dict__", {
            "seq": seq, "epoch": epoch, "group": group,
            "time_ns": time_ns, "demand_gbps": demand_gbps,
            "utilization": utilization, "queue_fraction": queue_fraction,
            "is_off": is_off})


@dataclass(frozen=True)
class EpochTick:
    """Epoch-boundary control record (never shed)."""

    seq: int
    epoch: int
    time_ns: float


StreamItem = Union[TelemetryRecord, EpochTick]


class TelemetryStream:
    """Bounded single-consumer ingest queue with watermark shedding.

    Args:
        clock: The service's virtual clock (progress notes).
        capacity: Hard bound on queued *data* records; ``None``
            disables shedding entirely (the unprotected arm).
        high_watermark: Backlog at which the backpressure flag raises.
        low_watermark: Backlog at which it clears (hysteresis).
        on_shed: Optional callable invoked with every shed record
            (the service audits these as ``service_shed`` decisions).
    """

    def __init__(self, clock: VirtualClock,
                 capacity: Optional[int] = 64,
                 high_watermark: Optional[int] = None,
                 low_watermark: Optional[int] = None,
                 on_shed: Optional[Callable[[TelemetryRecord], None]]
                 = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.clock = clock
        self.capacity = capacity
        if high_watermark is None:
            high_watermark = (max(1, (capacity * 3) // 4)
                              if capacity is not None else 0)
        if low_watermark is None:
            low_watermark = max(0, high_watermark // 2)
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.on_shed = on_shed
        self.backpressure = False
        self.offered = 0
        self.shed = 0
        self.max_backlog = 0
        self.backpressure_raises = 0
        self.shed_by_group: Dict[str, int] = {}
        self._items: "collections.OrderedDict[int, StreamItem]" = (
            collections.OrderedDict())
        #: Queued record seqs per group; a group's entry exists only
        #: while it has records queued.
        self._group_seqs: Dict[str, Deque[int]] = {}
        #: Queued data records: the sum of the ``_group_seqs`` lengths.
        self._backlog = 0
        self._getter: Optional[asyncio.Future] = None

    # -- producer side ----------------------------------------------------

    def data_backlog(self) -> int:
        """Queued data records (ticks excluded)."""
        return self._backlog

    def offer(self, item: StreamItem) -> bool:
        """Enqueue one item; returns False if it displaced a record.

        Ticks always enqueue.  A record at capacity sheds the oldest
        queued record of its own group or, if that group has nothing
        queued, of the most-backlogged group (ties broken by group
        name) — deterministic, and never the incoming record.
        """
        self.offered += 1
        accepted = True
        if isinstance(item, TelemetryRecord):
            if (self.capacity is not None
                    and self._backlog >= self.capacity):
                self._shed_oldest(prefer=item.group)
                accepted = False  # someone was displaced, not refused
            queue = self._group_seqs.get(item.group)
            if queue is None:
                queue = self._group_seqs[item.group] = collections.deque()
            queue.append(item.seq)
            self._backlog += 1
        self._items[item.seq] = item
        self.max_backlog = max(self.max_backlog, self._backlog)
        self._update_backpressure(self._backlog)
        self._wake_getter()
        self.clock.note()
        return accepted

    def _shed_oldest(self, prefer: str) -> None:
        """Evict the oldest record of ``prefer``, else of the
        most-backlogged group (ties by name)."""
        group_seqs = self._group_seqs
        victim_group = prefer
        if victim_group not in group_seqs:
            if self._backlog == len(group_seqs):
                # Every queue is one record deep, so every group ties
                # for deepest and the least name decides.
                victim_group = min(group_seqs)
            else:
                deepest = max(map(len, group_seqs.values()))
                victim_group = min(name for name, q in group_seqs.items()
                                   if len(q) == deepest)
        queue = group_seqs[victim_group]
        seq = queue.popleft()
        if not queue:
            del group_seqs[victim_group]
        self._backlog -= 1
        record = self._items.pop(seq)
        self.shed += 1
        self.shed_by_group[victim_group] = (
            self.shed_by_group.get(victim_group, 0) + 1)
        if self.on_shed is not None:
            self.on_shed(record)

    def _update_backpressure(self, backlog: int) -> None:
        if self.capacity is None:
            return
        if not self.backpressure and backlog >= self.high_watermark:
            self.backpressure = True
            self.backpressure_raises += 1
        elif self.backpressure and backlog <= self.low_watermark:
            self.backpressure = False

    # -- consumer side ----------------------------------------------------

    def _wake_getter(self) -> None:
        if self._getter is not None and not self._getter.done():
            self._getter.set_result(None)
        self._getter = None

    async def get(self) -> StreamItem:
        """Pop the oldest queued item, waiting if the stream is empty."""
        while not self._items:
            future = self.clock.create_future()
            self._getter = future
            try:
                await future
            finally:
                if self._getter is future:
                    self._getter = None
        seq, item = self._items.popitem(last=False)
        if isinstance(item, TelemetryRecord):
            queue = self._group_seqs.get(item.group)
            if queue is not None and queue[0] == seq:
                queue.popleft()
                self._backlog -= 1
                if not queue:
                    del self._group_seqs[item.group]
        self._update_backpressure(self._backlog)
        self.clock.note()
        return item

    def __len__(self) -> int:
        return len(self._items)

    def digest(self) -> Dict[str, object]:
        """JSON-safe stream accounting for the service summary."""
        return {
            "offered": self.offered,
            "shed": self.shed,
            "max_backlog": self.max_backlog,
            "backpressure_raises": self.backpressure_raises,
        }
