"""The fabric plant: what the service's decisions act on.

The service is decoupled from the discrete-event simulator — its job
is the control plane, not flit-level queueing — so the data plane it
actuates is a coarse per-epoch fluid model of the same physics the
simulator enforces:

- each link group runs at a ladder rate or is powered off;
- served throughput is ``min(demand, capacity)``; unserved demand
  accumulates in an output queue that drains when capacity returns
  (the queue fraction is the wake signal a gated group emits);
- waking a powered-off group pays the reactivation delay before it
  serves traffic again (the paper's reactivate penalty);
- energy is proportional to configured rate (the paper's
  proportionality model), so ``mean_rate_fraction`` is the run's
  energy proxy.

The plant is also where **partitions** are detected, service-style: a
group powered off while offered demand is nonzero for longer than the
strand grace is a *stranded-dark interval* — traffic with no capacity,
the availability failure the resilience campaign requires resilient
arms to hold at zero.  One partition is counted per stranded interval,
not per epoch (the BFS partition detector's one-per-signature idiom).

Crucially, the plant applies **actual deliveries**, not controller
beliefs: a command lost by the transport never reaches
:meth:`FabricPlant.apply`.  That divergence between intent and plant
state is exactly what the retry journal exists to close.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.power.link_rates import DEFAULT_RATE_LADDER, RateLadder
from repro.service.streams import TelemetryRecord


class PlantGroup:
    """One link group's physical state inside the plant."""

    def __init__(self, name: str, ladder: RateLadder):
        self.name = name
        self.ladder = ladder
        self.rate_gbps = ladder.max_rate
        self.is_off = False
        #: Virtual time the group finishes re-locking after a wake
        #: (serves nothing until then).
        self.wake_ready_ns: float = 0.0
        #: Unserved demand backlog, in Gb·s (gigabit-seconds).
        self.queue_gbs = 0.0
        self.demand_gbps = 0.0
        self.applied = 0
        self.duplicates = 0
        #: Consecutive epochs off with nonzero offered demand.
        self.dark_demand_epochs = 0
        self.stranded = False

    def capacity_gbps(self, now_ns: float) -> float:
        """Serving capacity at ``now_ns`` (0 while off or re-locking)."""
        if self.is_off or now_ns < self.wake_ready_ns:
            return 0.0
        return self.rate_gbps


class FabricPlant:
    """Coarse fluid model of the link-group fleet.

    Args:
        groups: Group names, fleet order.
        ladder: Legal rates (the paper's 2.5-40 Gb/s ladder).
        epoch_ns: Epoch length in virtual ns.
        reactivation_ns: Re-lock delay paid when waking a group.
        queue_cap_gbs: Queue depth treated as fraction 1.0.
        strand_grace_epochs: Dark-with-demand epochs tolerated before
            the interval counts as a partition.
    """

    def __init__(self, groups, ladder: Optional[RateLadder] = None,
                 epoch_ns: float = 1e9, reactivation_ns: float = 2e6,
                 queue_cap_gbs: float = 40.0,
                 strand_grace_epochs: int = 10):
        self.ladder = ladder or DEFAULT_RATE_LADDER
        self.groups: Dict[str, PlantGroup] = {
            name: PlantGroup(name, self.ladder) for name in groups}
        self.epoch_ns = epoch_ns
        self.reactivation_ns = reactivation_ns
        self.queue_cap_gbs = queue_cap_gbs
        self.strand_grace_epochs = strand_grace_epochs
        self.partitions = 0
        self.stranded_epochs = 0
        self.epochs_stepped = 0
        self.offered_gbs = 0.0
        self.served_gbs = 0.0
        self.rate_fraction_sum = 0.0

    # -- actuation (delivered commands only) ------------------------------

    def apply(self, group: str, rate_gbps: float, now_ns: float) -> bool:
        """Apply one *delivered* rate command; returns True if state
        changed.  ``rate_gbps=0`` powers the group off; re-applying the
        current state is an idempotent no-op (counted as a duplicate),
        which is what makes journal re-sends safe.
        """
        g = self.groups[group]
        if rate_gbps <= 0.0:
            if g.is_off:
                g.duplicates += 1
                return False
            g.is_off = True
            g.applied += 1
            return True
        rate = self.ladder.clamp(rate_gbps)
        if not g.is_off and g.rate_gbps == rate:
            g.duplicates += 1
            return False
        if g.is_off:
            g.is_off = False
            g.wake_ready_ns = now_ns + self.reactivation_ns
        g.rate_gbps = rate
        g.applied += 1
        return True

    # -- epoch dynamics ----------------------------------------------------

    def step(self, epoch: int, now_ns: float,
             demands: Dict[str, float]) -> None:
        """Advance every group one epoch under ``demands`` (Gb/s)."""
        epoch_s = self.epoch_ns / 1e9
        max_rate = self.ladder.max_rate
        self.epochs_stepped += 1
        for name, g in self.groups.items():
            demand = demands.get(name, 0.0)
            g.demand_gbps = demand
            capacity = g.capacity_gbps(now_ns)
            served = min(demand + g.queue_gbs / epoch_s, capacity)
            g.queue_gbs = min(
                self.queue_cap_gbs,
                max(0.0, g.queue_gbs + (demand - served) * epoch_s))
            self.offered_gbs += demand * epoch_s
            self.served_gbs += served * epoch_s
            self.rate_fraction_sum += (
                0.0 if g.is_off else g.rate_gbps / max_rate)
            if g.is_off and demand > 1e-9:
                g.dark_demand_epochs += 1
                self.stranded_epochs += 1
                if (not g.stranded
                        and g.dark_demand_epochs
                        > self.strand_grace_epochs):
                    g.stranded = True
                    self.partitions += 1
            else:
                g.dark_demand_epochs = 0
                g.stranded = False

    def telemetry(self, epoch: int, now_ns: float,
                  next_seq) -> List[TelemetryRecord]:
        """This epoch's readings, fleet order (``next_seq()`` stamps
        stream sequence numbers)."""
        out = []
        for name, g in self.groups.items():
            capacity = g.capacity_gbps(now_ns)
            utilization = (min(1.0, g.demand_gbps / capacity)
                           if capacity > 0.0 else 0.0)
            # Positional (the field order): one record per group per
            # epoch, and keywords cost half as much again per record.
            out.append(TelemetryRecord(
                next_seq(), epoch, name, now_ns, g.demand_gbps,
                utilization, g.queue_gbs / self.queue_cap_gbs, g.is_off))
        return out

    # -- accounting --------------------------------------------------------

    @property
    def served_fraction(self) -> float:
        """Delivered fraction of all offered demand."""
        return (self.served_gbs / self.offered_gbs
                if self.offered_gbs > 0 else 1.0)

    @property
    def mean_rate_fraction(self) -> float:
        """Time-mean configured rate / max rate — the energy proxy."""
        total = self.epochs_stepped * len(self.groups)
        return self.rate_fraction_sum / total if total else 1.0

    def rates(self) -> Dict[str, Tuple[float, bool]]:
        """``group -> (rate, is_off)`` snapshot (tests, checkpoints)."""
        return {name: (g.rate_gbps, g.is_off)
                for name, g in self.groups.items()}

    def digest(self) -> Dict[str, object]:
        """JSON-safe plant accounting for the service summary."""
        return {
            "epochs": self.epochs_stepped,
            "partitions": self.partitions,
            "stranded_epochs": self.stranded_epochs,
            "served_fraction": self.served_fraction,
            "mean_rate_fraction": self.mean_rate_fraction,
        }
