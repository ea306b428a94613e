"""Demand traces for the live control-plane service.

The service's load generator replays a *demand trace*: per control
group, per epoch, the offered demand in Gb/s.
:class:`DiurnalTraceSource` is a synthetic multi-hour diurnal profile:
a raised-cosine day/night swing per group (phase-staggered so the
fleet's valleys don't align), a floor cut that takes each group's
demand to a true zero for part of the day (so power gating genuinely
engages), seeded multiplicative jitter, and occasional demand bursts.
All randomness is stateless string-seeded hashing (one
``random.Random(f"svctrace:{seed}:{group}:{epoch}")`` stream per
group-epoch, via :func:`repro.keyed.keyed_stream`), so any epoch's
demand can be computed independently — which is what lets a service
restored from a checkpoint regenerate the tail of the trace without
replaying the head, and keeps the trace independent of
``PYTHONHASHSEED``.  Its two-method surface (``groups``,
``demand(group, epoch)``) is all the generator needs.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from repro.keyed import keyed_stream


class DiurnalTraceSource:
    """Synthetic diurnal demand, computable at any (group, epoch).

    Args:
        groups: Control-group names, in fleet order.
        epochs_per_day: Epochs in one diurnal period.
        peak_gbps: Demand at the top of the swing (before jitter).
        floor_cut: Fraction of ``peak_gbps`` subtracted from the
            raised cosine; where the profile dips below it, demand is
            exactly zero (the gating window).
        jitter: Half-width of the multiplicative per-epoch jitter.
        burst_probability: Per (group, epoch) chance of a burst.
        burst_multiplier: Demand multiplier during a burst.
        seed: Trace seed (independent of the fault seed).
    """

    def __init__(self, groups: Sequence[str], epochs_per_day: int = 240,
                 peak_gbps: float = 32.0, floor_cut: float = 0.2,
                 jitter: float = 0.08, burst_probability: float = 0.02,
                 burst_multiplier: float = 1.6, seed: int = 0):
        if epochs_per_day < 2:
            raise ValueError(
                f"epochs_per_day must be >= 2, got {epochs_per_day}")
        self._groups = tuple(groups)
        #: Group -> diurnal phase offset, from its fleet index (a
        #: repeated name keeps its first).
        self._phase = {name: i / max(1, len(self._groups)) for i, name
                       in reversed(tuple(enumerate(self._groups)))}
        self.epochs_per_day = epochs_per_day
        self.peak_gbps = peak_gbps
        self.floor_cut = floor_cut
        self.jitter = jitter
        self.burst_probability = burst_probability
        self.burst_multiplier = burst_multiplier
        self.seed = seed

    @property
    def groups(self) -> Tuple[str, ...]:
        """Group names in fleet order."""
        return self._groups

    def demand(self, group: str, epoch: int) -> float:
        """Offered demand (Gb/s) for ``group`` over ``epoch``."""
        phase = self._phase.get(group)
        if phase is None:
            raise ValueError(
                f"unknown trace group {group!r}; the trace has "
                f"{len(self._groups)} groups")
        t = epoch / self.epochs_per_day + phase
        swing = 0.5 * (1.0 - math.cos(2.0 * math.pi * t))
        base = max(0.0, (swing - self.floor_cut) / (1.0 - self.floor_cut))
        demand = base * self.peak_gbps
        if demand <= 0.0:
            return 0.0
        rng = keyed_stream(f"svctrace:{self.seed}:{group}:{epoch}")
        demand *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        if rng.random() < self.burst_probability:
            demand *= self.burst_multiplier
        return demand

