"""Experiment scales.

The paper simulates a 15-ary 3-flat (3,375 hosts).  A pure-Python
simulator reproduces the same per-link mechanisms at any scale, so the
default experiment scale is a 4-ary 3-flat (64 hosts, 16 switches, the
same two inter-switch dimensions and hence the same routing diversity
structure), which keeps ``python -m repro all`` in minutes.  Set
``REPRO_SCALE=medium`` or ``REPRO_SCALE=paper`` to grow it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict

from repro.units import MS


@dataclass(frozen=True)
class ExperimentScale:
    """Network size and simulated duration for one experiment tier.

    Attributes:
        name: Tier name.
        k: FBFLY radix (concentration c equals k — no over-subscription,
            as in the paper's evaluation).
        n: FBFLY dimensions (n - 1 inter-switch dimensions).
        duration_ns: Default simulated duration.
    """

    name: str
    k: int
    n: int
    duration_ns: float

    @property
    def num_hosts(self) -> int:
        """Number of host endpoints."""
        return self.k ** self.n

    @property
    def num_switches(self) -> int:
        """Number of switch chips."""
        return self.k ** (self.n - 1)


SCALES: Dict[str, ExperimentScale] = {
    "small": ExperimentScale("small", k=4, n=3, duration_ns=2.0 * MS),
    "medium": ExperimentScale("medium", k=6, n=3, duration_ns=2.0 * MS),
    "paper": ExperimentScale("paper", k=15, n=3, duration_ns=5.0 * MS),
}


def current_scale() -> ExperimentScale:
    """The scale selected by ``REPRO_SCALE`` (default ``small``)."""
    name = os.environ.get("REPRO_SCALE", "small").lower()
    if name not in SCALES:
        raise ValueError(
            f"REPRO_SCALE={name!r}; valid scales: {sorted(SCALES)}")
    return SCALES[name]
