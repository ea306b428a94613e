"""Electricity cost over a network's service lifetime.

The paper converts watts to dollars with an average industrial electricity
rate of $0.07 per kWh, a datacenter PUE of 1.6 (midpoint between
industry-leading 1.2 and the EPA's 2007 survey at 2.0), and a four-year
service life.  All of its headline savings figures ($1.6M for the
topology, $2.4M–$2.5M for rate scaling, ~$3.8M for a fully proportional
network at 15% load) come from this arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import HOURS_PER_YEAR


@dataclass(frozen=True)
class EnergyCostModel:
    """Converts sustained electrical power into lifetime energy cost.

    Attributes:
        dollars_per_kwh: Average retail electricity price.
        pue: Power Usage Effectiveness — total facility power divided by
            IT power; every IT watt costs ``pue`` watts at the meter.
        service_years: Lifetime over which the cost is accumulated.
    """

    dollars_per_kwh: float = 0.07
    pue: float = 1.6
    service_years: float = 4.0

    def __post_init__(self) -> None:
        if self.dollars_per_kwh < 0:
            raise ValueError("electricity price must be non-negative")
        if self.pue < 1.0:
            raise ValueError(f"PUE cannot be below 1.0, got {self.pue}")
        if self.service_years <= 0:
            raise ValueError("service life must be positive")

    @property
    def hours(self) -> float:
        """Total powered-on hours over the service life."""
        return self.service_years * HOURS_PER_YEAR

    def lifetime_cost(self, watts: float) -> float:
        """Dollar cost of drawing ``watts`` of IT power for the lifetime."""
        if watts < 0:
            raise ValueError(f"power must be non-negative, got {watts}")
        kwh = watts / 1000.0 * self.hours * self.pue
        return kwh * self.dollars_per_kwh

    def lifetime_savings(self, baseline_watts: float, improved_watts: float) -> float:
        """Dollar savings of ``improved_watts`` relative to ``baseline_watts``."""
        return self.lifetime_cost(baseline_watts) - self.lifetime_cost(improved_watts)
