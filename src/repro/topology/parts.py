"""Part counts for topology power/cost comparisons (Table 1).

A :class:`PartCount` is the output of a topology's analytic bill of
materials: how many switch chips it needs, how many of those actually
carry traffic (and hence burn power), and how its links split between
cheap short-reach electrical cables and expensive optical transceivers.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PartCount:
    """Bill of materials for one network build.

    Attributes:
        switch_chips: Total switch chips cabled into the network,
            including chips stranded by chassis rounding.
        switch_chips_powered: Chips that carry used ports; the paper's
            power analysis counts only these ("there are some unused
            ports which we do not count in the power analysis").
        electrical_links: Short-reach (<5 m) passive-copper links.
        optical_links: Links requiring optical transceivers.
    """

    switch_chips: int
    switch_chips_powered: int
    electrical_links: int
    optical_links: int

    def __post_init__(self) -> None:
        for name in ("switch_chips", "switch_chips_powered",
                     "electrical_links", "optical_links"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if self.switch_chips_powered > self.switch_chips:
            raise ValueError(
                "cannot power more chips than exist: "
                f"{self.switch_chips_powered} > {self.switch_chips}"
            )

    @property
    def total_links(self) -> int:
        """All cabled links, electrical plus optical."""
        return self.electrical_links + self.optical_links
