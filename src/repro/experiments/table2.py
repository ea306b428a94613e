"""Table 2: InfiniBand support for multiple data rates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments.report import Claim, format_table
from repro.power.link_rates import INFINIBAND_RATES, InfiniBandRate


@dataclass
class Table2Result:
    rates: Tuple[InfiniBandRate, ...]

    def rows(self) -> List[List[object]]:
        """The result's data rows, matching ``format_table``'s columns."""
        return [
            [r.name, r.lanes, f"{r.gbps_per_lane:g} Gb/s", f"{r.gbps:g} Gb/s"]
            for r in self.rates
        ]

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        return format_table(
            ["Name", "Lanes", "Per-lane rate", "Data rate"],
            self.rows(),
            title="Table 2: InfiniBand support for multiple data rates",
        )


def run() -> Table2Result:
    """Run the experiment and return its result object."""
    return Table2Result(rates=INFINIBAND_RATES)


#: The paper's claims this result bears out (checked by the CLI).
CLAIMS = (
    Claim("4x QDR signals at 40 Gb/s",
          lambda r: {x.name: x.gbps for x in r.rates}["4x QDR"] == 40.0),
    Claim("1x SDR signals at 2.5 Gb/s",
          lambda r: {x.name: x.gbps for x in r.rates}["1x SDR"] == 2.5),
    Claim("InfiniBand offers six data rates",
          lambda r: len({x.name for x in r.rates}) == 6),
)
