"""Figure 6: ITRS bandwidth trends (context figure)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments.report import Claim, format_table, pct
from repro.power.itrs import ITRS_SERIES, ItrsPoint, bandwidth_cagr


@dataclass
class Figure6Result:
    series: Tuple[ItrsPoint, ...]
    cagr: float

    def rows(self) -> List[List[object]]:
        """The result's data rows, matching ``format_table``'s columns."""
        return [
            [p.year, f"{p.io_bandwidth_tbps:g}", f"{p.offchip_clock_gbps:g}",
             f"{p.package_pins_thousands:g}"]
            for p in self.series
        ]

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        table = format_table(
            ["Year", "I/O B/W (Tb/s)", "Off-chip clock (Gb/s)",
             "Pins (1000s)"],
            self.rows(),
            title="Figure 6: ITRS bandwidth trends",
        )
        return f"{table}\nI/O bandwidth CAGR: {pct(self.cagr)}"


def run() -> Figure6Result:
    """Run the experiment and return its result object."""
    return Figure6Result(series=ITRS_SERIES, cagr=bandwidth_cagr())


#: The paper's claims this result bears out (checked by the CLI).
CLAIMS = (
    Claim("switch I/O bandwidth reaches 160 Tb/s",
          lambda r: r.series[-1].io_bandwidth_tbps == 160.0),
    Claim("I/O bandwidth grows over 20% a year", lambda r: r.cagr > 0.2),
)
