"""Figure 5: dynamic range of an InfiniBand switch chip.

Normalized power per mode for copper and optical links, plus the static
(link-off) floor; also reports the two headline numbers the paper draws
from it: the power dynamic range and the 16x performance range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments.report import Claim, format_table, pct
from repro.power.switch_profile import (
    INFINIBAND_SWITCH_PROFILE,
    SwitchDynamicRangeProfile,
)


@dataclass
class Figure5Result:
    profile: SwitchDynamicRangeProfile
    bars: Tuple[Tuple[str, float, float, float], ...]

    def rows(self) -> List[List[object]]:
        """The result's data rows, matching ``format_table``'s columns."""
        return [
            [name, f"{idle:.2f}", f"{copper:.2f}", f"{optical:.2f}"]
            for name, idle, copper, optical in self.bars
        ]

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        table = format_table(
            ["Mode", "Static (off)", "Copper", "Optical"],
            self.rows(),
            title="Figure 5: switch-chip dynamic range (normalized power)",
        )
        return (
            f"{table}\n"
            f"Power dynamic range: {pct(self.profile.power_dynamic_range)}  "
            f"Performance range: "
            f"{self.profile.performance_dynamic_range:.0f}x"
        )


def run(profile: SwitchDynamicRangeProfile = INFINIBAND_SWITCH_PROFILE,
        ) -> Figure5Result:
    """Run the experiment and return its result object."""
    return Figure5Result(profile=profile, bars=profile.figure5_rows())


def _optical(result: Figure5Result, mode: str) -> float:
    return next(optical for name, _, _, optical in result.bars
                if name == mode)


#: The paper's claims this result bears out (checked by the CLI).
CLAIMS = (
    Claim("the slowest mode runs 16x slower than the fastest",
          lambda r: r.profile.performance_dynamic_range == 16.0),
    Claim("the slowest optical mode (1x SDR) draws 42% of full power",
          lambda r: abs(_optical(r, "1x SDR") - 0.42) < 1e-9),
    Claim("the fastest mode (4x QDR) draws full power",
          lambda r: _optical(r, "4x QDR") == 1.0),
)
