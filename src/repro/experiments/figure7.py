"""Figure 7: fraction of time spent at each link speed.

The Search workload under the paper's default settings (1 us
reactivation, 10 us epoch, 50% target utilization), once with
bidirectional link pairs tuned together (today's chips) and once with
independent per-channel control (the paper's proposal).  The expected
shape: most time in the slowest mode, and independent control roughly
halving the time spent at the fast speeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.experiments.report import Claim, format_table, pct
from repro.experiments.runner import SimulationSpec, SimulationSummary
from repro.experiments.scale import ExperimentScale, current_scale
from repro.experiments.sweep import sweep
from repro.sums import left_sum


@dataclass
class Figure7Result:
    paired: SimulationSummary
    independent: SimulationSummary

    @staticmethod
    def _speeds(summary: SimulationSummary) -> List[float]:
        return sorted(r for r in summary.time_at_rate if r is not None)

    def rows(self) -> List[List[object]]:
        """The result's data rows, matching ``format_table``'s columns."""
        speeds = sorted(set(self._speeds(self.paired))
                        | set(self._speeds(self.independent)))
        rows = []
        for speed in speeds:
            rows.append([
                f"{speed:g} Gb/s",
                pct(self.paired.time_at_rate.get(speed, 0.0)),
                pct(self.independent.time_at_rate.get(speed, 0.0)),
            ])
        return rows

    def fast_time(self, summary: SimulationSummary,
                  threshold_gbps: float = 10.0) -> float:
        """Aggregate time fraction at speeds >= threshold."""
        return left_sum(frac for rate, frac in summary.time_at_rate.items()
                   if rate is not None and rate >= threshold_gbps)

    def format_chart(self) -> str:
        """Both panels as bar charts over link speed."""
        from repro.experiments.charts import bar_chart
        panels = []
        for title, summary in (("(a) bidirectional link pair", self.paired),
                               ("(b) independent control",
                                self.independent)):
            speeds = self._speeds(summary)
            panels.append(bar_chart(
                [f"{s:g} Gb/s" for s in speeds],
                [summary.time_at_rate.get(s, 0.0) for s in speeds],
                scale_max=1.0,
                title=f"Figure 7{title}"))
        return "\n\n".join(panels)

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        table = format_table(
            ["Link speed", "(a) Bidirectional link pair",
             "(b) Independent control"],
            self.rows(),
            title="Figure 7: fraction of time at each link speed (Search)",
        )
        return (
            f"{table}\n"
            f"Time at >=10 Gb/s: paired {pct(self.fast_time(self.paired))}, "
            f"independent {pct(self.fast_time(self.independent))}\n\n"
            f"{self.format_chart()}"
        )


def run(scale: Optional[ExperimentScale] = None,
        workload: str = "search") -> Figure7Result:
    """Run the experiment and return its result object."""
    scale = scale or current_scale()
    base = SimulationSpec(
        k=scale.k, n=scale.n, workload=workload,
        duration_ns=scale.duration_ns,
    )
    specs = [base, replace(base, independent_channels=True)]
    results = sweep(specs)
    return Figure7Result(paired=results[specs[0]],
                         independent=results[specs[1]])


#: The paper's claims this result bears out (checked by the CLI).
CLAIMS = (
    Claim("most links spend a majority of their time in the lowest "
          "power/performance state",
          lambda r: r.paired.time_at_rate.get(2.5, 0.0) > 0.5),
    Claim("independent channels spend more time at 2.5 Gb/s than pairs",
          lambda r: r.independent.time_at_rate.get(2.5, 0.0)
          > r.paired.time_at_rate.get(2.5, 0.0)),
    Claim("independently controlling each unidirectional channel nearly "
          "halves the fraction of time spent at the faster speeds",
          lambda r: r.fast_time(r.independent)
          < 0.8 * r.fast_time(r.paired)),
)
