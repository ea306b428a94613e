"""Regret accounting: distance from the clairvoyant bound.

The oracle (:mod:`repro.predict.oracle`) gives each trace a power
floor; the full-rate baseline gives it a latency floor.  *Regret*
measures how far any controller sits from those two floors:

- **energy regret** — the controller's power fraction minus the
  oracle's, per channel-power model.  Zero means the controller's rate
  schedule was energy-indistinguishable from knowing the future.
- **latency regret** — the controller's message latency minus the
  full-rate baseline's.  Zero means rate scaling added no delay.
- **forecast error** — the per-link distribution of
  ``predicted - observed`` demand, the *cause* behind both regrets:
  under-prediction buys energy with latency (a miss saturates the
  link), over-prediction buys latency with energy.

:class:`ForecastAccountant` accumulates the per-link error statistics
inside the predictive controller as the run progresses;
:func:`build_report` combines finished
:class:`~repro.experiments.runner.SimulationSummary` objects into a
:class:`RegretReport`, whose rows the predictive experiment renders
as a table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Upper bucket edges (Gb/s) for |forecast error| histograms.  The top
#: edge is the default ladder maximum; anything beyond lands in +inf.
ERROR_BUCKETS_GBPS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 40.0,
                      math.inf)


@dataclass
class ForecastErrorStats:
    """Accumulated forecast-error statistics for one link (or a fleet).

    Attributes:
        count: Forecasts scored (epochs with a prior forecast).
        signed_sum: Sum of ``predicted - observed`` (bias numerator).
        abs_sum: Sum of ``|predicted - observed|`` (MAE numerator).
        sq_sum: Sum of squared errors (RMSE numerator).
        under_count: Epochs whose observed demand exceeded what the
            forecast *plus headroom* provisioned — the saturation
            (latency-regret) events.
        bucket_counts: Histogram of ``|error|`` over
            :data:`ERROR_BUCKETS_GBPS`.
    """

    count: int = 0
    signed_sum: float = 0.0
    abs_sum: float = 0.0
    sq_sum: float = 0.0
    under_count: int = 0
    bucket_counts: List[int] = field(
        default_factory=lambda: [0] * len(ERROR_BUCKETS_GBPS))

    def observe(self, predicted: float, observed: float,
                provisioned: float) -> None:
        """Score one forecast against the demand that materialized."""
        error = predicted - observed
        self.count += 1
        self.signed_sum += error
        self.abs_sum += abs(error)
        self.sq_sum += error * error
        if observed > provisioned:
            self.under_count += 1
        for i, edge in enumerate(ERROR_BUCKETS_GBPS):
            if abs(error) <= edge:
                self.bucket_counts[i] += 1
                break

    def merge(self, other: "ForecastErrorStats") -> None:
        """Fold another link's statistics into this one (fleet rollup)."""
        self.count += other.count
        self.signed_sum += other.signed_sum
        self.abs_sum += other.abs_sum
        self.sq_sum += other.sq_sum
        self.under_count += other.under_count
        for i, n in enumerate(other.bucket_counts):
            self.bucket_counts[i] += n

    @property
    def mae_gbps(self) -> float:
        """Mean absolute forecast error in Gb/s."""
        return self.abs_sum / self.count if self.count else 0.0

    @property
    def bias_gbps(self) -> float:
        """Mean signed error (positive = over-provisioning) in Gb/s."""
        return self.signed_sum / self.count if self.count else 0.0

    @property
    def rmse_gbps(self) -> float:
        """Root-mean-square forecast error in Gb/s."""
        return math.sqrt(self.sq_sum / self.count) if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe digest (histogram as ``[edge, count]`` rows)."""
        return {
            "count": self.count,
            "mae_gbps": self.mae_gbps,
            "bias_gbps": self.bias_gbps,
            "rmse_gbps": self.rmse_gbps,
            "under_count": self.under_count,
            "abs_error_hist": [
                ["inf" if math.isinf(edge) else edge, n]
                for edge, n in zip(ERROR_BUCKETS_GBPS, self.bucket_counts)
            ],
        }


class ForecastAccountant:
    """Per-link forecast-error ledger filled in by the controller.

    One :meth:`observe` call per group per epoch (from the second epoch
    on, once a forecast exists to score).  Keys are group names, so the
    ledger survives into the JSON-cached summary and aligns with the
    decision log.
    """

    def __init__(self) -> None:
        self.per_group: Dict[str, ForecastErrorStats] = {}

    def observe(self, group_name: str, predicted: float, observed: float,
                provisioned: float) -> None:
        """Score one group's forecast for the epoch that just ended."""
        stats = self.per_group.get(group_name)
        if stats is None:
            stats = ForecastErrorStats()
            self.per_group[group_name] = stats
        stats.observe(predicted, observed, provisioned)

    def fleet(self) -> ForecastErrorStats:
        """All links merged into one distribution."""
        total = ForecastErrorStats()
        for stats in self.per_group.values():
            total.merge(stats)
        return total

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe digest: the fleet rollup plus per-link MAE/misses.

        Per-link data is trimmed to the two numbers regret analysis
        uses (MAE and under-provisioned epochs), sorted by name so the
        serialization is deterministic.
        """
        return {
            "fleet": self.fleet().to_dict(),
            "per_link": {
                name: {"mae_gbps": stats.mae_gbps,
                       "under_count": stats.under_count}
                for name, stats in sorted(self.per_group.items())
            },
        }


# ---------------------------------------------------------------------------
# Cross-run regret (controller vs oracle vs baseline)
# ---------------------------------------------------------------------------

def energy_regret(summary, oracle_summary) -> Dict[str, float]:
    """Power-fraction excess over the oracle, per channel-power model."""
    return {
        "measured": (summary.measured_power_fraction
                     - oracle_summary.measured_power_fraction),
        "ideal": (summary.ideal_power_fraction
                  - oracle_summary.ideal_power_fraction),
    }


def latency_regret(summary, baseline_summary) -> Dict[str, float]:
    """Message-latency excess (ns) over the full-rate baseline."""
    return {
        "mean_ns": (summary.mean_message_latency_ns
                    - baseline_summary.mean_message_latency_ns),
        "p99_ns": (summary.p99_message_latency_ns
                   - baseline_summary.p99_message_latency_ns),
    }


@dataclass
class RegretRow:
    """One controller's standing against both floors."""

    label: str
    summary: Any
    energy: Dict[str, float]
    latency: Dict[str, float]

    @property
    def forecast(self) -> Optional[Dict[str, Any]]:
        """The summary's forecast-accounting payload, if any."""
        return getattr(self.summary, "predict", None)


@dataclass
class RegretReport:
    """Every controller's regret against one oracle and one baseline."""

    rows: List[RegretRow]


def build_report(controllers: Dict[str, Any], oracle_summary,
                 baseline_summary) -> RegretReport:
    """Score every controller summary against the two floors.

    Args:
        controllers: ``label -> SimulationSummary`` (the oracle itself
            may be included; its energy regret is zero by definition).
        oracle_summary: The clairvoyant run (power floor).
        baseline_summary: The full-rate run (latency floor).
    """
    rows = [
        RegretRow(
            label=label,
            summary=summary,
            energy=energy_regret(summary, oracle_summary),
            latency=latency_regret(summary, baseline_summary),
        )
        for label, summary in controllers.items()
    ]
    return RegretReport(rows=rows)
