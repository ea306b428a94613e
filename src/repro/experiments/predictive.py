"""Predictive rate control vs reactive, bounded by the oracle.

The Section 5.2 extension taken to its conclusion: how much of the gap
between the paper's reactive epoch controller and a clairvoyant rate
schedule can a causal forecaster close?  One sweep runs, on the same
workload and fabric:

- the full-rate **baseline** (latency floor),
- the paper's **reactive** threshold controller,
- the **predictive** controller under each forecaster
  (:data:`repro.predict.forecasters.FORECASTERS`), and
- the clairvoyant **oracle** (per-trace energy floor).

Every run is scored by :mod:`repro.predict.regret`: energy above the
oracle, latency above the baseline, and the forecast-error ledger the
predictive controllers accumulate.  The default workload is the deep
ON/OFF ``bursty`` trace — the regime predictive control exists for.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.report import Claim, format_table, pct, us
from repro.experiments.runner import (
    CONTROL_ORACLE,
    CONTROL_PREDICT,
    SimulationSpec,
    SimulationSummary,
    baseline_spec,
)
from repro.experiments.scale import ExperimentScale, current_scale
from repro.experiments.sweep import sweep
from repro.predict.forecasters import FORECASTERS
from repro.predict.regret import RegretReport, build_report

#: Forecasters the experiment compares, in report order.
FORECASTER_NAMES: Tuple[str, ...] = tuple(FORECASTERS)

#: Default headroom for the predictive runs (the oracle runs tight).
DEFAULT_HEADROOM = 0.1

#: Default demand-ladder target utilization for the predictive runs
#: (matches the reactive threshold policy's 50% target, so the two
#: provision the same slack and differ only in *when* they see demand).
DEFAULT_TARGET = 0.5


@dataclass
class PredictiveResult:
    """Every controller on one workload, scored against both floors."""

    workload: str
    headroom: float
    baseline: SimulationSummary
    reactive: SimulationSummary
    #: ``None`` when the oracle pass was skipped; energy regret is then
    #: anchored to the reactive run instead.
    oracle: Optional[SimulationSummary]
    by_forecaster: Dict[str, SimulationSummary]
    report: RegretReport

    def controllers(self) -> Dict[str, SimulationSummary]:
        """Label -> summary for every *controlled* run (incl. oracle)."""
        out = {"reactive": self.reactive}
        out.update({f"predict/{name}": summary
                    for name, summary in self.by_forecaster.items()})
        if self.oracle is not None:
            out["oracle"] = self.oracle
        return out

    def rows(self) -> List[List[object]]:
        """The result's data rows, matching ``format_table``'s columns."""
        rows = []
        base_mean = self.baseline.mean_message_latency_ns
        for row in self.report.rows:
            summary = row.summary
            fleet = ((row.forecast or {}).get("errors", {})
                     .get("fleet", {}))
            rows.append([
                row.label,
                pct(summary.measured_power_fraction),
                pct(row.energy["measured"]),
                us(summary.mean_message_latency_ns - base_mean),
                us(summary.p99_message_latency_ns
                   - self.baseline.p99_message_latency_ns),
                summary.reconfigurations,
                (f"{fleet['mae_gbps']:.2f}" if fleet else "-"),
                (summary.predict or {}).get("forecast_misses", "-"),
            ])
        return rows

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        anchor = "oracle" if self.oracle is not None else "reactive"
        return format_table(
            ["Controller", "Power (measured)", "Energy regret",
             "Added mean lat", "Added p99 lat", "Reconfigs",
             "MAE Gb/s", "Misses"],
            self.rows(),
            title=f"Predictive rate control ({self.workload}, "
                  f"headroom {self.headroom:g}) — energy regret vs "
                  f"{anchor}, latency vs baseline",
        )

    def dominance(self, rel_margin: float = 0.05) -> Optional[str]:
        """The forecaster that strictly dominates reactive, if any.

        Dominance on the power/latency frontier: at least
        ``rel_margin`` lower mean latency at equal-or-lower measured
        power, or at least ``rel_margin`` lower measured power at
        equal-or-lower mean latency.  Returns the forecaster name or
        ``None``.
        """
        for name, summary in self.by_forecaster.items():
            power = summary.measured_power_fraction
            latency = summary.mean_message_latency_ns
            r_power = self.reactive.measured_power_fraction
            r_latency = self.reactive.mean_message_latency_ns
            latency_win = (latency <= (1.0 - rel_margin) * r_latency
                           and power <= r_power)
            power_win = (power <= (1.0 - rel_margin) * r_power
                         and latency <= r_latency)
            if latency_win or power_win:
                return name
        return None


def build_specs(scale: ExperimentScale, workload: str,
                forecasters: Sequence[str], headroom: float,
                target: float, seed: int = 1,
                ) -> Tuple[SimulationSpec, SimulationSpec,
                           SimulationSpec, Dict[str, SimulationSpec]]:
    """The experiment's spec set: baseline, reactive, oracle, predicts."""
    reactive = SimulationSpec(
        k=scale.k, n=scale.n, workload=workload,
        duration_ns=scale.duration_ns, seed=seed,
    )
    base = baseline_spec(reactive)
    oracle = replace(reactive, control=CONTROL_ORACLE)
    predicts = {
        name: replace(reactive, control=CONTROL_PREDICT, policy="ladder",
                      target_utilization=target, forecaster=name,
                      headroom=headroom)
        for name in forecasters
    }
    return base, reactive, oracle, predicts


def run(scale: Optional[ExperimentScale] = None,
        workload: str = "bursty",
        forecasters: Sequence[str] = FORECASTER_NAMES,
        headroom: float = DEFAULT_HEADROOM,
        target: float = DEFAULT_TARGET,
        seed: int = 1,
        with_oracle: bool = True) -> PredictiveResult:
    """Run the experiment and return its result object.

    ``with_oracle=False`` skips the clairvoyant runs (each costs an
    extra measurement pass); energy regret is then reported against the
    reactive controller instead of the oracle floor.
    """
    scale = scale or current_scale()
    base, reactive, oracle, predicts = build_specs(
        scale, workload, forecasters, headroom, target, seed)
    specs = [base, reactive, *predicts.values()]
    if with_oracle:
        specs.append(oracle)
    results = sweep(specs)
    by_forecaster = {name: results[spec]
                     for name, spec in predicts.items()}
    result = PredictiveResult(
        workload=workload,
        headroom=headroom,
        baseline=results[base],
        reactive=results[reactive],
        oracle=results[oracle] if with_oracle else None,
        by_forecaster=by_forecaster,
        report=RegretReport(rows=[]),
    )
    anchor = results[oracle] if with_oracle else results[reactive]
    result.report = build_report(result.controllers(),
                                 oracle_summary=anchor,
                                 baseline_summary=results[base])
    return result


#: The paper's claims this result bears out (checked by the CLI).
CLAIMS = (
    Claim("every run simulates live traffic",
          lambda r: all(s.events_fired > 0
                        for s in (r.baseline, *r.controllers().values()))),
    Claim("every controller saves power over the full-rate baseline",
          lambda r: all(s.measured_power_fraction
                        < r.baseline.measured_power_fraction
                        for s in r.controllers().values())),
    Claim("every latency stays finite",
          lambda r: all(0.0 < s.mean_message_latency_ns < float("inf")
                        for s in (r.baseline, *r.controllers().values()))),
)
