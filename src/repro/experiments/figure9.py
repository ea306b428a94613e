"""Figure 9: latency sensitivity to target utilization and reactivation.

(a) Additional mean latency (vs the full-rate baseline) for target
    channel utilizations of 25 / 50 / 75%, at 1 us reactivation with
    paired links.
(b) Additional mean latency for reactivation times of 100 ns to 100 us,
    at 50% target with paired links; the epoch is always 10x the
    reactivation latency, bounding reconfiguration overhead to 10%.

The paper's shape: tens of microseconds of added latency at 50% / 1 us,
growing sharply at 75% target, approaching a millisecond at 10 us
reactivation and several milliseconds at 100 us — the basis for its
conclusion that the technique needs sub-10 us reactivation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.report import Claim, format_table, us
from repro.experiments.runner import (
    SimulationSpec,
    SimulationSummary,
    baseline_spec,
)
from repro.experiments.scale import ExperimentScale, current_scale
from repro.experiments.sweep import sweep

WORKLOADS = ("uniform", "advert", "search")
TARGET_UTILIZATIONS = (0.25, 0.50, 0.75)
REACTIVATION_TIMES_NS = (100.0, 1_000.0, 10_000.0, 100_000.0)


@dataclass
class LatencyPoint:
    """One (workload, setting) latency sample vs its baseline."""

    workload: str
    setting: float                 # target utilization or reactivation ns
    controlled: SimulationSummary
    baseline: SimulationSummary

    @property
    def added_mean_latency_ns(self) -> float:
        """Controlled-minus-baseline mean latency, ns."""
        return (self.controlled.mean_message_latency_ns
                - self.baseline.mean_message_latency_ns)

    @property
    def power_measured(self) -> float:
        """Measured-channel power fraction of the run."""
        return self.controlled.measured_power_fraction


@dataclass
class Figure9Result:
    by_target: Dict[Tuple[str, float], LatencyPoint]
    by_reactivation: Dict[Tuple[str, float], LatencyPoint]
    targets: Sequence[float]
    reactivations_ns: Sequence[float]
    workloads: Sequence[str]

    def rows(self) -> List[List[object]]:
        """Both panels' rows: 9a rows (tagged "target") then 9b
        ("reactivation")."""
        return ([["target"] + row for row in self.rows_a()]
                + [["reactivation"] + row for row in self.rows_b()])

    def rows_a(self) -> List[List[object]]:
        """Figure 9a's rows: added latency per target utilization."""
        rows = []
        for workload in self.workloads:
            row: List[object] = [workload]
            for target in self.targets:
                point = self.by_target[(workload, target)]
                row.append(us(point.added_mean_latency_ns))
            rows.append(row)
        return rows

    def rows_b(self) -> List[List[object]]:
        """Figure 9b's rows: added latency per reactivation time."""
        rows = []
        for workload in self.workloads:
            row: List[object] = [workload]
            for react in self.reactivations_ns:
                point = self.by_reactivation[(workload, react)]
                row.append(us(point.added_mean_latency_ns))
            rows.append(row)
        return rows

    def rows_b_power(self) -> List[List[object]]:
        """§4.2.2's unplotted claim: longer reactivation (and hence a
        longer measurement epoch) shrinks the power savings."""
        from repro.experiments.report import pct
        rows = []
        for workload in self.workloads:
            row: List[object] = [workload]
            for react in self.reactivations_ns:
                point = self.by_reactivation[(workload, react)]
                row.append(pct(point.power_measured))
            rows.append(row)
        return rows

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        table_a = format_table(
            ["Workload"] + [f"target {t:.0%}" for t in self.targets],
            self.rows_a(),
            title="Figure 9a: added mean latency vs target utilization "
                  "(1us reactivation, paired)",
        )
        table_b = format_table(
            ["Workload"] + [us(r, 1) for r in self.reactivations_ns],
            self.rows_b(),
            title="Figure 9b: added mean latency vs reactivation time "
                  "(50% target, paired)",
        )
        table_b_power = format_table(
            ["Workload"] + [us(r, 1) for r in self.reactivations_ns],
            self.rows_b_power(),
            title="Section 4.2.2: network power (measured channels) vs "
                  "reactivation time",
        )
        return f"{table_a}\n\n{table_b}\n\n{table_b_power}"


def _duration_for(reactivation_ns: float, scale: ExperimentScale) -> float:
    """Long reactivations need longer runs: at least 10 epochs."""
    epoch_ns = 10.0 * reactivation_ns
    return max(scale.duration_ns, 10.0 * epoch_ns)


def run(scale: Optional[ExperimentScale] = None,
        workloads: Sequence[str] = WORKLOADS,
        targets: Sequence[float] = TARGET_UTILIZATIONS,
        reactivations_ns: Sequence[float] = REACTIVATION_TIMES_NS,
        ) -> Figure9Result:
    """Run the experiment and return its result object."""
    scale = scale or current_scale()
    # Assemble the entire figure's spec batch up front — every
    # (workload, target) and (workload, reactivation) point plus the
    # baselines — and submit it as one deduplicated parallel sweep.
    batch = []
    target_specs: Dict[Tuple[str, float], Tuple] = {}
    react_specs: Dict[Tuple[str, float], Tuple] = {}
    for workload in workloads:
        base = SimulationSpec(
            k=scale.k, n=scale.n, workload=workload,
            duration_ns=scale.duration_ns,
        )
        base_ref = baseline_spec(base)
        batch.append(base_ref)
        for target in targets:
            controlled = replace(base, target_utilization=target)
            target_specs[(workload, target)] = (controlled, base_ref)
            batch.append(controlled)
        for react in reactivations_ns:
            duration = _duration_for(react, scale)
            spec = replace(base, reactivation_ns=react, duration_ns=duration)
            long_ref = baseline_spec(spec)
            react_specs[(workload, react)] = (spec, long_ref)
            batch.extend([spec, long_ref])
    results = sweep(batch)
    by_target: Dict[Tuple[str, float], LatencyPoint] = {}
    by_react: Dict[Tuple[str, float], LatencyPoint] = {}
    for (workload, target), (controlled, base_ref) in target_specs.items():
        by_target[(workload, target)] = LatencyPoint(
            workload, target, results[controlled], results[base_ref])
    for (workload, react), (spec, long_ref) in react_specs.items():
        by_react[(workload, react)] = LatencyPoint(
            workload, react, results[spec], results[long_ref])
    return Figure9Result(
        by_target=by_target,
        by_reactivation=by_react,
        targets=tuple(targets),
        reactivations_ns=tuple(reactivations_ns),
        workloads=tuple(workloads),
    )


def _added(result: Figure9Result, workload: str, index: int) -> float:
    """Added mean latency at the ``index``-th reactivation time."""
    react = result.reactivations_ns[index]
    return result.by_reactivation[(workload, react)].added_mean_latency_ns


#: The paper's claims this result bears out (checked by the CLI).
CLAIMS = (
    Claim("added latency does not shrink as the target utilization rises",
          lambda r: all(
              r.by_target[(w, r.targets[-1])].added_mean_latency_ns
              >= r.by_target[(w, r.targets[0])].added_mean_latency_ns
              for w in r.workloads)),
    Claim("at a 50% target the penalty is tens of microseconds, not ms",
          lambda r: all(0.0 < r.by_target[(w, 0.5)].added_mean_latency_ns
                        < 500_000.0 for w in r.workloads)),
    Claim("added latency grows with reactivation time",
          lambda r: all(_added(r, w, -1) > _added(r, w, 0)
                        for w in r.workloads)),
    Claim("a 100 us reactivation is an overhead that can impact many "
          "applications (over 5x the 1 us penalty)",
          lambda r: all(_added(r, w, -1) > 5 * _added(r, w, 1)
                        for w in r.workloads)),
)
