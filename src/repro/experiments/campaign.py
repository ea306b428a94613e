"""SLO campaigns: does power track load without losing delivery?

The paper argues (Figures 7-9, Section 5.1) that an energy-proportional
fabric can scale link power with load and stay available.  Four seeded
campaigns put that claim under stress, each as a :class:`Campaign`
entry in :data:`CAMPAIGNS` — data only, run and judged by the one
harness below:

- **fault-tolerance** — one MTBF/MTTR link-fault process plus stuck
  utilization sensors on a k=8 FBFLY at 25% load.  The aggressive
  ``fault_gated`` controller trusts its sensors and partitions the
  fabric; ``fault_pinned`` keeps the per-dimension ring lit through
  :class:`~repro.faults.policy.SpanningSetGuard` and must hold >= 99.9%
  delivery with zero partitions.
- **chaos-campaign** — control-plane chaos (lost and stale telemetry,
  dropped actuations, controller crashes) at three intensities on a
  healthy k=6 data plane.  Every failsafe arm must keep zero
  partitions, mean latency <= 1.5x and power <= +0.15 of the fault-free
  reference; every unprotected arm must break one of those SLOs, or
  the chaos has no teeth.
- **demand-topology** — static FBFLY vs a statically degraded torus vs
  demand-aware topology control across skewed, shifting and diurnal
  traffic matrices on a k=4 n=3 FBFLY.  On the skewed and diurnal
  matrices the demand arm must use strictly less power than the same
  matrix's static arm at <= 1.3x its mean latency; every arm must keep
  zero partitions and zero guard violations.
- **service-resilience** — the live asyncio control-plane service
  (:mod:`repro.service`) over a two-day diurnal replay under telemetry
  dropout, decision loss, a crash and a slow consumer.  Every resilient
  arm must keep zero stranded partitions, p99 decision latency within
  max(2x the reference, 2.5 epochs) and >= 90% of the ideal decision
  rate; every unprotected arm must break one.

Every campaign is seed-pinned (``--scale`` is accepted and ignored):
its verdict is a property of one seeded fault process, and each
expectation is one of the claims (:attr:`Campaign.claims`) it is gated on.

**Adding a campaign** is one table entry: an arm builder (label ->
:class:`~repro.experiments.runner.SimulationSpec` or
:class:`~repro.experiments.service_resilience.ServiceArm`) with its
parameter defaults, the measures read off each run, the legs that gate
which arms, and the expectations its claims assert.  The four
campaigns above keep their arm builders in modules of the same name
(:mod:`~repro.experiments.fault_tolerance`,
:mod:`~repro.experiments.chaos`,
:mod:`~repro.experiments.demand_topology`,
:mod:`~repro.experiments.service_resilience`); only the table below
names them.  It then runs as ``repro <name>`` (or ``repro campaign
<name>`` with overrides) and freezes into
``tests/golden/<golden>.json``.  The name and description are also
listed in :data:`repro.cli.EXPERIMENTS`, so the CLI can offer the
campaign without importing this module (``tests/test_campaigns.py``
checks the two agree).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments import (
    chaos,
    demand_topology,
    fault_tolerance,
    service_resilience,
)
from repro.experiments.report import Claim, format_table
from repro.experiments.runner import SimulationSpec
from repro.experiments.sweep import active_runner, sweep
from repro.obs.runrecord import RunRecordWriter
from repro.service.service import ControlPlaneService


@dataclass(frozen=True)
class Measure:
    """One number read off an arm's run.

    ``extract(summary, reference)`` receives the arm's summary and its
    reference run's (``None`` when the campaign has no reference).
    ``digits`` rounds it in the verdict record; ``fmt`` is its format
    spec in the table.
    """

    name: str
    extract: Callable[[Any, Any], Any]
    digits: int = 4
    fmt: str = ""


@dataclass(frozen=True)
class Leg:
    """One verdict leg: all its checks must hold on every arm it gates.

    A check is ``(measure, op, bound)``; ``op`` is one of ``<= < >= >``
    and ``bound`` is a number or the name of another measure.
    """

    name: str
    checks: Tuple[Tuple[str, str, Any], ...]
    arms: Tuple[str, ...]


@dataclass(frozen=True)
class Expectation:
    """A campaign-level verdict boolean, stored under ``key`` and
    checked as one of the campaign's claims.

    It holds when every arm in ``arms`` passes all its legs (only
    ``legs``, when given) or, with ``degrade``, fails at least one —
    the "must degrade" check that proves a campaign has teeth.
    """

    key: str
    arms: Tuple[str, ...]
    degrade: bool = False
    legs: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class Campaign:
    """One campaign, as data.

    ``reference`` names the run every arm is measured against; a
    ``{}`` in it is filled with the first ``/``-part of the arm's label
    (``"{}/static"``), and the verdict's reference block is then keyed
    by that part.  The verdict lists every arm some leg gates, and its
    key names (``bands_key``, ``reference_key``, ``ok_key``,
    ``gated_key``) follow the golden files.  ``golden_verdict`` and
    ``golden_params`` shape the golden payload.
    """

    description: str
    title: str
    arms: Callable[..., Dict[str, Any]]
    params: Dict[str, Any]
    measures: Tuple[Measure, ...]
    legs: Tuple[Leg, ...]
    expectations: Tuple[Expectation, ...]
    golden: str
    columns: Tuple[Measure, ...] = ()
    reference: Optional[str] = None
    reference_key: str = "reference"
    reference_fields: Tuple[Tuple[str, int], ...] = ()
    bands: Dict[str, Any] = field(default_factory=dict)
    bands_key: str = "slo"
    band_measures: Tuple[str, ...] = ()
    ok_key: str = "slo_ok"
    gated_key: Optional[str] = None
    golden_verdict: bool = True
    golden_params: Tuple[str, ...] = ()

    @property
    def claims(self) -> Tuple[Claim, ...]:
        """Each expectation as a :class:`~repro.experiments.report.Claim`
        over a :class:`CampaignResult`.  Its text names the key, the
        arms and the leg checks they must pass (with ``degrade``, fail
        at least one of)."""
        def text(e: Expectation) -> str:
            legs = ", ".join(
                f"{leg.name} ("
                + " and ".join(f"{m} {op} {b}" for m, op, b in leg.checks)
                + ")"
                for leg in self.legs if set(e.arms) & set(leg.arms)
                and (e.legs is None or leg.name in e.legs))
            arms = ("each of " if len(e.arms) > 1 else "") + ", ".join(e.arms)
            verb = "must fail one of" if e.degrade else "must pass"
            return f"{e.key}: {arms} {verb} {legs}"
        return tuple(Claim(text(e), lambda result, e=e: not result.misses(e))
                     for e in self.expectations)


_OPS = {"<=": operator.le, "<": operator.lt,
        ">=": operator.ge, ">": operator.gt}


@dataclass
class CampaignResult:
    """A campaign's runs, judged against its table entry."""

    campaign: Campaign
    params: Dict[str, Any]
    by_label: Dict[str, Any]

    def reference(self, label: str):
        """The run ``label`` is measured against (``None`` if none)."""
        pattern = self.campaign.reference
        if pattern is None:
            return None
        return self.by_label[pattern.format(*label.split("/"))]

    def measured(self, label: str) -> Dict[str, Any]:
        """Every measure and table column of one run, unrounded."""
        summary, ref = self.by_label[label], self.reference(label)
        return {m.name: m.extract(summary, ref)
                for m in self.campaign.measures + self.campaign.columns}

    def gated(self, label: str) -> bool:
        """Does any leg gate this arm?"""
        return any(label in leg.arms for leg in self.campaign.legs)

    def violations(self, label: str,
                   legs: Optional[Tuple[str, ...]] = None) -> List[str]:
        """Names of the legs gating ``label`` (of ``legs``, if given)
        that it fails, in leg order."""
        values = self.measured(label)
        return [leg.name for leg in self.campaign.legs
                if label in leg.arms and (legs is None or leg.name in legs)
                and not all(_OPS[op](values[m], values.get(b, b))
                            for m, op, b in leg.checks)]

    def misses(self, expectation: Expectation) -> List[str]:
        """The arms that break ``expectation``."""
        return [label for label in expectation.arms
                if bool(self.violations(label, expectation.legs))
                is not expectation.degrade]

    def expectations(self) -> Dict[str, bool]:
        """Expectation key -> whether it holds."""
        return {e.key: not self.misses(e)
                for e in self.campaign.expectations}

    # -- reporting -------------------------------------------------------

    def arm_record(self, label: str) -> Dict[str, Any]:
        """One arm's rounded verdict record (the artifact rows)."""
        c = self.campaign
        values = self.measured(label)
        record = {"label": label}
        record.update((m.name, round(values[m.name], m.digits))
                      for m in c.measures)
        if c.gated_key is not None:
            record[c.gated_key] = all(label in leg.arms for leg in c.legs)
        violations = self.violations(label)
        record[c.ok_key] = not violations
        record["violations"] = violations
        return record

    def verdict_dict(self) -> Dict[str, Any]:
        """The JSON verdict artifact (``--json-out``, the goldens)."""
        c = self.campaign
        bands = dict(c.bands)
        if c.band_measures:
            ref_values = self.measured(c.reference)
            digits = {m.name: m.digits for m in c.measures}
            bands.update((name, round(ref_values[name], digits[name]))
                         for name in c.band_measures)
        out: Dict[str, Any] = {c.bands_key: bands}
        if c.reference is not None:
            def fields(summary) -> Dict[str, Any]:
                return {name: round(getattr(summary, name), digits)
                        for name, digits in c.reference_fields}
            if "{}" in c.reference:
                out[c.reference_key] = {
                    label.split("/")[0]: fields(self.reference(label))
                    for label in self.by_label}
            else:
                out[c.reference_key] = fields(self.by_label[c.reference])
        out["arms"] = [self.arm_record(label) for label in self.by_label
                       if self.gated(label)]
        expectations = self.expectations()
        out.update(expectations)
        out["ok"] = all(expectations.values())
        return out

    def rows(self) -> List[List[object]]:
        """One row per run: its measures, columns and verdict."""
        c = self.campaign
        rows = []
        for label in self.by_label:
            values = self.measured(label)
            violations = self.violations(label)
            verdict = ("-" if not self.gated(label)
                       else "viol:" + ",".join(violations) if violations
                       else "PASS")
            rows.append([label]
                        + [format(values[m.name], m.fmt)
                           for m in c.measures + c.columns]
                        + [verdict])
        return rows

    def format_table(self) -> str:
        """Render the runs as an aligned text table."""
        c = self.campaign
        return format_table(
            ["arm"] + [m.name for m in c.measures + c.columns]
            + ["verdict"],
            self.rows(), title=c.title.format(**self.params))


def run(name: str, scale=None, **params) -> CampaignResult:
    """Run campaign ``name`` and judge it.

    ``params`` override the campaign's declared parameters; one it does
    not declare is a ``ValueError``.  ``scale`` is ignored: a campaign
    is seed-pinned.  Simulated arms go through the active sweep runner
    (and its run log); service arms run in turn, each appending a
    service record to that run log when one is set.
    """
    campaign = CAMPAIGNS[name]
    unknown = sorted(set(params) - set(campaign.params))
    if unknown:
        raise ValueError(f"campaign {name!r} takes no " + ", ".join(
            "--" + p.replace("_", "-") for p in unknown))
    params = {**campaign.params, **params}
    arms = campaign.arms(**params)
    specs = {label: arm for label, arm in arms.items()
             if isinstance(arm, SimulationSpec)}
    results = sweep(list(specs.values()))
    run_log = active_runner().run_log
    writer = None
    by_label = {}
    for label, arm in arms.items():
        if label in specs:
            by_label[label] = results[arm]
            continue
        summary = by_label[label] = ControlPlaneService(
            arm.config, scenario=arm.scenario, slow=arm.slow).run()
        if run_log is not None:
            writer = writer or RunRecordWriter(run_log)
            writer.record_service(label, arm.config, summary)
    return CampaignResult(campaign, params, by_label)


# -- the table ---------------------------------------------------------------


def _attr(name: str) -> Callable[[Any, Any], Any]:
    return lambda summary, ref: getattr(summary, name)


def _from(part: str, key: str, default=0) -> Callable[[Any, Any], Any]:
    """Read ``summary.<part>[key]`` (a digest dict that may be None)."""
    return lambda summary, ref: (getattr(summary, part) or {}).get(
        key, default)


def _delta(name: str) -> Callable[[Any, Any], Any]:
    return lambda summary, ref: getattr(summary, name) - getattr(ref, name)


def _factor(name: str) -> Callable[[Any, Any], Any]:
    return lambda summary, ref: getattr(summary, name) / getattr(ref, name)


_DELIVERED = Measure("delivered_fraction", _attr("delivered_fraction"),
                     fmt=".3%")
_PARTITIONS = Measure("partitions", _from("faults", "partitions"))
_POWER = Measure("power", _attr("measured_power_fraction"), fmt=".1%")


_SERVICE_CONFIG = service_resilience.CAMPAIGN_CONFIG
_CHAOS_GATED = chaos.UNPROTECTED + chaos.FAILSAFE
_SERVICE_GATED = (service_resilience.UNPROTECTED
                  + service_resilience.RESILIENT)

#: Campaign name -> entry; the names are also ``repro`` experiments.
CAMPAIGNS: Dict[str, Campaign] = {
    "fault-tolerance": Campaign(
        description="seeded fault campaign: gated vs pinned spanning-set "
                    "availability",
        title="Fault campaign ({scenario}): k=8 FBFLY, uniform 25% load "
              "— availability under faults + stuck sensors",
        arms=fault_tolerance.arms,
        params={"seed": 1, "fault_seed": 1, "scenario": "mtbf"},
        measures=(_DELIVERED, _PARTITIONS,
                  Measure("drop_bursts", _from("faults", "drop_bursts"))),
        columns=(
            Measure("drops", _from("faults", "dropped_packets")),
            Measure("faults", _from("faults", "faults_applied")),
            Measure("gated_offs", _from("faults", "gated_offs", "-")),
            Measure("pin_holds", _from("faults", "pinned_holds", "-")),
            _POWER,
            Measure("mean_lat_us", lambda s, r: s.mean_message_latency_ns
                    / 1e3, fmt=".1f"),
        ),
        legs=(
            Leg("delivery", (("delivered_fraction", ">=", 0.999),),
                ("pinned",)),
            Leg("partitions", (("partitions", "<=", 0),),
                ("gated", "pinned")),
            Leg("drop_bursts", (("drop_bursts", "<=", 0),), ("gated",)),
        ),
        expectations=(
            Expectation("protected_ok", ("pinned",)),
            Expectation("degraded_detected", ("gated",), degrade=True),
        ),
        bands={"min_delivered_fraction": 0.999, "max_partitions": 0,
               "max_drop_bursts": 0},
        golden="faults", golden_verdict=False, golden_params=("scenario",),
    ),
    "chaos-campaign": Campaign(
        description="control-plane chaos sweep: failsafe SLOs vs "
                    "unprotected degradation",
        title="Control-plane chaos: k=6 FBFLY, uniform 25% load, "
              "fault_pinned control — failsafe vs unprotected across "
              "chaos intensity",
        arms=chaos.arms,
        params={"seed": 3, "fault_seed": 7},
        measures=(
            _PARTITIONS,
            Measure("latency_factor", _factor("mean_packet_latency_ns"),
                    fmt=".2f"),
            Measure("power_delta", _delta("measured_power_fraction"),
                    fmt="+.3f"),
            _DELIVERED,
        ),
        columns=(
            Measure("chaos", _from("control_plane", "scenario", "-")),
            _POWER,
            Measure("lost_tel", _from("control_plane", "telemetry_lost")),
            Measure("lost_act", _from("control_plane",
                                        "actuations_lost")),
        ),
        legs=(
            Leg("partitions", (("partitions", "<=", 0),),
                _CHAOS_GATED),
            Leg("latency", (("latency_factor", "<=", 1.5),),
                _CHAOS_GATED),
            Leg("power", (("power_delta", "<=", 0.15),),
                _CHAOS_GATED),
        ),
        expectations=(
            Expectation("failsafe_ok", chaos.FAILSAFE),
            Expectation("unprotected_degraded", chaos.UNPROTECTED,
                        degrade=True),
        ),
        reference="reference",
        reference_fields=(("mean_packet_latency_ns", 2),
                          ("measured_power_fraction", 4)),
        bands={"max_partitions": 0, "max_latency_factor": 1.5,
               "max_power_delta": 0.15},
        golden="chaos",
    ),
    "demand-topology": Campaign(
        description="demand-aware topology control vs static "
                    "FBFLY/degraded under structured matrices",
        title="Demand-aware topology: k=4 n=3 FBFLY, 25% load — static "
              "vs degraded vs demand-aware across structured traffic "
              "matrices",
        arms=demand_topology.arms,
        params={"seed": 3},
        measures=(
            Measure("power_fraction", _attr("measured_power_fraction"),
                    fmt=".1%"),
            Measure("power_delta", _delta("measured_power_fraction"),
                    fmt="+.3f"),
            Measure("latency_factor", _factor("mean_message_latency_ns"),
                    fmt=".2f"),
            _DELIVERED,
            _PARTITIONS,
            Measure("guard_violations", _from("topo", "guard_violations")),
            Measure("dark_mean", _from("topo", "dark_mean", 0.0),
                    fmt=".1f"),
        ),
        legs=(
            Leg("energy", (("power_delta", "<", 0.0),),
                demand_topology.GATED),
            Leg("latency", (("latency_factor", "<=", 1.3),),
                demand_topology.GATED),
            Leg("safety", (("partitions", "<=", 0),
                           ("guard_violations", "<=", 0)),
                demand_topology.LABELS),
        ),
        expectations=(
            Expectation("demand_wins", demand_topology.GATED),
            Expectation("safe_everywhere", demand_topology.LABELS,
                        legs=("safety",)),
        ),
        reference="{}/static",
        reference_key="static",
        reference_fields=(("measured_power_fraction", 4),
                          ("mean_message_latency_ns", 2)),
        bands={"max_latency_factor": 1.3, "max_partitions": 0,
               "gated_workloads": [label.split("/")[0]
                                   for label in demand_topology.GATED]},
        bands_key="verdict",
        ok_key="ok",
        gated_key="gated",
        golden="demand_topology",
    ),
    "service-resilience": Campaign(
        description="live control-plane service: resilient vs "
                    "unprotected SLOs under stream chaos",
        title=f"Service resilience: {_SERVICE_CONFIG.groups} groups, "
              f"{_SERVICE_CONFIG.epochs} x "
              f"{_SERVICE_CONFIG.epoch_ns / 1e9:.0f}s epochs diurnal "
              f"replay — resilient vs unprotected service across fault "
              f"scenarios",
        arms=service_resilience.arms,
        params={},
        measures=(
            Measure("partitions", _attr("partitions")),
            Measure("latency_p99_ns", _attr("latency_p99_ns"), digits=2,
                    fmt=",.0f"),
            # A backlogged consumer must shed rather than decide on
            # ancient data; the slow consumer's shedding arm runs ~1.5
            # epochs behind, so the bound floors at 2.5 epochs.
            Measure("latency_bound_ns", lambda s, r: max(
                2.0 * r.latency_p99_ns, 2.5 * _SERVICE_CONFIG.epoch_ns),
                digits=2, fmt=",.0f"),
            Measure("decisions_per_sec", _attr("decisions_per_sec"),
                    fmt=".2f"),
            Measure("dps_floor", lambda s, r: 0.9 * _SERVICE_CONFIG.groups
                    / (_SERVICE_CONFIG.epoch_ns / 1e9), fmt=".2f"),
            Measure("served_fraction", _attr("served_fraction"),
                    fmt=".2%"),
        ),
        columns=(
            Measure("shed/rty/rst", lambda s, r:
                    f"{s.sheds}/{s.retries}/{s.restarts}"),
            Measure("energy", _attr("mean_rate_fraction"), fmt=".1%"),
        ),
        legs=(
            Leg("partitions", (("partitions", "<=", 0),),
                _SERVICE_GATED),
            Leg("latency", (("latency_p99_ns", "<=", "latency_bound_ns"),),
                _SERVICE_GATED),
            Leg("throughput", (("decisions_per_sec", ">=", "dps_floor"),),
                _SERVICE_GATED),
        ),
        expectations=(
            Expectation("resilient_ok", service_resilience.RESILIENT),
            Expectation("unprotected_degraded",
                        service_resilience.UNPROTECTED,
                        degrade=True),
        ),
        reference="reference",
        reference_fields=(("latency_p99_ns", 2), ("decisions_per_sec", 4),
                          ("served_fraction", 6)),
        bands={"max_partitions": 0, "max_latency_factor": 2.0,
               "latency_floor_epochs": 2.5, "min_dps_fraction": 0.9},
        band_measures=("latency_bound_ns", "dps_floor"),
        golden="service_resilience",
    ),
}
