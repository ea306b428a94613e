"""Experiment harness: one module per table and figure of the paper.

Every module exposes ``run(...)`` returning a result object with
``rows()`` (the data the paper's table/figure reports) and
``format_table()`` (a printable rendering), plus ``CLAIMS``: the
paper's claims as :class:`~repro.experiments.report.Claim` predicates
over that result.  The CLI runs each and checks its claims (the
campaigns run through ``python -m repro campaign <name>`` instead, and
their arm-builder modules expose only ``arms(...)`` and label
tuples)::

    python -m repro table1
    python -m repro figure8

Simulation-backed experiments accept an :class:`ExperimentScale`
(default from the ``REPRO_SCALE`` environment variable: ``small``,
``medium`` or ``paper``) that sets network size and simulated duration.

| Module | Paper result |
|---|---|
| figure1 | server vs network power scenarios |
| table1 | FBFLY vs folded-Clos parts and power |
| table2 | InfiniBand data rates |
| figure5 | switch-chip dynamic range |
| figure6 | ITRS bandwidth trend |
| figure7 | time spent per link speed, paired vs independent |
| figure8 | network power vs baseline, measured and ideal channels |
| figure9 | latency sensitivity to target utilization / reactivation |
| asymmetry | channel-load asymmetry behind the Figure 7 result |
| policies | Section 5.2 better-heuristics ablation |
| dynamic_topology | Section 5.1 mesh/torus/FBFLY dynamic topologies |
| topology_comparison | rate scaling on a folded-Clos vs the FBFLY (§3.2) |
| sensors | §3.2 congestion-sensor ablation |
| routing_ablation | adaptive routing under reactivation churn (§3.3/§5.3) |
| lane_ladder | 2-D lane ladder with asymmetric resync costs (§3.1/§5.2) |
| energy_aware | §5.1 energy-aware routing extension |
| mixed_media | §2.2 packaging-aware copper/optical pricing |
| oversubscription | §2.1.1 concentration sweep |
| savings | simulated power priced at the 32k-host scale |
| predictive | forecast-driven rate control vs the clairvoyant oracle |
| campaign | the four seeded SLO campaigns, one table entry each: fault-tolerance, chaos-campaign, demand-topology, service-resilience |
| fault_tolerance, chaos, demand_topology, service_resilience | each campaign's arm builder (specs or service arms, the labels its legs gate) |

Infrastructure modules: ``runner`` (the shared :class:`SimulationSpec`
-> summary executor), ``sweep`` (parallel batch execution with worker
processes and dedup), ``cache`` (the persistent content-hash run cache
plus the bounded in-process memo), ``golden`` (frozen reference values
guarding against silent result drift), ``scale`` / ``report`` /
``charts`` (sizing and rendering helpers).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".scale": ("ExperimentScale", "current_scale", "SCALES"),
})

__all__ = ["ExperimentScale", "current_scale", "SCALES"]
