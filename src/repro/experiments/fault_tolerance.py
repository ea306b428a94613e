"""Fault-tolerance campaign arms: gated vs pinned under link faults.

One MTBF/MTTR link-fault process plus stuck utilization sensors on a
k=8 flattened butterfly at 25% uniform load.  The aggressive
``fault_gated`` controller trusts its sensors and partitions the
fabric; ``fault_pinned`` keeps the per-dimension ring lit through
:class:`~repro.faults.policy.SpanningSetGuard`.  This module builds the
three arms; the ``fault-tolerance`` entry of
:data:`repro.experiments.campaign.CAMPAIGNS` runs and judges them.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.runner import CONTROL_EPOCH, SimulationSpec
from repro.faults.scenario import registered_scenarios


def arms(seed: int, fault_seed: int,
         scenario: str) -> Dict[str, SimulationSpec]:
    """Label -> spec: a fault-free ``baseline`` plus the ``gated`` and
    ``pinned`` controllers under fault scenario ``scenario``."""
    if scenario not in registered_scenarios():
        raise ValueError(
            f"unknown fault scenario {scenario!r}; registered: "
            f"{', '.join(registered_scenarios())}")
    base = dict(k=8, n=2, workload="uniform", duration_ns=2_500_000.0,
                seed=seed, policy="ladder", uniform_offered_load=0.25,
                inject_fraction=0.4)
    return {
        "baseline": SimulationSpec(**base, control=CONTROL_EPOCH),
        "gated": SimulationSpec(**base, control="fault_gated",
                                faults=scenario, fault_seed=fault_seed),
        "pinned": SimulationSpec(**base, control="fault_pinned",
                                 faults=scenario, fault_seed=fault_seed),
    }
