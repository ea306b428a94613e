"""Service-resilience campaign arms: the live service under stream chaos.

The live asyncio control-plane service (:mod:`repro.service`) replays
two diurnal days of 10 s epochs under telemetry dropout, decision loss,
a controller crash and a slow consumer.  This module builds one
fault-free ``reference`` plus, per fault, an ``unprotected`` arm (every
robustness feature off) and a ``resilient`` arm (the config defaults).
The ``service-resilience`` entry of
:data:`repro.experiments.campaign.CAMPAIGNS` runs and judges them.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from repro.faults.control_faults import (
    ControlFaultScenario,
    ControllerCrash,
    DecisionLoss,
    TelemetryDropout,
)
from repro.service.faults import SlowConsumer
from repro.service.service import ServiceConfig


class ServiceArm(NamedTuple):
    """One live-service run: its config plus the stream faults."""

    config: ServiceConfig
    scenario: Optional[ControlFaultScenario] = None
    slow: Optional[SlowConsumer] = None


#: The campaign's pinned run (two diurnal days of 10 s epochs).
CAMPAIGN_CONFIG = ServiceConfig(seed=3)
CAMPAIGN_FAULT_SEED = 11
_DAY_NS = CAMPAIGN_CONFIG.epochs_per_day * CAMPAIGN_CONFIG.epoch_ns
#: Stream-fault scenario -> (chaos DSL scenario, slow consumer).
FAULTS: Dict[str, Tuple[Optional[ControlFaultScenario],
                        Optional[SlowConsumer]]] = {
    "dropout": (ControlFaultScenario(
        name="svc_dropout", seed=CAMPAIGN_FAULT_SEED,
        dropout=TelemetryDropout(fraction=0.6, probability=0.95,
                                 start_ns=0.2 * _DAY_NS,
                                 end_ns=2.4 * _DAY_NS)), None),
    "loss": (ControlFaultScenario(
        name="svc_loss", seed=CAMPAIGN_FAULT_SEED,
        loss=DecisionLoss(probability=0.5, start_ns=0.1 * _DAY_NS),
        dropout=TelemetryDropout(fraction=0.6, probability=0.95,
                                 start_ns=0.75 * _DAY_NS,
                                 end_ns=2.25 * _DAY_NS)), None),
    "crash": (ControlFaultScenario(
        name="svc_crash", seed=CAMPAIGN_FAULT_SEED,
        crashes=(ControllerCrash(time_ns=1.2 * _DAY_NS,
                                 restart_after_epochs=None),)), None),
    "slow": (None, SlowConsumer(cost_ns=1.8e9, start_ns=0.3 * _DAY_NS,
                                end_ns=1.8 * _DAY_NS)),
}
RESILIENT = tuple(f"{f}/resilient" for f in FAULTS)
UNPROTECTED = tuple(f"{f}/unprotected" for f in FAULTS)


def arms() -> Dict[str, ServiceArm]:
    """Label -> arm: a fault-free reference, then per scenario an
    unprotected (every robustness feature off) and a resilient (the
    config defaults) arm."""
    out = {"reference": ServiceArm(CAMPAIGN_CONFIG)}
    for name, (scenario, slow) in FAULTS.items():
        out[f"{name}/unprotected"] = ServiceArm(
            CAMPAIGN_CONFIG.unprotected(), scenario, slow)
        out[f"{name}/resilient"] = ServiceArm(CAMPAIGN_CONFIG, scenario,
                                              slow)
    return out
