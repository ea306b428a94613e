"""Control-plane chaos campaign arms: failsafe vs unprotected.

:mod:`repro.faults.control_faults` breaks the *control plane* — lost
and stale telemetry, dropped actuations, controller crashes — while the
data plane stays healthy.  This module builds seven seeded arms on a
k=6 flattened butterfly at 25% uniform load: one fault-free
``reference`` plus, per chaos intensity, an ``unprotected`` arm (no
guard) and a ``failsafe`` arm (with
:class:`~repro.core.failsafe.FailsafeGuard`).  The ``chaos-campaign``
entry of :data:`repro.experiments.campaign.CAMPAIGNS` runs and judges
them.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.runner import SimulationSpec

#: Control-plane chaos intensities, report order.
INTENSITIES = ("low", "mid", "high")
FAILSAFE = tuple(f"{i}/failsafe" for i in INTENSITIES)
UNPROTECTED = tuple(f"{i}/unprotected" for i in INTENSITIES)


def arms(seed: int, fault_seed: int) -> Dict[str, SimulationSpec]:
    """Label -> spec: the reference, then per intensity its
    unprotected and failsafe arms."""
    # Every arm, the reference too, runs the "quiet" data-plane
    # scenario so restricted routing, drop accounting and partition
    # detection are attached on identical footing.
    base = dict(k=6, n=2, workload="uniform", duration_ns=2_000_000.0,
                seed=seed, control="fault_pinned", policy="ladder",
                uniform_offered_load=0.25, inject_fraction=0.5,
                faults="quiet", fault_seed=fault_seed)
    out = {"reference": SimulationSpec(**base)}
    for intensity in INTENSITIES:
        for failsafe in (False, True):
            label = f"{intensity}/{'failsafe' if failsafe else 'unprotected'}"
            out[label] = SimulationSpec(
                **base, control_faults=f"ctl_chaos_{intensity}",
                failsafe=failsafe)
    return out
