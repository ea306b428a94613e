"""Demand-aware topology campaign arms: static vs degraded vs demand.

Static FBFLY, a statically degraded torus and demand-aware topology
control (:class:`~repro.topo.controller.DemandAwareTopologyController`)
each run under skewed, shifting and diurnal traffic matrices on a k=4
n=3 flattened butterfly at 25% load.  This module builds the nine arms;
the ``demand-topology`` entry of
:data:`repro.experiments.campaign.CAMPAIGNS` runs and judges them, each
against the same matrix's static arm.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.runner import SimulationSpec

#: Structured traffic matrices, report order; and the arms per matrix.
MATRICES = ("skewed", "shifting", "diurnal")
CONTROLS = (("static", "epoch"), ("degraded", "degraded_topo"),
            ("demand", "demand_topo"))
#: Matrices whose energy/latency legs gate the demand arm.  Shifting
#: hot pairs are the adversarial case (hysteresis pays reactivation on
#: every phase change): safety is required there, savings are not.
GATED = ("skewed/demand", "diurnal/demand")
LABELS = tuple(f"{w}/{arm}" for w in MATRICES for arm, _ in CONTROLS)


def arms(seed: int) -> Dict[str, SimulationSpec]:
    """Label ``<matrix>/<arm>`` -> spec, for every matrix and arm."""
    return {
        f"{matrix}/{arm}": SimulationSpec(
            k=4, n=3, workload=matrix, duration_ns=2_000_000.0, seed=seed,
            control=control, policy="ladder", uniform_offered_load=0.25,
            inject_fraction=0.5,
            forecaster="ewma" if arm == "demand" else None)
        for matrix in MATRICES for arm, control in CONTROLS}
