"""Cluster-level power roll-ups (Figure 1 and Table 1).

Combines a topology's bill of materials with the switch-chip and NIC
power assumptions of Section 2.2:

- every powered switch chip consumes a fixed 100 W regardless of which
  "always on" link media it drives,
- every host NIC consumes 10 W at full utilization,
- servers (for Figure 1) consume 250 W each at peak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.power.serdes import SwitchChipPowerModel, PAPER_SWITCH
from repro.topology.base import Topology


@dataclass(frozen=True)
class ClusterPowerBreakdown:
    """Network power decomposed into its chip and NIC components."""

    switch_watts: float
    nic_watts: float

    @property
    def total_watts(self) -> float:
        """Sum of all components, in watts."""
        return self.switch_watts + self.nic_watts


@dataclass(frozen=True)
class ClusterPowerModel:
    """Power of a whole cluster build around a given topology.

    Attributes:
        switch_chip: Per-chip power model (defaults to the paper's
            36-port, 100 W chip).
        nic_watts: Host network-interface power at full utilization.
        server_watts: Per-server peak power (Figure 1 uses 250 W).
    """

    switch_chip: SwitchChipPowerModel = PAPER_SWITCH
    nic_watts: float = 10.0
    server_watts: float = 250.0

    # ------------------------------------------------------------------
    # Table 1
    # ------------------------------------------------------------------

    def network_power(self, topology: Topology) -> ClusterPowerBreakdown:
        """Full-utilization network power of a topology build."""
        parts = topology.part_counts()
        return ClusterPowerBreakdown(
            switch_watts=parts.switch_chips_powered * self.switch_chip.chip_watts,
            nic_watts=topology.num_hosts * self.nic_watts,
        )

    def table1_row(self, topology: Topology, link_rate_gbps: float) -> Dict[str, float]:
        """One column of Table 1 for ``topology``."""
        parts = topology.part_counts()
        power = self.network_power(topology)
        bisection = topology.bisection_bandwidth_gbps(link_rate_gbps)
        return {
            "num_hosts": topology.num_hosts,
            "bisection_gbps": bisection,
            "electrical_links": parts.electrical_links,
            "optical_links": parts.optical_links,
            "switch_chips": parts.switch_chips,
            "total_power_watts": power.total_watts,
            "watts_per_bisection_gbps": power.total_watts / bisection,
        }

    # ------------------------------------------------------------------
    # Figure 1
    # ------------------------------------------------------------------

    def server_power(self, num_servers: int, utilization: float = 1.0,
                     energy_proportional: bool = False) -> float:
        """Aggregate server power.

        An energy-proportional server consumes ``utilization`` times its
        peak power; a conventional one consumes peak power regardless.
        """
        _check_utilization(utilization)
        scale = utilization if energy_proportional else 1.0
        return num_servers * self.server_watts * scale

    def figure1_scenarios(self, topology: Topology) -> Dict[str, Dict[str, float]]:
        """The three bar groups of Figure 1, in watts.

        1. Everything at 100% utilization.
        2. 15% utilization with energy-proportional *servers* but a
           conventional always-on network — the network is now ~50% of
           cluster power.
        3. 15% utilization with an energy-proportional network as well
           (network power scales with utilization).
        """
        network = self.network_power(topology).total_watts
        n = topology.num_hosts
        utilization = 0.15
        return {
            "full_utilization": {
                "server_watts": self.server_power(n),
                "network_watts": network,
            },
            "proportional_servers_15pct": {
                "server_watts": self.server_power(
                    n, utilization, energy_proportional=True),
                "network_watts": network,
            },
            "proportional_servers_and_network_15pct": {
                "server_watts": self.server_power(
                    n, utilization, energy_proportional=True),
                "network_watts": network * utilization,
            },
        }


def _check_utilization(utilization: float) -> None:
    if not 0.0 <= utilization <= 1.0:
        raise ValueError(f"utilization must be in [0, 1], got {utilization}")
