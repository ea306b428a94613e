"""Event-driven network simulator.

Packet-granularity simulator with the mechanisms the paper's evaluation
relies on (Section 4.1): credit-based, cut-through flow control; input
and output buffered switches; adaptive routing on output queue depth; and
plesiochronous channels that can be detuned through a rate ladder with a
non-instantaneous reactivation penalty.

Modules:

- :mod:`repro.sim.engine` — the discrete-event core.
- :mod:`repro.sim.packet` — messages and packets.
- :mod:`repro.sim.channel` — unidirectional plesiochronous channels.
- :mod:`repro.sim.switch` — input/output buffered switches.
- :mod:`repro.sim.host` — host NICs (packetization, reassembly).
- :mod:`repro.sim.network` — wires a FBFLY topology into a simulation.
- :mod:`repro.sim.stats` — latency, utilization and power accounting.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".engine": ("Simulator", "Event"),
    ".packet": ("Message", "Packet"),
    ".channel": ("Channel", "ChannelState"),
    ".switch": ("Switch",),
    ".host": ("Host",),
    ".fabric": ("Fabric",),
    ".network": ("FbflyNetwork", "NetworkConfig"),
    ".clos_network": ("FatTreeNetwork",),
    ".faults": ("LinkFaultInjector", "FaultRecord"),
    ".invariants": ("check_fabric", "InvariantReport"),
    ".monitors": ("PowerMonitor",),
    ".stats": ("NetworkStats", "ChannelStats"),
    ".taps": ("EpochDemandTap",),
})

__all__ = [
    "Simulator",
    "Event",
    "Message",
    "Packet",
    "Channel",
    "ChannelState",
    "Switch",
    "Host",
    "Fabric",
    "FbflyNetwork",
    "NetworkConfig",
    "FatTreeNetwork",
    "LinkFaultInjector",
    "FaultRecord",
    "check_fabric",
    "InvariantReport",
    "PowerMonitor",
    "NetworkStats",
    "ChannelStats",
    "EpochDemandTap",
]
