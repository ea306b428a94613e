"""Routing substrate.

All strategies share one contract: called as ``strategy(switch, packet)``
they return the candidate output channels for the packet's next hop; the
switch then applies the paper's selection rule (least output-queue
occupancy) and flow control.

- :mod:`repro.routing.adaptive` — minimal adaptive FBFLY routing
  (the paper's mechanism: any unresolved dimension is a legal hop).
- :mod:`repro.routing.dimension_order` — deterministic dimension-order
  baseline (no path diversity).
- :mod:`repro.routing.restricted` — adaptive routing over a subset of
  powered links (mesh/torus dynamic topologies, Section 5.1).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".adaptive": ("MinimalAdaptiveRouting",),
    ".dimension_order": ("DimensionOrderRouting",),
    ".restricted": ("RestrictedAdaptiveRouting",),
    ".fat_tree": ("FatTreeUpDownRouting",),
    ".energy_aware": ("EnergyAwareRouting",),
})

__all__ = [
    "MinimalAdaptiveRouting",
    "DimensionOrderRouting",
    "RestrictedAdaptiveRouting",
    "FatTreeUpDownRouting",
    "EnergyAwareRouting",
]
