"""Topology substrate: flattened butterfly, folded Clos, and the
mesh/torus degradations used by dynamic topologies.

The paper's Section 2 compares a flattened butterfly (FBFLY) against a
folded-Clos of equal size and bisection bandwidth at the level of *parts*:
switch chips, electrical links and optical links.  This package provides
both that analytic parts model (:mod:`repro.topology.parts`) and the full
connectivity graphs the simulator instantiates.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".parts": ("PartCount",),
    ".base": ("Coordinate", "SwitchLink", "Topology"),
    ".flattened_butterfly": ("FlattenedButterfly",),
    ".folded_clos": ("FoldedClos",),
    ".fat_tree": ("FatTree",),
    ".mesh_torus": ("LinkClass", "classify_links", "mesh_link_set",
                    "torus_link_set"),
})

__all__ = [
    "PartCount",
    "Coordinate",
    "SwitchLink",
    "Topology",
    "FlattenedButterfly",
    "FoldedClos",
    "FatTree",
    "LinkClass",
    "classify_links",
    "mesh_link_set",
    "torus_link_set",
]
