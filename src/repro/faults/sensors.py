"""Faulty utilization sensors.

:class:`FaultySensor` wraps any :class:`~repro.core.sensors.
CongestionSensor` and corrupts its estimate per the scenario's
:class:`~repro.faults.scenario.SensorFault` — the controller keeps
trusting a sensor that is lying to it, which is exactly the failure
mode that makes unprotected power-gating dangerous: a stuck-at-zero
sensor makes a loaded link look idle, and an eager gating policy will
happily power it off.

Affected-group selection and the noise streams are deterministic
(string-seeded per-group RNGs), so fault campaigns stay bit-identical
across ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.core.sensors import GroupReading
from repro.faults.scenario import SensorFault
from repro.keyed import keyed_draw


class FaultySensor:
    """A congestion sensor that lies, per a :class:`SensorFault`.

    Args:
        base: The honest sensor being corrupted.
        fault: What lie to tell, to whom, from when.
        network: The fabric (for the simulation clock).
        seed: Scenario seed; group selection and noise derive from it.
    """

    def __init__(self, base, fault: SensorFault, network, seed: int = 0):
        self.base = base
        self.fault = fault
        self.network = network
        self.seed = seed
        self._affected: Dict[str, bool] = {}
        self._noise: Dict[str, random.Random] = {}

    def _group_name(self, group_key) -> str:
        return getattr(group_key, "name", str(group_key))

    def affected(self, group_key) -> bool:
        """Whether this group's sensor is corrupted (deterministic)."""
        name = self._group_name(group_key)
        hit = self._affected.get(name)
        if hit is None:
            draw = keyed_draw(f"sensorfault:{self.seed}:{name}")
            hit = draw < self.fault.fraction
            self._affected[name] = hit
        return hit

    def estimate(self, group_key, reading: GroupReading) -> float:
        """The (possibly corrupted) demand estimate."""
        value = self.base.estimate(group_key, reading)
        if self.network.sim.now < self.fault.start_ns:
            return value
        if not self.affected(group_key):
            return value
        if self.fault.kind == "stuck":
            return self.fault.value
        name = self._group_name(group_key)
        rng = self._noise.get(name)
        if rng is None:
            rng = random.Random(f"sensornoise:{self.seed}:{name}")
            self._noise[name] = rng
        return max(0.0, value + rng.gauss(0.0, self.fault.sigma))
