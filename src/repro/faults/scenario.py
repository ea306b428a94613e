"""Declarative, seeded fault scenarios.

A :class:`FaultScenario` is a pure description of a fault campaign:
deterministic link flaps, whole-switch-chip failures, an MTBF/MTTR
random fault process, and (optionally) a lie injected into the
controllers' utilization sensors.  Scenarios compile to a flat,
time-sorted schedule of link events and are applied to a fabric through
the :class:`~repro.sim.faults.LinkFaultInjector`.

Determinism is the load-bearing property: the random process draws
from ``random.Random(f"faults:{seed}:{a}-{b}")`` — one independent
stream per link, string-seeded (CPython hashes string seeds with
SHA-512, so the stream is identical across ``PYTHONHASHSEED`` values
and platforms).  Same seed, same topology, same horizon ⇒ bit-identical
schedule, which is what lets fault campaigns live in the run cache and
the golden files.

Named scenarios are registered in a small registry
(:func:`register_scenario` / :func:`build_scenario`) keyed by
``SimulationSpec.faults``, mirroring ``repro.core.registry`` for
control modes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: One compiled link event: fail link (a, b) at ``time_ns`` and repair
#: it ``down_ns`` later (``None`` = never repaired).
ScheduledFault = Tuple[float, int, int, Optional[float]]


@dataclass(frozen=True)
class LinkFlap:
    """One deterministic down/up excursion of a single link."""

    time_ns: float
    a: int
    b: int
    down_ns: Optional[float] = None


@dataclass(frozen=True)
class SwitchChipFailure:
    """A whole switch chip dies: every incident link goes down."""

    time_ns: float
    switch: int
    down_ns: Optional[float] = None


@dataclass(frozen=True)
class RandomLinkFaults:
    """A Weibull MTBF/MTTR renewal process, independently per link.

    Times between failures draw from ``weibullvariate(mtbf_ns, shape)``
    and repair times from ``weibullvariate(mttr_ns, shape)``; shape 1.0
    is the classic memoryless (exponential) process, >1 models wear-out
    clustering.
    """

    mtbf_ns: float
    mttr_ns: float
    shape: float = 1.0
    start_ns: float = 0.0
    end_ns: Optional[float] = None  # None = campaign horizon

    def __post_init__(self):
        if self.mtbf_ns <= 0.0:
            raise ValueError(f"mtbf_ns must be > 0, got {self.mtbf_ns}")
        if self.mttr_ns < 0.0:
            raise ValueError(f"mttr_ns must be >= 0, got {self.mttr_ns}")
        if self.shape <= 0.0:
            raise ValueError(f"shape must be > 0, got {self.shape}")


@dataclass(frozen=True)
class SensorFault:
    """A lie fed to the controllers' utilization sensors.

    ``kind="stuck"`` pins the estimate of affected groups at ``value``;
    ``kind="noisy"`` adds zero-mean Gaussian noise of ``sigma``.
    ``fraction`` selects which groups are affected — deterministically,
    by hashing the group name with the scenario seed.
    """

    kind: str = "stuck"
    value: float = 0.0
    sigma: float = 0.0
    fraction: float = 1.0
    start_ns: float = 0.0

    def __post_init__(self):
        if self.kind not in ("stuck", "noisy"):
            raise ValueError(f"unknown sensor-fault kind {self.kind!r}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], "
                             f"got {self.fraction}")


@dataclass(frozen=True)
class FaultScenario:
    """One declarative fault campaign (pure data, deterministic)."""

    name: str
    seed: int = 0
    flaps: Tuple[LinkFlap, ...] = ()
    chip_failures: Tuple[SwitchChipFailure, ...] = ()
    random_faults: Optional[RandomLinkFaults] = None
    sensor_fault: Optional[SensorFault] = None

    # ------------------------------------------------------------------

    def link_rng(self, a: int, b: int) -> random.Random:
        """The per-link RNG stream (PYTHONHASHSEED-independent)."""
        lo, hi = (a, b) if a <= b else (b, a)
        return random.Random(f"faults:{self.seed}:{lo}-{hi}")

    def compile(self, links: Sequence[Tuple[int, int]],
                duration_ns: float) -> List[ScheduledFault]:
        """Flatten to a time-sorted schedule over ``links``.

        Args:
            links: The fabric's undirected link set as (a, b) pairs
                with a < b (switch-chip failures expand against it).
            duration_ns: Campaign horizon; events at or beyond it are
                not scheduled.
        """
        ordered = sorted(set(links))
        incident: Dict[int, List[Tuple[int, int]]] = {}
        for a, b in ordered:
            incident.setdefault(a, []).append((a, b))
            incident.setdefault(b, []).append((a, b))

        schedule: List[ScheduledFault] = []
        for flap in self.flaps:
            if flap.time_ns < duration_ns:
                schedule.append((flap.time_ns, flap.a, flap.b,
                                 flap.down_ns))
        for chip in self.chip_failures:
            if chip.time_ns >= duration_ns:
                continue
            for a, b in incident.get(chip.switch, ()):
                schedule.append((chip.time_ns, a, b, chip.down_ns))
        if self.random_faults is not None:
            schedule.extend(
                self._compile_random(ordered, duration_ns))
        # Sort by (time, link) — a total order, so ties are stable.
        schedule.sort(key=lambda ev: (ev[0], ev[1], ev[2]))
        return schedule

    def _compile_random(self, links: Sequence[Tuple[int, int]],
                        duration_ns: float) -> List[ScheduledFault]:
        process = self.random_faults
        end = duration_ns if process.end_ns is None else min(
            process.end_ns, duration_ns)
        events: List[ScheduledFault] = []
        for a, b in links:
            rng = self.link_rng(a, b)
            t = process.start_ns
            while True:
                t += rng.weibullvariate(process.mtbf_ns, process.shape)
                if t >= end:
                    break
                down = rng.weibullvariate(process.mttr_ns, process.shape)
                events.append((t, a, b, down))
                t += down
        return events


def apply_scenario(scenario: FaultScenario, network, injector,
                   until_ns: float) -> List[ScheduledFault]:
    """Schedule a compiled scenario onto a fabric's injector.

    Returns the compiled schedule (useful for assertions and reports).
    """
    links = sorted({(min(a, b), max(a, b))
                    for a, b in network.switch_channel_map()})
    schedule = scenario.compile(links, until_ns)
    for time_ns, a, b, down_ns in schedule:
        injector.fail_link(time_ns, a, b, repair_after_ns=down_ns)
    return schedule


# ---------------------------------------------------------------------------
# Named-scenario registry (keyed by SimulationSpec.faults)
# ---------------------------------------------------------------------------

#: name -> builder(spec) -> FaultScenario
_SCENARIOS: Dict[str, Callable] = {}


def register_scenario(name: str, builder: Callable) -> None:
    """Register a named scenario builder (``builder(spec) ->
    FaultScenario``).  Re-registration replaces, like the control-mode
    registry."""
    _SCENARIOS[name] = builder


def registered_scenarios() -> List[str]:
    """Sorted names of all registered scenarios."""
    return sorted(_SCENARIOS)


def build_scenario(name: str, spec) -> FaultScenario:
    """Build the named scenario for one simulation spec."""
    try:
        builder = _SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault scenario {name!r}; registered: "
            f"{', '.join(registered_scenarios()) or '(none)'}") from None
    return builder(spec)


# -- built-in scenarios ------------------------------------------------------


def _mtbf(spec) -> FaultScenario:
    """The acceptance campaign: random link faults plus stuck sensors.

    Fault pressure scales with the spec's horizon, so the campaign has
    the same character at any duration: each link fails about once per
    ~1.5 horizons and stays down ~6% of a horizon; 35% of the control
    groups report zero demand to their controller from t=0 (the
    stuck-at-zero sensors that lure an unprotected gating policy into
    powering off load-bearing links).
    """
    return FaultScenario(
        name="mtbf", seed=spec.fault_seed,
        random_faults=RandomLinkFaults(
            mtbf_ns=1.5 * spec.duration_ns,
            mttr_ns=0.06 * spec.duration_ns,
            shape=1.5),
        sensor_fault=SensorFault(kind="stuck", value=0.0,
                                 fraction=0.35))


def _quiet(spec) -> FaultScenario:
    """No data-plane faults at all.

    The fault-free arm of a campaign on identical footing: restricted
    routing, drop accounting and BFS partition detection are attached
    exactly as in the faulted arms (a gating controller can dark links
    on its own, so even a healthy-fabric arm needs them), but the
    injector schedules nothing.
    """
    return FaultScenario(name="quiet", seed=spec.fault_seed)


def _mtbf_clean(spec) -> FaultScenario:
    """Random link faults only — honest sensors."""
    return FaultScenario(
        name="mtbf_clean", seed=spec.fault_seed,
        random_faults=RandomLinkFaults(
            mtbf_ns=1.5 * spec.duration_ns,
            mttr_ns=0.06 * spec.duration_ns,
            shape=1.5))


def _flap(spec) -> FaultScenario:
    """One link flapping down/up four times across the run."""
    quarter = spec.duration_ns / 4.0
    flaps = tuple(
        LinkFlap(time_ns=(i + 0.25) * quarter, a=0, b=1,
                 down_ns=quarter / 4.0)
        for i in range(4))
    return FaultScenario(name="flap", seed=spec.fault_seed, flaps=flaps)


def _chipkill(spec) -> FaultScenario:
    """Switch 1 dies mid-run and comes back after 20% of the horizon."""
    return FaultScenario(
        name="chipkill", seed=spec.fault_seed,
        chip_failures=(SwitchChipFailure(
            time_ns=0.4 * spec.duration_ns, switch=1,
            down_ns=0.2 * spec.duration_ns),))


def _stuck_sensor(spec) -> FaultScenario:
    """No link faults; 35% of sensors stuck at zero from t=0."""
    return FaultScenario(
        name="stuck_sensor", seed=spec.fault_seed,
        sensor_fault=SensorFault(kind="stuck", value=0.0,
                                 fraction=0.35))


def _noisy_sensor(spec) -> FaultScenario:
    """No link faults; every sensor reads truth plus N(0, 0.2) noise."""
    return FaultScenario(
        name="noisy_sensor", seed=spec.fault_seed,
        sensor_fault=SensorFault(kind="noisy", sigma=0.2,
                                 fraction=1.0))


register_scenario("quiet", _quiet)
register_scenario("mtbf", _mtbf)
register_scenario("mtbf_clean", _mtbf_clean)
register_scenario("flap", _flap)
register_scenario("chipkill", _chipkill)
register_scenario("stuck_sensor", _stuck_sensor)
register_scenario("noisy_sensor", _noisy_sensor)
