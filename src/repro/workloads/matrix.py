"""Structured traffic-matrix workloads for topology control.

The uniform workload spreads demand across every switch pair, which is
the one traffic matrix a demand-aware topology can do *nothing* with —
every link carries something.  The ``demand-topology`` campaign in
:mod:`repro.experiments.campaign` needs matrices with exploitable
structure, the shapes the reconfigurable-topology literature evaluates:

- :class:`SkewedMatrixWorkload` — Zipf-weighted per-host send rates
  with a fixed partner switch per source switch: a few switch pairs
  carry almost everything and most links idle.
- :class:`ShiftingMatrixWorkload` — the skewed matrix, but the
  partner mapping rotates every ``phase_ns``: structure persists, the
  *location* of the hot pairs does not, punishing any controller that
  freezes its topology to the first phase.
- :class:`DiurnalWorkload` — uniform destinations under a sinusoidal
  day/night intensity envelope: fabric-wide demand swings between
  ``floor`` and full offered load, rewarding a controller that darkens
  links at night and reactivates them for the morning ramp.

All three follow the uniform workload's determinism idiom: one
``random.Random(f"{seed}-host-{h}")`` stream per host, no ``hash()``,
so traces are identical across processes and ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, List

from repro.sums import left_sum
from repro.units import gbps_to_bytes_per_ns
from repro.workloads.base import TraceEvent, merge_event_streams


class SkewedMatrixWorkload:
    """Zipf-skewed demand concentrated on fixed switch partners.

    Hosts are grouped onto switches ``hosts_per_switch`` at a time
    (matching the fabric's concentration).  Switch ``s`` sends to a
    single partner switch — a seeded derangement-style rotation — at a
    Zipf(``zipf_s``) share of the total offered load, so low-ranked
    switches are nearly silent and the demand matrix is mostly zeros.

    Args:
        num_hosts: Host population (a multiple of ``hosts_per_switch``).
        hosts_per_switch: The fabric's concentration.
        offered_load: *Aggregate* mean injection as a fraction of
            aggregate host line rate.
        zipf_s: Zipf exponent for per-switch send shares.
        message_bytes: Transfer size.
        line_rate_gbps: Host line rate the load is relative to.
        seed: RNG seed; every host derives an independent stream.
    """

    def __init__(
        self,
        num_hosts: int,
        hosts_per_switch: int,
        offered_load: float = 0.25,
        zipf_s: float = 1.2,
        message_bytes: int = 64 * 1024,
        line_rate_gbps: float = 40.0,
        seed: int = 1,
    ):
        if hosts_per_switch < 1:
            raise ValueError(
                f"hosts_per_switch must be positive, got {hosts_per_switch}")
        if num_hosts < 2 * hosts_per_switch:
            raise ValueError("skewed traffic needs at least two switches")
        if num_hosts % hosts_per_switch:
            raise ValueError(
                f"{num_hosts} hosts do not fill switches of "
                f"{hosts_per_switch}")
        if not 0.0 < offered_load <= 1.0:
            raise ValueError(
                f"offered_load must be in (0, 1], got {offered_load}")
        self._num_hosts = num_hosts
        self.hosts_per_switch = hosts_per_switch
        self.num_switches = num_hosts // hosts_per_switch
        self.offered_load = offered_load
        self.zipf_s = zipf_s
        self.message_bytes = message_bytes
        self.line_rate_gbps = line_rate_gbps
        self.seed = seed

    @property
    def num_hosts(self) -> int:
        """Number of host endpoints."""
        return self._num_hosts

    def switch_of(self, host: int) -> int:
        """The switch a host is concentrated on."""
        return host // self.hosts_per_switch

    def send_shares(self) -> List[float]:
        """Per-switch Zipf shares of the aggregate load (sum to 1)."""
        ranks = self._switch_ranks()
        weights = [1.0 / (ranks[s] + 1) ** self.zipf_s
                   for s in range(self.num_switches)]
        total = left_sum(weights)
        return [w / total for w in weights]

    def _switch_ranks(self) -> List[int]:
        """Seeded permutation assigning each switch its Zipf rank."""
        rng = random.Random(f"{self.seed}-ranks")
        ranks = list(range(self.num_switches))
        rng.shuffle(ranks)
        return ranks

    def partner_of(self, switch: int, phase: int = 0) -> int:
        """The destination switch ``switch``'s hosts send to."""
        rng = random.Random(f"{self.seed}-partners")
        offsets = list(range(1, self.num_switches))
        rng.shuffle(offsets)
        offset = offsets[(switch + phase) % len(offsets)]
        return (switch + offset) % self.num_switches

    def _phase_at(self, t: float) -> int:
        del t
        return 0

    def _intensity_at(self, t: float) -> float:
        del t
        return 1.0

    def events(self, duration_ns: float) -> Iterator[TraceEvent]:
        """Yield time-sorted injection events within [0, duration_ns)."""
        streams = (
            self._host_stream(host, duration_ns)
            for host in range(self._num_hosts)
        )
        return merge_event_streams(streams)

    def _host_stream(self, host: int,
                     duration_ns: float) -> Iterator[TraceEvent]:
        rng = random.Random(f"{self.seed}-host-{host}")
        src_switch = self.switch_of(host)
        share = self.send_shares()[src_switch]
        # The switch's share of aggregate offered bytes/ns, spread over
        # its hosts.
        aggregate = (self.offered_load * self._num_hosts
                     * gbps_to_bytes_per_ns(self.line_rate_gbps))
        bytes_per_ns = share * aggregate / self.hosts_per_switch
        mean_gap = self.message_bytes / bytes_per_ns
        t = rng.expovariate(1.0 / mean_gap)
        while t < duration_ns:
            # Thinning: acceptance probability equals the (phase- or
            # time-varying) intensity, preserving Poisson arrivals.
            if rng.random() < self._intensity_at(t):
                partner = self.partner_of(src_switch, self._phase_at(t))
                dst = (partner * self.hosts_per_switch
                       + rng.randrange(self.hosts_per_switch))
                if dst == host:
                    dst = (partner * self.hosts_per_switch
                           + (host + 1) % self.hosts_per_switch)
                yield TraceEvent(t, host, dst, self.message_bytes)
            t += rng.expovariate(1.0 / mean_gap)


class ShiftingMatrixWorkload(SkewedMatrixWorkload):
    """Skewed matrix whose hot pairs relocate every ``phase_ns``.

    Each phase advances every switch's partner assignment by one step
    through the seeded offset permutation, so the demand matrix keeps
    its skew but the *set of hot links* moves — the adversarial case
    for a topology frozen to the first phase's matrix.
    """

    def __init__(self, num_hosts: int, hosts_per_switch: int,
                 phase_ns: float = 500_000.0, **kwargs):
        super().__init__(num_hosts, hosts_per_switch, **kwargs)
        if phase_ns <= 0:
            raise ValueError(f"phase_ns must be positive, got {phase_ns}")
        self.phase_ns = phase_ns

    def _phase_at(self, t: float) -> int:
        return int(t / self.phase_ns)


class DiurnalWorkload:
    """Uniform destinations under a sinusoidal day/night envelope.

    Intensity follows ``floor + (1 - floor) * (1 + cos) / 2`` over a
    ``period_ns`` cycle starting at peak: full offered load at "noon",
    ``floor`` of it at "midnight".  Implemented by thinning a peak-rate
    Poisson process, so the arrival process stays Poisson at every
    instant and determinism is per-host-stream like every workload.

    Args:
        num_hosts: Host population.
        offered_load: Peak mean injection as a fraction of line rate.
        period_ns: Length of one day/night cycle.
        floor: Night-time intensity as a fraction of peak, in [0, 1].
        message_bytes: Transfer size.
        line_rate_gbps: Host line rate the load is relative to.
        seed: RNG seed; every host derives an independent stream.
    """

    def __init__(
        self,
        num_hosts: int,
        offered_load: float = 0.25,
        period_ns: float = 1_000_000.0,
        floor: float = 0.1,
        message_bytes: int = 64 * 1024,
        line_rate_gbps: float = 40.0,
        seed: int = 1,
    ):
        if num_hosts < 2:
            raise ValueError("diurnal traffic needs at least two hosts")
        if not 0.0 < offered_load <= 1.0:
            raise ValueError(
                f"offered_load must be in (0, 1], got {offered_load}")
        if period_ns <= 0:
            raise ValueError(f"period_ns must be positive, got {period_ns}")
        if not 0.0 <= floor <= 1.0:
            raise ValueError(f"floor must be in [0, 1], got {floor}")
        self._num_hosts = num_hosts
        self.offered_load = offered_load
        self.period_ns = period_ns
        self.floor = floor
        self.message_bytes = message_bytes
        self.line_rate_gbps = line_rate_gbps
        self.seed = seed

    @property
    def num_hosts(self) -> int:
        """Number of host endpoints."""
        return self._num_hosts

    def intensity_at(self, t: float) -> float:
        """Instantaneous intensity as a fraction of peak, in [floor, 1]."""
        phase = 2.0 * math.pi * (t / self.period_ns)
        envelope = (1.0 + math.cos(phase)) / 2.0
        return self.floor + (1.0 - self.floor) * envelope

    @property
    def mean_interarrival_ns(self) -> float:
        """Mean gap of the *peak-rate* process being thinned."""
        bytes_per_ns = self.offered_load * gbps_to_bytes_per_ns(
            self.line_rate_gbps)
        return self.message_bytes / bytes_per_ns

    def events(self, duration_ns: float) -> Iterator[TraceEvent]:
        """Yield time-sorted injection events within [0, duration_ns)."""
        streams = (
            self._host_stream(host, duration_ns)
            for host in range(self._num_hosts)
        )
        return merge_event_streams(streams)

    def _host_stream(self, host: int,
                     duration_ns: float) -> Iterator[TraceEvent]:
        rng = random.Random(f"{self.seed}-host-{host}")
        mean_gap = self.mean_interarrival_ns
        t = rng.expovariate(1.0 / mean_gap)
        while t < duration_ns:
            if rng.random() < self.intensity_at(t):
                dst = rng.randrange(self._num_hosts - 1)
                if dst >= host:
                    dst += 1
                yield TraceEvent(t, host, dst, self.message_bytes)
            t += rng.expovariate(1.0 / mean_gap)
