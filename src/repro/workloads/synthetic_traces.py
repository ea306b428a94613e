"""Synthetic substitutes for the paper's production traces.

The paper evaluates on traces of an advertising service (*Advert*) and a
web-search service (*Search*), scaled up and placement-randomized, in
which "distributed file system traffic accounts for a significant
fraction of traffic".  The traces themselves are proprietary; what the
results depend on is the traffic's *structure*, which the paper states
explicitly:

1. "they are very bursty at a variety of timescales, yet exhibit low
   average network utilization of 5-25%";
2. per-direction channel load is asymmetric — "depending on replication
   factor and the ratio of reads to writes, a file server ... may
   respond to more reads (i.e., inject data into the network) than
   writes ... or vice versa" (the basis of the independent-channel
   result, Figure 7).

:class:`BurstyTraceWorkload` generates traffic with those properties
from an explicit request/response + replication model:

- Hosts split into **servers** (file/leaf servers) and **clients**.
- Clients alternate ON/OFF phases (exponential durations — the
  millisecond-scale burst layer).  During ON phases, **sessions** arrive
  as a Poisson process; each session targets a Zipf-popular server and
  issues a geometric number of small requests, each answered by a
  heavy-tailed (lognormal) response — the microsecond-scale burst layer
  and the source of server-side injection asymmetry.
- Servers additionally exchange ON/OFF-modulated bulk **replication**
  transfers (the DFS write/replication traffic).

The generator is calibrated so mean injection per host equals
``avg_load`` of the line rate; everything else (who talks to whom, in
which direction, how bursty) emerges from the model.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Sequence

from repro.sums import left_sum
from repro.units import US, gbps_to_bytes_per_ns
from repro.workloads.base import TraceEvent, merge_event_streams


@dataclass(frozen=True)
class LogNormalSize:
    """Lognormal message-size distribution, parameterized by its median.

    ``mean = median * exp(sigma**2 / 2)``; samples are clipped to
    [min_bytes, max_bytes] to keep tails physical.
    """

    median_bytes: float
    sigma: float
    min_bytes: int = 64
    max_bytes: int = 4 * 1024 * 1024

    def mean_bytes(self) -> float:
        """Mean of the (unclipped) lognormal, in bytes."""
        return self.median_bytes * math.exp(self.sigma ** 2 / 2.0)

    def sample(self, rng: random.Random) -> int:
        """Draw one size in bytes, clipped to the configured range."""
        raw = self.median_bytes * math.exp(self.sigma * rng.gauss(0.0, 1.0))
        return int(min(max(raw, self.min_bytes), self.max_bytes))


@dataclass(frozen=True)
class TraceProfile:
    """Shape parameters of one synthetic datacenter service.

    Attributes:
        name: Label used in reports.
        avg_load: Target mean injection per host as a fraction of line rate.
        server_fraction: Fraction of hosts acting as servers.
        requests_per_session_mean: Mean of the geometric request count.
        request_size: Client -> server request sizes.
        response_size: Server -> client response sizes (the heavy tail).
        replication_size: Server -> server bulk-transfer sizes.
        replication_byte_fraction: Fraction of total bytes carried by
            replication traffic.
        intra_session_gap_ns: Mean gap between a response and the
            session's next request.
        server_think_ns: Mean request -> response delay at the server.
        client_duty_cycle: Fraction of time a client is in an ON phase.
        client_on_ns: Mean ON-phase duration (OFF derives from the duty
            cycle); this sets the mid-timescale burst layer.
        zipf_skew: Popularity skew across servers (0 = uniform).
    """

    name: str
    avg_load: float
    server_fraction: float = 0.25
    requests_per_session_mean: float = 8.0
    request_size: LogNormalSize = LogNormalSize(1024, 0.8)
    response_size: LogNormalSize = LogNormalSize(24 * 1024, 1.2)
    replication_size: LogNormalSize = LogNormalSize(256 * 1024, 1.0)
    replication_byte_fraction: float = 0.3
    intra_session_gap_ns: float = 1.5 * US
    server_think_ns: float = 2.0 * US
    client_duty_cycle: float = 0.3
    client_on_ns: float = 40.0 * US
    zipf_skew: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 < self.avg_load <= 1.0:
            raise ValueError(f"avg_load must be in (0, 1], got {self.avg_load}")
        if not 0.0 < self.server_fraction < 1.0:
            raise ValueError("server_fraction must be in (0, 1)")
        if not 0.0 <= self.replication_byte_fraction < 1.0:
            raise ValueError("replication_byte_fraction must be in [0, 1)")
        if not 0.0 < self.client_duty_cycle <= 1.0:
            raise ValueError("client_duty_cycle must be in (0, 1]")


#: Web-search-like service: high fan-out of smallish responses, moderate
#: replication.  Calibrated to the paper's Search average utilization (~6%).
# avg_load is the *injection* target; measured average link utilization of a
# finite run sits a little lower (messages still in flight at the horizon),
# so the target is calibrated to land the measured utilization at the
# paper's ~6%.
SEARCH_PROFILE = TraceProfile(name="search", avg_load=0.072)

#: Advertising-like service: fewer, larger transfers (logs/model state),
#: heavier replication share, spikier popularity.  Calibrated (see above)
#: to the paper's Advert average utilization (~5%).
ADVERT_PROFILE = TraceProfile(
    name="advert",
    avg_load=0.062,
    server_fraction=0.2,
    requests_per_session_mean=4.0,
    request_size=LogNormalSize(2048, 0.8),
    response_size=LogNormalSize(64 * 1024, 1.5),
    replication_size=LogNormalSize(512 * 1024, 1.0),
    replication_byte_fraction=0.45,
    intra_session_gap_ns=3.0 * US,
    server_think_ns=5.0 * US,
    client_duty_cycle=0.25,
    client_on_ns=60.0 * US,
    zipf_skew=1.1,
)


#: Predictive-control stress case: the same request/response model but
#: with long, deep ON/OFF swings.  Clients sit dark 85% of the time and
#: concentrate their whole load into 160 us ON phases of fat responses,
#: so per-link demand alternates between near-zero and many-epoch
#: plateaus far above the mean — the regime where a reactive controller
#: pays a full epoch of latency at every burst front and a forecaster
#: has real structure to exploit.
BURSTY_PROFILE = TraceProfile(
    name="bursty",
    avg_load=0.055,
    server_fraction=0.25,
    requests_per_session_mean=12.0,
    response_size=LogNormalSize(96 * 1024, 1.0),
    replication_size=LogNormalSize(1024 * 1024, 0.8),
    replication_byte_fraction=0.35,
    intra_session_gap_ns=1.0 * US,
    client_duty_cycle=0.15,
    client_on_ns=160.0 * US,
    zipf_skew=1.2,
)


class BurstyTraceWorkload:
    """Multi-timescale bursty request/response + replication traffic."""

    def __init__(
        self,
        num_hosts: int,
        profile: TraceProfile,
        line_rate_gbps: float = 40.0,
        seed: int = 1,
    ):
        if num_hosts < 4:
            raise ValueError("need at least 4 hosts for a client/server split")
        self._num_hosts = num_hosts
        self.profile = profile
        self.line_rate_gbps = line_rate_gbps
        self.seed = seed

        num_servers = max(1, round(num_hosts * profile.server_fraction))
        num_servers = min(num_servers, num_hosts - 1)
        placement_rng = random.Random(f"{seed}-placement")
        hosts = list(range(num_hosts))
        placement_rng.shuffle(hosts)  # randomized placement, as in the paper
        self.servers: List[int] = sorted(hosts[:num_servers])
        self.clients: List[int] = sorted(hosts[num_servers:])
        self._server_cdf = self._zipf_cdf(len(self.servers), profile.zipf_skew)

    # ------------------------------------------------------------------

    @property
    def num_hosts(self) -> int:
        """Number of host endpoints."""
        return self._num_hosts

    def session_bytes_mean(self) -> float:
        """Expected request+response bytes of one session."""
        p = self.profile
        per_exchange = (p.request_size.mean_bytes()
                        + p.response_size.mean_bytes())
        return p.requests_per_session_mean * per_exchange

    def target_bytes_per_ns(self) -> float:
        """Aggregate injection target across all hosts."""
        return (self._num_hosts * self.profile.avg_load
                * gbps_to_bytes_per_ns(self.line_rate_gbps))

    def session_rate_per_client(self) -> float:
        """Sessions per ns per client, from the load calibration."""
        p = self.profile
        rr_bytes_per_ns = self.target_bytes_per_ns() * (
            1.0 - p.replication_byte_fraction)
        return rr_bytes_per_ns / (len(self.clients) * self.session_bytes_mean())

    def replication_rate_per_server(self) -> float:
        """Replication transfers per ns per server."""
        p = self.profile
        repl_bytes_per_ns = (self.target_bytes_per_ns()
                             * p.replication_byte_fraction)
        if len(self.servers) < 2:
            return 0.0
        return repl_bytes_per_ns / (
            len(self.servers) * p.replication_size.mean_bytes())

    # ------------------------------------------------------------------

    def events(self, duration_ns: float) -> Iterator[TraceEvent]:
        """Yield time-sorted injection events within [0, duration_ns)."""
        streams = itertools.chain(
            (self._client_stream(c, duration_ns) for c in self.clients),
            (self._replication_stream(s, duration_ns) for s in self.servers),
        )
        return merge_event_streams(streams)

    # ------------------------------------------------------------------
    # Client request/response sessions
    # ------------------------------------------------------------------

    def _client_stream(self, client: int,
                       duration_ns: float) -> Iterator[TraceEvent]:
        p = self.profile
        rng = random.Random(f"{self.seed}-client-{client}")
        events: List[TraceEvent] = []
        lam_on = self.session_rate_per_client() / p.client_duty_cycle
        off_ns = p.client_on_ns * (1.0 - p.client_duty_cycle) / p.client_duty_cycle

        t = rng.uniform(0.0, p.client_on_ns + off_ns)  # desynchronize hosts
        on = rng.random() < p.client_duty_cycle
        while t < duration_ns:
            if on:
                phase_end = t + rng.expovariate(1.0 / p.client_on_ns)
                t = self._emit_sessions(
                    events, rng, client, t, min(phase_end, duration_ns), lam_on)
                t = phase_end
            else:
                t += rng.expovariate(1.0 / off_ns) if off_ns > 0 else 0.0
            on = not on
        events.sort()
        return iter(events)

    def _emit_sessions(self, events: List[TraceEvent], rng: random.Random,
                       client: int, start: float, end: float,
                       lam_on: float) -> float:
        p = self.profile
        t = start + rng.expovariate(lam_on)
        while t < end:
            server = self._pick_server(rng)
            self._emit_one_session(events, rng, client, server, t)
            t += rng.expovariate(lam_on)
        return end

    def _emit_one_session(self, events: List[TraceEvent], rng: random.Random,
                          client: int, server: int, start: float) -> None:
        p = self.profile
        requests = self._geometric(rng, p.requests_per_session_mean)
        t = start
        for _ in range(requests):
            events.append(TraceEvent(
                t, client, server, p.request_size.sample(rng)))
            response_at = t + rng.expovariate(1.0 / p.server_think_ns)
            events.append(TraceEvent(
                response_at, server, client, p.response_size.sample(rng)))
            t = response_at + rng.expovariate(1.0 / p.intra_session_gap_ns)

    # ------------------------------------------------------------------
    # Server-to-server replication
    # ------------------------------------------------------------------

    def _replication_stream(self, server: int,
                            duration_ns: float) -> Iterator[TraceEvent]:
        p = self.profile
        rng = random.Random(f"{self.seed}-replication-{server}")
        rate = self.replication_rate_per_server()
        if rate <= 0.0:
            return iter(())
        events: List[TraceEvent] = []
        # Replication bursts at a slower timescale than client sessions.
        on_ns = 4.0 * p.client_on_ns
        duty = 0.5
        off_ns = on_ns * (1.0 - duty) / duty
        lam_on = rate / duty
        t = rng.uniform(0.0, on_ns + off_ns)
        on = rng.random() < duty
        while t < duration_ns:
            if on:
                phase_end = t + rng.expovariate(1.0 / on_ns)
                tick = t + rng.expovariate(lam_on)
                while tick < min(phase_end, duration_ns):
                    peer = self._pick_peer_server(rng, server)
                    events.append(TraceEvent(
                        tick, server, peer, p.replication_size.sample(rng)))
                    tick += rng.expovariate(lam_on)
                t = phase_end
            else:
                t += rng.expovariate(1.0 / off_ns)
            on = not on
        events.sort()
        return iter(events)

    # ------------------------------------------------------------------
    # Sampling helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _zipf_cdf(n: int, skew: float) -> Sequence[float]:
        weights = [1.0 / (rank ** skew) for rank in range(1, n + 1)]
        total = left_sum(weights)
        cdf = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cdf.append(acc)
        return cdf

    def _pick_server(self, rng: random.Random) -> int:
        index = bisect.bisect_left(self._server_cdf, rng.random())
        return self.servers[min(index, len(self.servers) - 1)]

    def _pick_peer_server(self, rng: random.Random, exclude: int) -> int:
        if len(self.servers) < 2:
            raise ValueError("replication needs at least two servers")
        while True:
            peer = self._pick_server(rng)
            if peer != exclude:
                return peer

    @staticmethod
    def _geometric(rng: random.Random, mean: float) -> int:
        """Geometric sample with the given mean, support >= 1."""
        if mean <= 1.0:
            return 1
        p = 1.0 / mean
        return 1 + int(math.log(max(rng.random(), 1e-12)) / math.log(1.0 - p))


def search_workload(num_hosts: int, seed: int = 1,
                    line_rate_gbps: float = 40.0) -> BurstyTraceWorkload:
    """The Search-like trace workload (~6% average utilization)."""
    return BurstyTraceWorkload(num_hosts, SEARCH_PROFILE,
                               line_rate_gbps=line_rate_gbps, seed=seed)


def advert_workload(num_hosts: int, seed: int = 1,
                    line_rate_gbps: float = 40.0) -> BurstyTraceWorkload:
    """The Advert-like trace workload (~5% average utilization)."""
    return BurstyTraceWorkload(num_hosts, ADVERT_PROFILE,
                               line_rate_gbps=line_rate_gbps, seed=seed)


def bursty_workload(num_hosts: int, seed: int = 1,
                    line_rate_gbps: float = 40.0) -> BurstyTraceWorkload:
    """The deep-ON/OFF predictive-control stress workload."""
    return BurstyTraceWorkload(num_hosts, BURSTY_PROFILE,
                               line_rate_gbps=line_rate_gbps, seed=seed)
