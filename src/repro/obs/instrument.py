"""Near-zero-cost fabric instrumentation.

A :class:`FabricProbe` wires a :class:`~repro.obs.metrics.MetricsRegistry`
into the simulation's hot paths through the ``probe`` slot, the one way
observation enters the fabric (besides the engine's ``observer``): every
hook site holds a ``probe`` reference that defaults to ``None``, so an
uninstrumented run pays one ``is None`` check per hook and nothing
else.  Attach with::

    registry = MetricsRegistry()
    FabricProbe(registry).attach(network)
    network.run(until_ns=...)
    print(registry.format_text())

Hook sites and what they record:

- :meth:`on_event_fired` (``sim.engine.Simulator._fire``) — events by
  daemon/task kind.
- :meth:`on_enqueue` (``sim.channel.Channel.enqueue``) — output-queue
  depth histogram.
- :meth:`on_rate_change` (``sim.channel.Channel``) — per-channel rate
  transition counters.
- :meth:`on_packet_forwarded` / :meth:`on_packet_blocked` /
  :meth:`on_packet_escaped` / :meth:`on_packet_dropped`
  (``sim.switch.Switch``) — routing outcomes.
- :meth:`on_packet_delivered` / :meth:`on_message_delivered`
  (``sim.host.Host``) — delivery counters and latency histograms.
- :meth:`finalize` (``sim.fabric.Fabric.run``) — end-of-run gauges:
  events fired, average utilization, per-rate time fractions.

Observation must not perturb the simulation: probes never schedule
events and never touch an RNG, so instrumented and uninstrumented runs
produce identical :class:`~repro.sim.stats.NetworkStats`
(``tests/test_obs_overhead.py`` enforces this).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metrics import (
    LATENCY_BUCKETS_NS,
    MetricsRegistry,
    QUEUE_DEPTH_BUCKETS_BYTES,
)


class FabricProbe:
    """Registry-backed observer of one fabric's hot paths.

    Args:
        registry: The instrument namespace to record into.
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.network = None
        r = registry
        self._events_daemon = r.counter(
            "sim_events_daemon", "daemon (housekeeping) events fired")
        self._events_task = r.counter(
            "sim_events_task", "non-daemon (traffic) events fired")
        self._forwarded = r.counter(
            "switch_packets_forwarded", "packets dispatched to an output")
        self._blocked = r.counter(
            "switch_packets_blocked", "packets blocked at the input stage")
        self._escaped = r.counter(
            "switch_packets_escaped", "packets force-enqueued by the valve")
        self._dropped = r.counter(
            "switch_packets_dropped",
            "packets dropped for want of a usable route (fault runs)")
        self._delivered_packets = r.counter(
            "host_packets_delivered", "packets that reached their host")
        self._delivered_messages = r.counter(
            "host_messages_delivered", "messages fully reassembled")
        self._queue_depth = r.histogram(
            "channel_queue_depth_bytes", QUEUE_DEPTH_BUCKETS_BYTES,
            "output-queue occupancy sampled at each enqueue")
        self._packet_latency = r.histogram(
            "packet_latency_ns", LATENCY_BUCKETS_NS,
            "injection-to-delivery latency per packet")
        self._message_latency = r.histogram(
            "message_latency_ns", LATENCY_BUCKETS_NS,
            "submit-to-reassembly latency per message")
        self._rate_transitions: Dict[str, object] = {}

    # -- wiring ----------------------------------------------------------

    def attach(self, network) -> None:
        """Wire this probe into every hook site of ``network``.

        Sets ``network.probe``, each channel's ``probe`` and the
        engine's ``observer``; also pre-creates the per-channel
        transition counters so the hot path is a dict lookup.
        """
        if network.probe is not None:
            raise RuntimeError("network already has a probe attached")
        self.network = network
        network.probe = self
        network.sim.observer = self
        for channel in network.all_channels():
            channel.probe = self
            self._rate_transitions[channel.name] = self.registry.counter(
                f"channel_rate_transitions:{channel.name}",
                "rate reconfigurations initiated on this channel")

    # -- engine hook -----------------------------------------------------

    def on_event_fired(self, entry: tuple) -> None:
        """One engine event executed: ``entry`` is its ``(time, seq, fn,
        args, daemon)`` heap entry; see Simulator._fire."""
        if entry[4]:
            self._events_daemon.inc()
        else:
            self._events_task.inc()

    # -- channel hooks ---------------------------------------------------

    def on_enqueue(self, channel) -> None:
        """A packet entered ``channel``'s output queue."""
        self._queue_depth.observe(channel.queue_bytes)

    def on_rate_change(self, channel, old_rate: Optional[float],
                       new_rate: Optional[float]) -> None:
        """``channel`` began reconfiguring from ``old_rate`` to
        ``new_rate`` (``None`` = powered off)."""
        counter = self._rate_transitions.get(channel.name)
        if counter is not None:
            counter.inc()

    # -- switch hooks ----------------------------------------------------

    def on_packet_forwarded(self) -> None:
        """A switch dispatched a packet onto an output channel."""
        self._forwarded.inc()

    def on_packet_blocked(self) -> None:
        """A packet blocked at a switch input (all candidates full)."""
        self._blocked.inc()

    def on_packet_escaped(self) -> None:
        """The escape valve force-enqueued a long-blocked packet."""
        self._escaped.inc()

    def on_packet_dropped(self) -> None:
        """A packet was gracefully dropped (no usable route)."""
        self._dropped.inc()

    # -- host hooks ------------------------------------------------------

    def on_packet_delivered(self, latency_ns: float) -> None:
        """A packet reached its destination host."""
        self._delivered_packets.inc()
        self._packet_latency.observe(latency_ns)

    def on_message_delivered(self, latency_ns: float) -> None:
        """A message fully reassembled at its destination host."""
        self._delivered_messages.inc()
        self._message_latency.observe(latency_ns)

    # -- end of run ------------------------------------------------------

    def finalize(self, network) -> None:
        """Stamp end-of-run gauges from the finalized stats."""
        r = self.registry
        r.gauge("sim_events_fired",
                "total engine events executed").set(
                    network.sim.events_fired)
        stats = network.stats
        r.gauge("network_average_utilization",
                "mean channel busy fraction").set(
                    stats.average_utilization())
        for rate, fraction in stats.time_at_rate_fractions().items():
            label = "off" if rate is None else f"{rate:g}"
            r.gauge(f"network_time_at_rate:{label}",
                    "fraction of channel-time at this rate").set(fraction)
