"""The metrics registry and the fabric probe."""

import math

import pytest

from repro.obs.instrument import FabricProbe
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_NS,
    MetricsRegistry,
    QUEUE_DEPTH_BUCKETS_BYTES,
)
from repro.sim.network import FbflyNetwork, NetworkConfig
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.units import MS


def make_network(seed=7):
    return FbflyNetwork(FlattenedButterfly(k=2, n=3),
                        NetworkConfig(seed=seed))


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("packets")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_rejects_decrease(self):
        c = Counter("packets")
        with pytest.raises(ValueError):
            c.inc(-1)


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("utilization")
        g.set(0.25)
        g.set(0.75)
        assert g.value == 0.75


class TestHistogram:
    def test_bucketing_is_cumulative(self):
        h = Histogram("lat", buckets=(10.0, 100.0))
        for value in (5.0, 50.0, 500.0):
            h.observe(value)
        assert h.count == 3
        assert h.total == 555.0
        assert h.minimum == 5.0
        assert h.maximum == 500.0
        assert h.cumulative_counts() == [
            (10.0, 1), (100.0, 2), (math.inf, 3)]

    def test_mean_empty_is_zero(self):
        h = Histogram("lat", buckets=(1.0,))
        assert h.mean == 0.0

    def test_boundary_value_lands_in_le_bucket(self):
        h = Histogram("lat", buckets=(10.0, 100.0))
        h.observe(10.0)
        assert h.counts[0] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=())
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(10.0, 10.0))
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(1.0, math.inf))


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.gauge("b") is r.gauge("b")
        assert r.histogram("c", buckets=(1.0,)) is r.histogram("c")

    def test_kind_clash_raises(self):
        r = MetricsRegistry()
        r.counter("a")
        with pytest.raises(TypeError):
            r.gauge("a")
        with pytest.raises(TypeError):
            r.histogram("a", buckets=(1.0,))

    def test_histogram_requires_buckets_on_first_use(self):
        r = MetricsRegistry()
        with pytest.raises(ValueError):
            r.histogram("lat")

    def test_namespace_queries(self):
        r = MetricsRegistry()
        r.counter("z")
        r.gauge("a")
        assert r.names() == ["a", "z"]
        assert len(r) == 2
        assert "z" in r and "missing" not in r
        assert r.get("missing") is None

    def test_format_text_renders_all_kinds(self):
        r = MetricsRegistry()
        r.counter("c", "help line").inc()
        r.gauge("g").set(2.0)
        r.histogram("h", buckets=(10.0,)).observe(3.0)
        text = r.format_text()
        assert "# HELP c help line" in text
        assert "# TYPE c counter" in text
        assert "c 1" in text
        assert 'h_bucket{le="10"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_count 1" in text


class TestFabricProbe:
    def test_attach_wires_every_hook_site(self):
        net = make_network()
        registry = MetricsRegistry()
        probe = FabricProbe(registry)
        probe.attach(net)
        assert net.probe is probe
        assert net.sim.observer is probe
        assert all(ch.probe is probe for ch in net.all_channels())

    def test_double_attach_rejected(self):
        net = make_network()
        FabricProbe(MetricsRegistry()).attach(net)
        with pytest.raises(RuntimeError):
            FabricProbe(MetricsRegistry()).attach(net)

    def test_counters_match_network_stats(self):
        net = make_network()
        registry = MetricsRegistry()
        FabricProbe(registry).attach(net)
        for src in range(4):
            net.submit(0.0, src, 7 - src if src != 7 - src else 0, 20_000)
        net.run(until_ns=0.5 * MS)

        events = registry.get("sim_events_daemon").value \
            + registry.get("sim_events_task").value
        assert events == net.sim.events_fired
        assert registry.get("sim_events_fired").value == net.sim.events_fired
        delivered = registry.get("host_packets_delivered").value
        assert delivered == net.stats.packet_latency.count
        assert registry.get("host_messages_delivered").value \
            == net.stats.messages_delivered
        latency = registry.get("packet_latency_ns")
        assert latency.count == delivered
        assert latency.mean == pytest.approx(
            net.stats.mean_packet_latency_ns())
        assert registry.get("channel_queue_depth_bytes").count > 0
        assert registry.get("switch_packets_forwarded").value > 0

    def test_rate_transition_counters_match_controller(self):
        from repro.core.controller import ControllerConfig, EpochController

        net = make_network()
        registry = MetricsRegistry()
        FabricProbe(registry).attach(net)
        controller = EpochController(net, config=ControllerConfig())
        net.run(until_ns=0.3 * MS)   # idle network detunes

        per_channel = sum(
            registry.get(f"channel_rate_transitions:{ch.name}").value
            for ch in net.all_channels())
        assert controller.reconfigurations > 0
        # Paired control: each group reconfiguration touches 2 channels.
        assert per_channel == sum(ch.stats.reactivations
                                  for ch in net.all_channels())

    def test_finalize_stamps_time_at_rate_gauges(self):
        net = make_network()
        registry = MetricsRegistry()
        FabricProbe(registry).attach(net)
        net.run(until_ns=50_000.0)
        fractions = net.stats.time_at_rate_fractions()
        for rate, fraction in fractions.items():
            label = "off" if rate is None else f"{rate:g}"
            gauge = registry.get(f"network_time_at_rate:{label}")
            assert gauge is not None
            assert gauge.value == pytest.approx(fraction)

    def test_default_buckets_are_valid(self):
        Histogram("lat", buckets=LATENCY_BUCKETS_NS)
        Histogram("depth", buckets=QUEUE_DEPTH_BUCKETS_BYTES)
