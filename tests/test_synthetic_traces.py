"""Synthetic production-trace substitutes: the calibrated properties.

These tests assert the three structural properties the paper attributes
to its traces — the properties all downstream results rest on.
"""

import math

import pytest

from repro.units import MS, US
from repro.workloads.burstiness import (
    burstiness_profile,
    mean_asymmetry_ratio,
)
from repro.workloads.synthetic_traces import (
    ADVERT_PROFILE,
    SEARCH_PROFILE,
    BurstyTraceWorkload,
    LogNormalSize,
    TraceProfile,
    advert_workload,
    search_workload,
)

NUM_HOSTS = 64
DURATION = 4.0 * MS


@pytest.fixture(scope="module")
def search_events():
    return list(search_workload(NUM_HOSTS, seed=3).events(DURATION))


@pytest.fixture(scope="module")
def advert_events():
    return list(advert_workload(NUM_HOSTS, seed=3).events(DURATION))


class TestStreamValidity:
    def test_sorted(self, search_events):
        times = [e.time_ns for e in search_events]
        assert times == sorted(times)

    def test_no_self_traffic(self, search_events):
        assert all(e.src != e.dst for e in search_events)

    def test_hosts_in_range(self, search_events):
        for e in search_events:
            assert 0 <= e.src < NUM_HOSTS
            assert 0 <= e.dst < NUM_HOSTS

    def test_deterministic(self):
        a = list(search_workload(16, seed=5).events(1.0 * MS))
        b = list(search_workload(16, seed=5).events(1.0 * MS))
        assert a == b

    def test_client_server_split_disjoint(self):
        wl = search_workload(NUM_HOSTS, seed=1)
        assert not set(wl.servers) & set(wl.clients)
        assert sorted(wl.servers + wl.clients) == list(range(NUM_HOSTS))

    def test_minimum_host_count(self):
        with pytest.raises(ValueError):
            BurstyTraceWorkload(3, SEARCH_PROFILE)


class TestLoadCalibration:
    """'low average network utilization of 5-25%'."""

    @staticmethod
    def injected_load(events, duration):
        injected = sum(e.size_bytes for e in events)
        return injected / (NUM_HOSTS * 5.0 * duration)

    def test_search_injection_near_target(self, search_events):
        load = self.injected_load(search_events, DURATION)
        assert load == pytest.approx(SEARCH_PROFILE.avg_load, rel=0.3)

    def test_advert_injection_near_target_on_average(self):
        # Advert has few, large, heavy-tailed transfers at this scale, so
        # a single seed has high variance; calibration is a statement
        # about the mean, so average several seeds.
        loads = []
        for seed in (1, 2, 3, 4):
            events = advert_workload(NUM_HOSTS, seed=seed).events(DURATION)
            loads.append(self.injected_load(list(events), DURATION))
        mean_load = sum(loads) / len(loads)
        assert mean_load == pytest.approx(ADVERT_PROFILE.avg_load, rel=0.25)

    def test_loads_in_the_papers_band(self, search_events, advert_events):
        for events in (search_events, advert_events):
            load = self.injected_load(events, DURATION)
            assert 0.02 <= load <= 0.25


class TestBurstiness:
    """'very bursty at a variety of timescales'.

    Burstiness is judged against a Poisson process matched in event rate
    and constant message size — the null hypothesis of smooth traffic —
    rather than against absolute CV thresholds, which depend on scale.
    """

    WINDOWS = [10.0 * US, 100.0 * US, 500.0 * US]

    @staticmethod
    def poisson_matched(events, seed=0):
        import random
        from repro.workloads.base import TraceEvent
        rng = random.Random(seed)
        n = len(events)
        mean_size = int(sum(e.size_bytes for e in events) / n)
        rate = n / DURATION
        t, out = 0.0, []
        while len(out) < n:
            t += rng.expovariate(rate)
            if t >= DURATION:
                break
            out.append(TraceEvent(t, 0, 1, mean_size))
        return out

    def test_burstier_than_matched_poisson_at_every_timescale(
            self, search_events):
        bursty = burstiness_profile(
            search_events, DURATION, self.WINDOWS, 40.0, NUM_HOSTS)
        smooth = burstiness_profile(
            self.poisson_matched(search_events), DURATION,
            self.WINDOWS, 40.0, NUM_HOSTS)
        for window in self.WINDOWS:
            assert bursty[window] > 1.5 * smooth[window]

    def test_bursty_per_host_at_short_timescales(self, search_events):
        # The link-rate controller sees per-link load, so burstiness is a
        # per-host property: aggregating 64 hosts smooths CV by ~1/8.
        wl = search_workload(NUM_HOSTS, seed=3)
        busiest = max(
            wl.clients,
            key=lambda h: sum(e.size_bytes for e in search_events
                              if e.src == h))
        own_events = [e for e in search_events if e.src == busiest]
        profile = burstiness_profile(
            own_events, DURATION, [10.0 * US, 100.0 * US],
            line_rate_gbps=40.0, num_hosts=1)
        assert profile[10.0 * US] > 1.0
        assert profile[100.0 * US] > 1.0

    def test_burstier_than_poisson_decay(self, search_events):
        # Poisson CV scales with 1/sqrt(window); multi-timescale bursts
        # must decay more slowly across two decades of window size.
        profile = burstiness_profile(
            search_events, DURATION,
            window_sizes_ns=[10.0 * US, 1000.0 * US],
            line_rate_gbps=40.0, num_hosts=NUM_HOSTS)
        poisson_decay = math.sqrt(10.0 / 1000.0)
        actual_decay = profile[1000.0 * US] / profile[10.0 * US]
        assert actual_decay > poisson_decay

    def test_advert_is_bursty_too(self, advert_events):
        profile = burstiness_profile(
            advert_events, DURATION,
            window_sizes_ns=[50.0 * US],
            line_rate_gbps=40.0, num_hosts=NUM_HOSTS)
        assert profile[50.0 * US] > 1.0


class TestAsymmetry:
    """'many traffic patterns show very asymmetric use'."""

    def test_hosts_have_asymmetric_in_out(self, search_events):
        assert mean_asymmetry_ratio(search_events, NUM_HOSTS) > 2.0

    def test_servers_inject_more_than_they_receive(self, search_events):
        wl = search_workload(NUM_HOSTS, seed=3)
        server_in = sum(e.size_bytes for e in search_events
                        if e.dst in set(wl.servers))
        server_out = sum(e.size_bytes for e in search_events
                         if e.src in set(wl.servers))
        # Read-dominated: responses dwarf requests.
        assert server_out > 2.0 * server_in


class TestSizeDistributions:
    def test_lognormal_mean_formula(self):
        dist = LogNormalSize(1000, 0.5)
        assert dist.mean_bytes() == pytest.approx(
            1000 * math.exp(0.125))

    def test_samples_clipped(self):
        import random
        dist = LogNormalSize(1024, 3.0, min_bytes=64, max_bytes=10_000)
        rng = random.Random(1)
        samples = [dist.sample(rng) for _ in range(2000)]
        assert min(samples) >= 64
        assert max(samples) <= 10_000

    def test_heavy_tail_present(self, search_events):
        sizes = sorted(e.size_bytes for e in search_events)
        median = sizes[len(sizes) // 2]
        p99 = sizes[int(len(sizes) * 0.99)]
        assert p99 > 10 * median


class TestProfileValidation:
    def test_bad_avg_load(self):
        with pytest.raises(ValueError):
            TraceProfile(name="x", avg_load=0.0)

    def test_bad_server_fraction(self):
        with pytest.raises(ValueError):
            TraceProfile(name="x", avg_load=0.1, server_fraction=1.0)

    def test_bad_replication_fraction(self):
        with pytest.raises(ValueError):
            TraceProfile(name="x", avg_load=0.1,
                         replication_byte_fraction=1.0)

    def test_profiles_differ(self):
        assert SEARCH_PROFILE.response_size.median_bytes != \
            ADVERT_PROFILE.response_size.median_bytes
