"""Service resilience campaign: arms, verdicts, determinism.

The golden freezes the full-scale campaign's numbers; these tests pin
the machinery at small scale — the run is exactly reproducible, the
arm builder covers the matrix, the SLO verdict logic flags the right
violations, and the small-scale fault arms already separate resilient
from unprotected the way the golden demands at full scale.
"""

from __future__ import annotations

import dataclasses
import json
from types import SimpleNamespace

import pytest

from repro.experiments import campaign, service_resilience
from repro.faults.control_faults import (
    ControlFaultScenario,
    ControllerCrash,
    TelemetryDropout,
)
from repro.service import ControlPlaneService, ServiceConfig

SMALL = ServiceConfig(groups=4, epochs=48, epochs_per_day=24, seed=7,
                      strand_grace_epochs=4)


def run_small(config=SMALL, scenario=None, slow=None):
    return ControlPlaneService(config, scenario=scenario,
                               slow=slow).run()


def dropout_scenario(config):
    day_ns = config.epochs_per_day * config.epoch_ns
    return ControlFaultScenario(
        name="svc_dropout_small", seed=11,
        dropout=TelemetryDropout(fraction=1.0, probability=1.0,
                                 start_ns=0.2 * day_ns,
                                 end_ns=1.6 * day_ns))


class TestDeterminism:
    def test_identical_configs_produce_identical_digests(self):
        first = run_small().digest()
        second = run_small().digest()
        assert first == second

    def test_chaos_arms_are_deterministic_too(self):
        scenario = dropout_scenario(SMALL)
        first = run_small(scenario=scenario).digest()
        second = run_small(scenario=scenario).digest()
        assert first == second

    def test_digest_is_json_safe_and_machine_independent(self):
        summary = run_small()
        digest = summary.digest()
        assert "wall_seconds" not in digest
        assert json.loads(json.dumps(digest)) == digest
        assert summary.format_line()


class TestSummary:
    def test_summarizing_again_counts_the_run_once(self):
        loss, _ = service_resilience.FAULTS["loss"]
        scenario = dataclasses.replace(loss, crashes=(ControllerCrash(
            time_ns=30.3 * SMALL.epoch_ns),))
        service = ControlPlaneService(SMALL, scenario=scenario)
        summary = service.run()
        assert summary.retries > 0 and summary.restarts == 1
        first = service.metrics.format_text()
        service.summarize()
        assert service.metrics.format_text() == first
        metrics = service.metrics
        assert metrics.get("service_retries_total").value == summary.retries
        assert metrics.get("service_restarts_total").value == 1


class TestArmMatrix:
    def test_nine_arms_cover_the_matrix(self):
        arms = service_resilience.arms()
        assert len(arms) == 1 + 2 * len(service_resilience.FAULTS)
        assert "reference" in arms
        for scenario in service_resilience.FAULTS:
            for resilient in (True, False):
                mode = "resilient" if resilient else "unprotected"
                config, _, slow = arms[f"{scenario}/{mode}"]
                assert config.shedding is resilient
                assert config.degraded_modes is resilient
                assert config.supervised is resilient
                assert config.retries is resilient
                if scenario == "slow":
                    assert slow is not None
                else:
                    assert slow is None

    def test_unprotected_flips_every_toggle_and_nothing_else(self):
        base = service_resilience.CAMPAIGN_CONFIG
        ablated = base.unprotected()
        changed = {name for name in base.to_dict()
                   if getattr(base, name) != getattr(ablated, name)}
        assert changed == {"shedding", "degraded_modes", "supervised",
                           "retries"}

    def test_unknown_scenario_is_rejected(self):
        # The service campaign declares no parameters: a --scenario is
        # refused before anything runs.
        with pytest.raises(ValueError, match="takes no --scenario"):
            campaign.run("service-resilience", scenario="meteor")


class TestVerdictLogic:
    LABEL = "slow/resilient"

    def make(self, partitions=0, latency_p99_ns=1e8,
             decisions_per_sec=0.8):
        """A service result whose reference is quiet (p99 100 ms, so
        the latency bound is the 2.5-epoch floor, 25 s; the throughput
        floor is 0.72 decisions/s) with one arm under test."""
        def summary(**kw):
            base = dict(partitions=0, latency_p99_ns=1e8,
                        decisions_per_sec=0.8, served_fraction=1.0,
                        sheds=0, retries=0, restarts=0,
                        mean_rate_fraction=0.5)
            base.update(kw)
            return SimpleNamespace(**base)
        entry = campaign.CAMPAIGNS["service-resilience"]
        by_label = {label: summary() for label in service_resilience.arms()}
        by_label[self.LABEL] = summary(
            partitions=partitions, latency_p99_ns=latency_p99_ns,
            decisions_per_sec=decisions_per_sec)
        return campaign.CampaignResult(entry, {}, by_label)

    def test_all_ok_when_every_slo_met(self):
        result = self.make()
        assert result.violations(self.LABEL) == []
        record = result.arm_record(self.LABEL)
        assert record["slo_ok"] is True
        assert record["latency_bound_ns"] == 2.5e10
        assert record["dps_floor"] == 0.72

    def test_each_slo_flags_independently(self):
        assert self.make(partitions=1).violations(self.LABEL) \
            == ["partitions"]
        assert self.make(latency_p99_ns=3e10).violations(self.LABEL) \
            == ["latency"]
        assert self.make(decisions_per_sec=0.5).violations(self.LABEL) \
            == ["throughput"]
        worst = self.make(partitions=2, latency_p99_ns=9e10,
                          decisions_per_sec=0.1)
        assert worst.violations(self.LABEL) \
            == ["partitions", "latency", "throughput"]
        assert worst.arm_record(self.LABEL)["slo_ok"] is False


class TestSmallScaleSeparation:
    def test_dropout_strands_the_unprotected_arm_only(self):
        scenario = dropout_scenario(SMALL)
        resilient = run_small(scenario=scenario)
        unprotected = run_small(config=SMALL.unprotected(),
                                scenario=scenario)
        assert resilient.partitions == 0
        assert unprotected.partitions > 0
        # The ladder's fingerprints: holds within TTL, floors past it.
        assert resilient.stale_holds > 0
        assert resilient.safe_floors > 0
        assert unprotected.stale_holds == 0
        # Availability is what the floors buy.
        assert resilient.served_fraction > unprotected.served_fraction

    def test_reference_arm_is_quiet(self):
        summary = run_small()
        assert summary.partitions == 0
        assert summary.restarts == 0
        assert summary.sheds == 0
        assert summary.retry_exhausted == 0
        assert summary.decisions == SMALL.groups * SMALL.epochs
