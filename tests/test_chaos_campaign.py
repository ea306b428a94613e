"""The chaos campaign's table entry (no simulation required).

The campaign itself is pinned by ``tests/golden/chaos.json``; here the
entry in :data:`repro.experiments.campaign.CAMPAIGNS` is exercised with
synthetic summaries: spec construction, the per-arm SLO legs and their
boundary semantics, the two claims (failsafe meets SLOs / unprotected
violates them) and the JSON verdict artifact.
The harness itself is covered generically by ``test_campaigns.py``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.experiments.campaign import CAMPAIGNS, CampaignResult
from repro.experiments.chaos import INTENSITIES

CHAOS = CAMPAIGNS["chaos-campaign"]
REFERENCE = "reference"


def arm_label(intensity, failsafe):
    return f"{intensity}/{'failsafe' if failsafe else 'unprotected'}"


def fake_summary(latency=100.0, power=0.5, delivered=1.0, partitions=0,
                 scenario=None):
    """The minimal summary surface the verdict machinery touches."""
    return SimpleNamespace(
        mean_packet_latency_ns=latency,
        measured_power_fraction=power,
        delivered_fraction=delivered,
        faults={"partitions": partitions},
        control_plane=(None if scenario is None
                       else {"scenario": scenario, "telemetry_lost": 10,
                             "actuations_lost": 2}),
    )


def fake_result(failsafe_latency=95.0, unprotected_latency=480.0,
                failsafe_power=0.56, failsafe_partitions=0,
                reference=None):
    by_label = {REFERENCE: reference or fake_summary()}
    for intensity in INTENSITIES:
        by_label[arm_label(intensity, True)] = fake_summary(
            latency=failsafe_latency, power=failsafe_power,
            partitions=failsafe_partitions,
            scenario=f"ctl_chaos_{intensity}")
        by_label[arm_label(intensity, False)] = fake_summary(
            latency=unprotected_latency, power=0.4, delivered=0.6,
            scenario=f"ctl_chaos_{intensity}")
    return CampaignResult(CHAOS, dict(CHAOS.params), by_label)


def failing_claims(result):
    return [claim.text.split(":")[0] for claim in CHAOS.claims
            if not claim.holds(result)]


def build_specs(**params):
    return CHAOS.arms(**{**CHAOS.params, **params})


class TestBuildSpecs:
    def test_seven_specs_one_per_arm(self):
        specs = build_specs()
        assert len(specs) == 7
        assert set(specs) == {REFERENCE} | {
            arm_label(i, f) for i in INTENSITIES for f in (True, False)}

    def test_reference_is_chaos_free_but_otherwise_identical(self):
        specs = build_specs()
        ref = specs[REFERENCE]
        assert ref.control_faults is None
        assert ref.failsafe is False
        assert ref.faults == "quiet"
        assert ref.control == "fault_pinned"
        for label, spec in specs.items():
            if label == REFERENCE:
                continue
            assert (spec.k, spec.n, spec.seed, spec.fault_seed) == \
                (ref.k, ref.n, ref.seed, ref.fault_seed)
            assert spec.faults == ref.faults

    def test_arms_carry_their_intensity_and_guard_flag(self):
        specs = build_specs()
        for intensity in INTENSITIES:
            for failsafe in (True, False):
                spec = specs[arm_label(intensity, failsafe)]
                assert spec.control_faults == f"ctl_chaos_{intensity}"
                assert spec.failsafe is failsafe

    def test_seeds_are_parameterizable(self):
        assert CHAOS.params == {"seed": 3, "fault_seed": 7}
        specs = build_specs(seed=4, fault_seed=8)
        assert specs[REFERENCE].seed == 4
        assert specs[REFERENCE].fault_seed == 8


class TestArmVerdict:
    LABEL = arm_label("mid", True)

    def verdict(self, **kw):
        """Violations of one failsafe arm against a zero-power,
        100 ns reference (so factors and deltas are exact)."""
        result = fake_result(reference=fake_summary(power=0.0))
        result.by_label[self.LABEL] = fake_summary(**{"power": 0.0, **kw})
        return result

    def test_exactly_at_every_bound_still_passes(self):
        result = self.verdict(partitions=0, latency=150.0, power=0.15)
        values = result.measured(self.LABEL)
        assert values["latency_factor"] == 1.5
        assert values["power_delta"] == 0.15
        assert result.violations(self.LABEL) == []
        assert result.arm_record(self.LABEL)["slo_ok"] is True

    def test_each_slo_fails_independently(self):
        assert self.verdict(partitions=1).violations(self.LABEL) == [
            "partitions"]
        assert self.verdict(latency=151.0).violations(self.LABEL) == [
            "latency"]
        assert self.verdict(power=0.16).violations(self.LABEL) == ["power"]

    def test_to_dict_is_json_safe_and_rounded(self):
        d = self.verdict(latency=123.456, power=0.098765).arm_record(
            self.LABEL)
        assert d["latency_factor"] == 1.2346
        assert d["power_delta"] == 0.0988
        assert d["slo_ok"] is True
        assert d["violations"] == []
        assert d["label"] == "mid/failsafe"


class TestCampaignVerdict:
    def test_verdict_measures_against_the_reference(self):
        result = fake_result(failsafe_latency=120.0, failsafe_power=0.58)
        values = result.measured(arm_label("mid", True))
        assert values["latency_factor"] == pytest.approx(1.2)
        assert values["power_delta"] == pytest.approx(0.08)
        assert values["partitions"] == 0

    def test_happy_path_both_legs_hold(self):
        result = fake_result()
        assert result.expectations() == {"failsafe_ok": True,
                                         "unprotected_degraded": True}
        assert failing_claims(result) == []

    def test_one_bad_failsafe_arm_fails_the_campaign(self):
        result = fake_result()
        result.by_label[arm_label("high", True)] = fake_summary(
            latency=400.0, scenario="ctl_chaos_high")
        assert not result.expectations()["failsafe_ok"]
        assert failing_claims(result) == ["failsafe_ok"]

    def test_one_partition_fails_the_failsafe_leg(self):
        result = fake_result(failsafe_partitions=1)
        assert not result.expectations()["failsafe_ok"]

    def test_gentle_chaos_fails_the_teeth_leg(self):
        # An unprotected arm sailing through all SLOs makes the
        # failsafe verdict vacuous: the campaign must say so.
        result = fake_result(unprotected_latency=100.0)
        result.by_label[arm_label("low", False)].delivered_fraction = 1.0
        assert result.expectations() == {"failsafe_ok": True,
                                         "unprotected_degraded": False}
        assert failing_claims(result) == ["unprotected_degraded"]

    def test_verdict_dict_carries_bands_arms_and_booleans(self):
        d = fake_result().verdict_dict()
        assert d["slo"] == {
            "max_partitions": 0,
            "max_latency_factor": 1.5,
            "max_power_delta": 0.15,
        }
        assert len(d["arms"]) == 6
        assert {a["label"] for a in d["arms"]} == {
            arm_label(i, f) for i in INTENSITIES for f in (True, False)}
        assert d["failsafe_ok"] is True
        assert d["unprotected_degraded"] is True
        assert d["ok"] is True
        assert d["reference"]["mean_packet_latency_ns"] == 100.0

    def test_table_has_one_row_per_run_and_verdict_strings(self):
        result = fake_result()
        rows = result.rows()
        assert len(rows) == 7
        verdicts = {row[0]: row[-1] for row in rows[1:]}
        for intensity in INTENSITIES:
            assert verdicts[arm_label(intensity, True)] == "PASS"
            assert verdicts[arm_label(intensity, False)].startswith(
                "viol:")
        text = result.format_table()
        assert "failsafe vs" in text and REFERENCE in text

    def test_reference_row_reads_the_reference(self):
        # The reference row is rendered from the reference run through
        # the same measures as every arm, not from literals.
        result = fake_result(reference=fake_summary(partitions=2))
        row = result.rows()[0]
        assert row[0] == REFERENCE
        assert row[1 + [m.name for m in CHAOS.measures].index(
            "partitions")] == "2"

    def test_claims_name_both_expectations(self):
        slos = ("partitions (partitions <= 0), latency (latency_factor "
                "<= 1.5), power (power_delta <= 0.15)")
        assert [claim.text for claim in CHAOS.claims] == [
            "failsafe_ok: each of low/failsafe, mid/failsafe, "
            "high/failsafe must pass " + slos,
            "unprotected_degraded: each of low/unprotected, "
            "mid/unprotected, high/unprotected must fail one of " + slos]
        broken = fake_result(failsafe_latency=400.0)
        assert failing_claims(broken) == ["failsafe_ok"]
        assert all(row[-1] == "viol:latency" for row in broken.rows()
                   if row[0].endswith("/failsafe"))
