"""The demand-topology campaign's table entry (no simulation).

The campaign itself is pinned by ``tests/golden/demand_topology.json``;
here the entry in :data:`repro.experiments.campaign.CAMPAIGNS` is
exercised with synthetic summaries: spec construction, the per-arm
energy/latency/safety legs and their gating semantics, the two claims
(demand wins the gated matrices / every arm is safe) and the JSON
verdict artifact.  The harness itself is covered
generically by ``test_campaigns.py``.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

from repro.experiments.campaign import CAMPAIGNS, CampaignResult
from repro.experiments.demand_topology import (
    CONTROLS as ARMS,
    GATED,
    MATRICES as WORKLOADS,
)

DEMAND = CAMPAIGNS["demand-topology"]
GATED_WORKLOADS = ("skewed", "diurnal")
VERDICT_MAX_LATENCY_FACTOR = 1.3


def arm_label(workload, arm):
    return f"{workload}/{arm}"


def fake_summary(latency=100.0, power=0.6, delivered=1.0, partitions=0,
                 topo=None):
    """The minimal summary surface the verdict machinery touches."""
    return SimpleNamespace(
        mean_message_latency_ns=latency,
        measured_power_fraction=power,
        delivered_fraction=delivered,
        faults={"partitions": partitions},
        topo=topo,
    )


def topo_digest(dark_mean=6.0, guard_violations=0):
    return {"dark_mean": dark_mean, "guard_violations": guard_violations}


def fake_result(demand_power=0.55, demand_latency=110.0,
                demand_partitions=0, demand_guard_violations=0):
    by_label = {}
    for workload in WORKLOADS:
        by_label[arm_label(workload, "static")] = fake_summary()
        by_label[arm_label(workload, "degraded")] = fake_summary(
            latency=180.0, power=0.5, topo=topo_digest(dark_mean=16.0))
        by_label[arm_label(workload, "demand")] = fake_summary(
            latency=demand_latency, power=demand_power,
            partitions=demand_partitions,
            topo=topo_digest(
                guard_violations=demand_guard_violations))
    return CampaignResult(DEMAND, dict(DEMAND.params), by_label)


def build_specs(**params):
    return DEMAND.arms(**{**DEMAND.params, **params})


class TestBuildSpecs:
    def test_nine_specs_one_per_matrix_and_arm(self):
        specs = build_specs()
        assert len(specs) == 9
        assert set(specs) == {arm_label(w, a)
                              for w in WORKLOADS for a, _ in ARMS}

    def test_arms_differ_only_in_control_and_forecaster(self):
        specs = build_specs()
        for workload in WORKLOADS:
            static = specs[arm_label(workload, "static")]
            assert static.control == "epoch"
            assert static.forecaster is None
            for arm, control in ARMS:
                spec = specs[arm_label(workload, arm)]
                assert spec.control == control
                assert spec.workload == workload
                assert (spec.k, spec.n, spec.seed) == \
                    (static.k, static.n, static.seed)
                assert spec.uniform_offered_load == 0.25

    def test_only_the_demand_arm_carries_the_forecaster(self):
        specs = build_specs()
        for workload in WORKLOADS:
            assert specs[arm_label(workload, "demand")].forecaster \
                == "ewma"
            assert specs[arm_label(workload, "degraded")].forecaster \
                is None

    def test_seed_is_parameterizable(self):
        assert DEMAND.params == {"seed": 3}
        specs = build_specs(seed=10)
        assert all(s.seed == 10 for s in specs.values())


class TestArmVerdict:
    def test_winning_demand_arm_passes_every_leg(self):
        result = fake_result()
        assert GATED == tuple(arm_label(w, "demand")
                                     for w in GATED_WORKLOADS)
        for label in GATED:
            record = result.arm_record(label)
            assert record["gated"] is True
            assert record["ok"] is True
            assert record["violations"] == []

    def test_energy_leg_is_strict(self):
        # Matching static power is not saving energy.
        result = fake_result(demand_power=0.6)
        record = result.arm_record(GATED[0])
        assert record["violations"] == ["energy"]
        assert record["ok"] is False

    def test_latency_bound_is_inclusive(self):
        at_bound = fake_result(
            demand_latency=100.0 * VERDICT_MAX_LATENCY_FACTOR)
        assert at_bound.violations(GATED[0]) == []
        over = fake_result(
            demand_latency=100.0 * VERDICT_MAX_LATENCY_FACTOR + 1.0)
        assert over.violations(GATED[0]) == ["latency"]

    def test_ungated_arms_gate_on_safety_only(self):
        result = fake_result()
        degraded = result.arm_record("skewed/degraded")
        assert degraded["gated"] is False
        # 1.8x latency and higher power than static: fails both gated
        # legs, but an ungated arm only answers for safety.
        assert degraded["latency_factor"] > VERDICT_MAX_LATENCY_FACTOR
        assert degraded["ok"] is True
        assert result.arm_record("shifting/demand")["gated"] is False

    def test_partition_or_guard_violation_fails_any_arm(self):
        partitioned = fake_result(demand_partitions=1)
        assert partitioned.violations("shifting/demand") == ["safety"]
        violated = fake_result(demand_guard_violations=2)
        assert violated.arm_record("skewed/demand")["ok"] is False


def failing_claims(result):
    return [claim.text.split(":")[0] for claim in DEMAND.claims
            if not claim.holds(result)]


class TestResultVerdict:
    def test_clean_campaign_is_ok(self):
        result = fake_result()
        assert result.expectations() == {"demand_wins": True,
                                         "safe_everywhere": True}
        assert failing_claims(result) == []

    def test_demand_loss_on_a_gated_matrix_fails(self):
        result = fake_result(demand_power=0.65)
        assert result.expectations() == {"demand_wins": False,
                                         "safe_everywhere": True}
        assert failing_claims(result) == ["demand_wins"]

    def test_any_unsafe_arm_fails_the_campaign(self):
        result = fake_result(demand_partitions=1)
        assert not result.expectations()["safe_everywhere"]
        assert "safe_everywhere" in failing_claims(result)

    def test_claims_name_their_arms_and_legs(self):
        demand_wins, safe_everywhere = (claim.text
                                        for claim in DEMAND.claims)
        assert demand_wins.startswith(
            "demand_wins: each of skewed/demand, diurnal/demand must pass "
            "energy (power_delta < 0.0), latency (latency_factor <= 1.3)")
        assert safe_everywhere.endswith(
            "must pass safety (partitions <= 0 and guard_violations <= 0)")
        assert all(label in safe_everywhere for label in DEMAND.arms(
            **DEMAND.params))
        rows = dict((row[0], row[-1])
                    for row in fake_result(demand_power=0.65).rows())
        assert rows["skewed/demand"] == "viol:energy"


class TestVerdictArtifact:
    def test_verdict_dict_shape(self):
        payload = fake_result().verdict_dict()
        assert set(payload) == {"verdict", "static", "arms",
                                "demand_wins", "safe_everywhere", "ok"}
        assert payload["verdict"]["gated_workloads"] == \
            list(GATED_WORKLOADS)
        assert set(payload["static"]) == set(WORKLOADS)
        assert len(payload["arms"]) == 9
        for arm in payload["arms"]:
            assert set(arm) == {
                "label", "power_fraction", "power_delta",
                "latency_factor", "delivered_fraction", "partitions",
                "guard_violations", "dark_mean", "gated", "ok",
                "violations"}

    def test_verdict_dict_is_json_serializable(self):
        text = json.dumps(fake_result().verdict_dict(), sort_keys=True)
        assert "demand_wins" in text

    def test_table_has_one_row_per_run(self):
        result = fake_result()
        assert len(result.rows()) == 9
        table = result.format_table()
        for workload in WORKLOADS:
            for arm, _ in ARMS:
                assert arm_label(workload, arm) in table
