"""The campaign harness, parametrized over every table entry.

:mod:`repro.experiments.campaign` judges every campaign with one set of
functions; these tests drive each entry's real legs and claims with
synthetic measure values (no simulation): the published SLO checks,
inclusive versus strict bounds, each leg failing on its own, one bad
protected arm failing its claim, a gentle campaign failing its
must-degrade claim, reference rows read from the reference run, and
the verdict artifact's shape against the frozen golden.  The
per-campaign files (``test_chaos_campaign.py`` and friends) cover each
entry's arm builders and real extractors.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, build_campaign_parser, build_parser
from repro.experiments import golden
from repro.experiments.campaign import (
    CAMPAIGNS,
    CampaignResult,
    Measure,
    run,
)
from repro.experiments.runner import SimulationSpec, run_simulation
from repro.experiments.service_resilience import ServiceArm
from repro.experiments.sweep import SweepRunner, using_runner
from repro.obs.runrecord import read_run_log
from repro.service import ControlPlaneService, ServiceConfig

GOLDEN_DIR = Path(__file__).parent / "golden"
NAMES = sorted(CAMPAIGNS)

#: The SLOs each campaign publishes: leg -> checks.  Pinned here so a
#: loosened or tightened bound in the table is a visible test change.
PUBLISHED_LEGS = {
    "fault-tolerance": {
        "delivery": (("delivered_fraction", ">=", 0.999),),
        "partitions": (("partitions", "<=", 0),),
        "drop_bursts": (("drop_bursts", "<=", 0),),
    },
    "chaos-campaign": {
        "partitions": (("partitions", "<=", 0),),
        "latency": (("latency_factor", "<=", 1.5),),
        "power": (("power_delta", "<=", 0.15),),
    },
    "demand-topology": {
        "energy": (("power_delta", "<", 0.0),),
        "latency": (("latency_factor", "<=", 1.3),),
        "safety": (("partitions", "<=", 0), ("guard_violations", "<=", 0)),
    },
    "service-resilience": {
        "partitions": (("partitions", "<=", 0),),
        "latency": (("latency_p99_ns", "<=", "latency_bound_ns"),),
        "throughput": (("decisions_per_sec", ">=", "dps_floor"),),
    },
}

#: Each campaign's must-degrade expectation, if it has one.
MUST_DEGRADE = {
    "fault-tolerance": "degraded_detected",
    "chaos-campaign": "unprotected_degraded",
    "service-resilience": "unprotected_degraded",
}


def labels(name):
    """Every run label of a campaign, in report order."""
    entry = CAMPAIGNS[name]
    return list(entry.arms(**entry.params))


class Run(dict):
    """A synthetic run: its measure values, readable as attributes too
    (the verdict's reference block reads summary attributes)."""

    __getattr__ = dict.__getitem__


def passing_values(entry):
    """Measure values sitting exactly on every inclusive bound and one
    step inside every strict one."""
    values = Run({m.name: 0.0 for m in entry.measures})
    values.update((name, 1.0) for name, _ in entry.reference_fields)
    for leg in entry.legs:
        for measure, op, bound in leg.checks:
            if isinstance(bound, str):
                values[measure] = values[bound] = 10.0
            else:
                step = {"<=": 0, ">=": 0, "<": -1, ">": 1}[op]
                values[measure] = bound + step
    return values


def failing_value(values, check):
    """``values[measure]`` pushed one step past the check's bound."""
    measure, op, bound = check
    limit = values[bound] if isinstance(bound, str) else bound
    return limit + (1 if op in ("<=", "<") else -1)


def synthetic(name, overrides=None):
    """The campaign's real legs and expectations over runs whose
    measures are plain dicts: every arm passing, except ``overrides``
    (label -> {measure: value})."""
    entry = CAMPAIGNS[name]
    entry = dataclasses.replace(
        entry, columns=(), measures=tuple(
            Measure(m.name, lambda summary, ref, key=m.name: summary[key],
                    m.digits, m.fmt)
            for m in entry.measures))
    base = passing_values(entry)
    by_label = {label: Run(base) for label in labels(name)}
    for label, values in (overrides or {}).items():
        by_label[label].update(values)
    return CampaignResult(entry, dict(entry.params), by_label)


def failing_claims(result):
    """The text of every claim of ``result``'s campaign that fails."""
    return [claim.text for claim in result.campaign.claims
            if not claim.holds(result)]


def protected_arms(name):
    return [label for e in CAMPAIGNS[name].expectations if not e.degrade
            for label in e.arms]


def degraded(name):
    """A synthetic result where every must-degrade arm fails a leg."""
    entry = CAMPAIGNS[name]
    overrides = {}
    for e in entry.expectations:
        if e.degrade:
            for label in e.arms:
                leg = next(leg for leg in entry.legs if label in leg.arms)
                values = passing_values(entry)
                overrides[label] = {leg.checks[0][0]: failing_value(
                    values, leg.checks[0])}
    return synthetic(name, overrides)


class TestRegistry:
    @pytest.mark.parametrize("name", NAMES)
    def test_every_campaign_has_a_golden_an_experiment_and_a_verb(
            self, name):
        entry = CAMPAIGNS[name]
        assert (GOLDEN_DIR / f"{entry.golden}.json").exists()
        assert entry.golden in golden.GOLDEN_BUILDERS
        assert EXPERIMENTS[name][0] == entry.description
        assert build_campaign_parser().parse_args([name]).name == name
        assert build_parser().parse_args([name]).experiment == name

    @pytest.mark.parametrize("name", NAMES)
    def test_the_verb_takes_overrides_and_sweep_flags(self, name,
                                                      tmp_path):
        parser = build_campaign_parser()
        args = parser.parse_args([name])
        # Only flags the user gives reach the campaign; the defaults
        # are the ones its table entry declares.
        assert (args.json_out, args.seed, args.fault_seed, args.scenario,
                args.retries) == (None,) * 5
        args = parser.parse_args(
            [name, "--json-out", str(tmp_path / "v.json"),
             "--retries", "3", "--jobs", "2", "--no-cache"])
        assert args.json_out == tmp_path / "v.json"
        assert (args.retries, args.jobs, args.no_cache) == (3, 2, True)

    @pytest.mark.parametrize("name", NAMES)
    def test_each_expectation_is_a_claim_naming_its_legs(self, name):
        entry = CAMPAIGNS[name]
        assert len(entry.claims) == len(entry.expectations)
        for expectation, claim in zip(entry.expectations, entry.claims):
            assert claim.text.startswith(f"{expectation.key}: ")
            for label in expectation.arms:
                assert label in claim.text
            for leg in entry.legs:
                checks = " and ".join(f"{m} {op} {b}"
                                      for m, op, b in leg.checks)
                named = f"{leg.name} ({checks})" in claim.text
                assert named == (
                    bool(set(leg.arms) & set(expectation.arms))
                    and leg.name in (expectation.legs or (leg.name,)))

    def test_the_four_campaigns(self):
        assert NAMES == ["chaos-campaign", "demand-topology",
                         "fault-tolerance", "service-resilience"]

    @pytest.mark.parametrize("name", NAMES)
    def test_table_references_resolve(self, name):
        entry = CAMPAIGNS[name]
        runs = set(labels(name))
        measures = {m.name for m in entry.measures}
        for leg in entry.legs:
            assert set(leg.arms) <= runs
            for measure, op, bound in leg.checks:
                assert measure in measures and op in ("<=", "<", ">=", ">")
                assert not isinstance(bound, str) or bound in measures
        legs = {leg.name for leg in entry.legs}
        for e in entry.expectations:
            assert set(e.arms) <= runs
            assert set(e.legs or ()) <= legs
        assert set(entry.band_measures) <= measures
        assert set(entry.golden_params) <= set(entry.params)
        if entry.reference is not None:
            for label in runs:
                assert entry.reference.format(*label.split("/")) in runs

    @pytest.mark.parametrize("name", NAMES)
    def test_undeclared_parameters_are_refused(self, name):
        undeclared = {"seed", "fault_seed", "scenario"} \
            - set(CAMPAIGNS[name].params)
        for param in undeclared:
            with pytest.raises(ValueError, match="takes no --"):
                run(name, **{param: 1})

    def test_unknown_fault_scenario_is_refused(self):
        with pytest.raises(ValueError, match="unknown fault scenario"):
            run("fault-tolerance", scenario="meteor")


class TestRun:
    def test_one_run_dispatches_simulated_and_service_arms(
            self, tmp_path, monkeypatch):
        spec = SimulationSpec(k=2, n=2, duration_ns=50_000.0, seed=5)
        config = ServiceConfig(groups=2, epochs=24, epochs_per_day=24,
                               seed=7)
        arms = {"sim": spec, "svc": ServiceArm(config),
                "svc/unprotected": ServiceArm(config.unprotected())}
        monkeypatch.setitem(CAMPAIGNS, "mixed", dataclasses.replace(
            CAMPAIGNS["chaos-campaign"], arms=lambda: arms, params={}))
        log = tmp_path / "runs.jsonl"
        with using_runner(SweepRunner(jobs=1, use_cache=False,
                                      run_log=log)) as runner:
            result = run("mixed")
        assert list(result.by_label) == list(arms)
        assert runner.stats.executed == 1
        assert result.by_label["sim"].digest() == \
            run_simulation(spec).digest()
        assert result.by_label["svc"].digest() == \
            ControlPlaneService(config).run().digest()
        # The sweep runner logs the simulated arm; each service arm
        # appends one service record to the same log, in arm order.
        records = read_run_log(log)
        assert [(r.get("kind"), r.get("label")) for r in records] == [
            (None, None), ("service", "svc"), ("service", "svc/unprotected")]


class TestLegs:
    @pytest.mark.parametrize("name", NAMES)
    def test_legs_are_the_published_slos(self, name):
        assert {leg.name: leg.checks for leg in CAMPAIGNS[name].legs} \
            == PUBLISHED_LEGS[name]

    @pytest.mark.parametrize("name", NAMES)
    def test_inclusive_bounds_pass_at_the_limit(self, name):
        result = synthetic(name)
        for label in result.by_label:
            assert result.violations(label) == [], label
        assert result.verdict_dict()["arms"]

    @pytest.mark.parametrize("name", NAMES)
    def test_strict_bounds_fail_at_the_limit(self, name):
        for leg in CAMPAIGNS[name].legs:
            for measure, op, bound in leg.checks:
                if op not in ("<", ">"):
                    continue
                label = leg.arms[0]
                result = synthetic(name, {label: {measure: bound}})
                assert result.violations(label) == [leg.name]

    @pytest.mark.parametrize("name", NAMES)
    def test_each_leg_fails_on_its_own(self, name):
        entry = CAMPAIGNS[name]
        values = passing_values(entry)
        for leg in entry.legs:
            for check in leg.checks:
                for label in leg.arms:
                    result = synthetic(name, {label: {
                        check[0]: failing_value(values, check)}})
                    assert result.violations(label) == [leg.name]
                    record = result.arm_record(label)
                    assert record[entry.ok_key] is False
                    assert record["violations"] == [leg.name]


class TestExpectations:
    @pytest.mark.parametrize("name", NAMES)
    def test_degraded_ablations_and_clean_protected_arms_pass(self, name):
        result = degraded(name)
        assert all(result.expectations().values())
        assert failing_claims(result) == []
        assert result.verdict_dict()["ok"] is True

    @pytest.mark.parametrize("name", NAMES)
    def test_one_bad_protected_arm_fails_the_campaign(self, name):
        entry = CAMPAIGNS[name]
        for label in protected_arms(name):
            leg = next(leg for leg in entry.legs if label in leg.arms)
            result = degraded(name)
            result.by_label[label][leg.checks[0][0]] = failing_value(
                passing_values(entry), leg.checks[0])
            failed = [key for key, ok in result.expectations().items()
                      if not ok]
            assert failed, label
            assert [text.split(":")[0] for text in failing_claims(result)] \
                == failed
            assert result.verdict_dict()["ok"] is False
            assert f"viol:{leg.name}" in dict(
                (row[0], row[-1]) for row in result.rows())[label]

    @pytest.mark.parametrize("name", sorted(MUST_DEGRADE))
    def test_gentle_campaign_fails_the_must_degrade_expectation(
            self, name):
        key = MUST_DEGRADE[name]
        entry = CAMPAIGNS[name]
        expectation = next(e for e in entry.expectations if e.key == key)
        assert expectation.degrade
        result = degraded(name)
        gentle = expectation.arms[0]
        result.by_label[gentle] = passing_values(entry)
        assert result.expectations()[key] is False
        claim = next(c for c in entry.claims if c.text.startswith(key))
        assert failing_claims(result) == [claim.text]
        assert "must fail one of" in claim.text
        assert dict((row[0], row[-1]) for row in result.rows())[gentle] \
            == "PASS"


class TestRendering:
    @pytest.mark.parametrize("name", NAMES)
    def test_every_row_reads_its_own_run(self, name):
        # Reference rows included: a reference that recorded two
        # partitions renders 2, not a literal.
        result = synthetic(name)
        for values in result.by_label.values():
            values["partitions"] = 2
        column = 1 + [m.name for m in result.campaign.measures].index(
            "partitions")
        rows = result.rows()
        assert [row[0] for row in rows] == labels(name)
        assert all(row[column] == "2" for row in rows)
        assert result.format_table().count("\n") >= len(rows)

    @pytest.mark.parametrize("name", NAMES)
    def test_verdict_artifact_matches_the_golden_shape(self, name):
        entry = CAMPAIGNS[name]
        verdict = degraded(name).verdict_dict()
        json.dumps(verdict)
        frozen = golden.load(GOLDEN_DIR, entry.golden)
        expectation_keys = {e.key for e in entry.expectations}
        assert set(frozen) == ({"runs"} | expectation_keys
                               | set(entry.golden_params)
                               | ({"verdict"} if entry.golden_verdict
                                  else set()))
        if entry.golden_verdict:
            frozen_verdict = frozen["verdict"]
            assert set(verdict) == set(frozen_verdict)
            assert set(verdict[entry.bands_key]) == \
                set(frozen_verdict[entry.bands_key])
            assert [a["label"] for a in verdict["arms"]] == \
                [a["label"] for a in frozen_verdict["arms"]]
            for record, frozen_record in zip(verdict["arms"],
                                             frozen_verdict["arms"]):
                assert set(record) == set(frozen_record)
        else:
            assert set(verdict) == {entry.bands_key, "arms", "ok"} \
                | expectation_keys
        gated = [label for label in labels(name)
                 if any(label in leg.arms for leg in entry.legs)]
        assert [a["label"] for a in verdict["arms"]] == gated
