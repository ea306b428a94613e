"""The paper's claims, stated by each experiment and checked by the CLI."""

import importlib
from types import SimpleNamespace

import pytest

from repro.cli import EXPERIMENTS, main
from repro.experiments import campaign, predictive, sweep
from repro.experiments.report import Claim
from repro.predict.regret import RegretReport


def _claims(name):
    """The claims the CLI checks on experiment ``name``'s result."""
    return EXPERIMENTS[name][2].claims()


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_every_experiment_states_its_claims(name):
    claims = _claims(name)
    assert claims
    assert all(isinstance(claim, Claim) and claim.text for claim in claims)


@pytest.mark.parametrize("name", ["table1", "table2", "figure1", "figure5",
                                  "figure6"])
def test_analytic_claims_hold(name):
    result = EXPERIMENTS[name][2]()
    assert [claim.text for claim in _claims(name)
            if not claim.holds(result)] == []


def test_a_failing_claim_fails_the_command(monkeypatch, capsys):
    module = importlib.import_module(EXPERIMENTS["table1"][2].__module__)
    broken = module.CLAIMS[0]._replace(holds=lambda result: False)
    monkeypatch.setattr(module, "CLAIMS", (broken,) + module.CLAIMS[1:])
    assert main(["table1"]) == 1
    out = capsys.readouterr().out
    assert f"[claims: {len(module.CLAIMS) - 1} of {len(module.CLAIMS)} " \
           "hold]" in out
    assert f"FAILS: {broken.text}" in out


def test_holding_claims_pass_the_command(capsys):
    assert main(["table2"]) == 0
    assert "[claims: 3 of 3 hold]" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["fault-tolerance"],
                                  ["campaign", "fault-tolerance"]])
def test_a_failing_campaign_claim_fails_both_commands(argv, monkeypatch,
                                                      capsys):
    # A fault campaign whose pinned arm loses deliveries: its
    # protected_ok claim fails, whichever verb runs it.
    entry = campaign.CAMPAIGNS["fault-tolerance"]

    def run(name, scale=None, **params):
        def summary(delivered, partitions, drop_bursts):
            return SimpleNamespace(
                delivered_fraction=delivered, measured_power_fraction=0.5,
                mean_message_latency_ns=1000.0,
                faults={"partitions": partitions,
                        "drop_bursts": drop_bursts})
        return campaign.CampaignResult(entry, dict(entry.params), {
            "baseline": summary(1.0, 0, 0), "gated": summary(0.7, 3, 9),
            "pinned": summary(0.9, 0, 2)})

    monkeypatch.setattr(campaign, "run", run)
    assert main(argv) == 1
    out = capsys.readouterr().out
    protected_ok = entry.claims[0]
    assert protected_ok.text.startswith("protected_ok: pinned must pass ")
    assert "[claims: 1 of 2 hold]" in out
    assert f"FAILS: {protected_ok.text}" in out


def test_a_failing_predictive_claim_fails_the_predict_command(monkeypatch,
                                                              capsys):
    # A reactive run that draws the baseline's full power: the "every
    # controller saves power" claim fails, and ``predict`` says so.
    def summary(power, latency_ns):
        return SimpleNamespace(
            events_fired=1, measured_power_fraction=power,
            mean_message_latency_ns=latency_ns)

    def run(scale=None, **params):
        return predictive.PredictiveResult(
            workload=params["workload"], headroom=params["headroom"],
            baseline=summary(1.0, 1000.0), reactive=summary(1.0, 2000.0),
            oracle=None, by_forecaster={"ewma": summary(0.5, 1500.0)},
            report=RegretReport(rows=[]))

    monkeypatch.setattr(predictive, "run", run)
    # main() reconfigures the process-wide sweep runner; undo it.
    monkeypatch.setattr(sweep, "_default_runner", sweep._default_runner)
    assert main(["predict", "--forecaster", "ewma"]) == 1
    out = capsys.readouterr().out
    saves_power = predictive.CLAIMS[1]
    assert saves_power.text == \
        "every controller saves power over the full-rate baseline"
    assert "[claims: 2 of 3 hold]" in out
    assert f"FAILS: {saves_power.text}" in out
    assert "predict/ewma strictly dominates reactive control" in out
