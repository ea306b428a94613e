"""The paper's claims, stated by each experiment and checked by the CLI."""

import importlib

import pytest

from repro.cli import EXPERIMENTS, main
from repro.experiments.campaign import CAMPAIGNS
from repro.experiments.report import Claim


def _module(name):
    return importlib.import_module(EXPERIMENTS[name][2].__module__)


@pytest.mark.parametrize("name", sorted(set(EXPERIMENTS) - set(CAMPAIGNS)))
def test_every_experiment_states_its_claims(name):
    # The campaigns gate on their verdicts instead (campaign --compare).
    claims = _module(name).CLAIMS
    assert claims
    assert all(isinstance(claim, Claim) and claim.text for claim in claims)


@pytest.mark.parametrize("name", ["table1", "table2", "figure1", "figure5",
                                  "figure6"])
def test_analytic_claims_hold(name):
    result = EXPERIMENTS[name][2]()
    assert [claim.text for claim in _module(name).CLAIMS
            if not claim.holds(result)] == []


def test_a_failing_claim_fails_the_command(monkeypatch, capsys):
    module = _module("table1")
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
