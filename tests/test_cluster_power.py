"""Cluster-level power roll-ups (Figure 1 / Table 1 arithmetic)."""

import pytest

from repro.power.cluster import ClusterPowerModel
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.topology.folded_clos import FoldedClos


@pytest.fixture
def model() -> ClusterPowerModel:
    return ClusterPowerModel()


@pytest.fixture
def fbfly() -> FlattenedButterfly:
    return FlattenedButterfly(k=8, n=5)


@pytest.fixture
def clos() -> FoldedClos:
    return FoldedClos(32 * 1024)


class TestTable1Power:
    def test_fbfly_total_power(self, model, fbfly):
        assert model.network_power(fbfly).total_watts == 737_280

    def test_clos_total_power(self, model, clos):
        assert model.network_power(clos).total_watts == 1_146_880

    def test_fbfly_breakdown(self, model, fbfly):
        power = model.network_power(fbfly)
        assert power.switch_watts == 4096 * 100
        assert power.nic_watts == 32768 * 10

    def test_clos_counts_only_powered_chips(self, model, clos):
        # 8,235 chips cabled, but "only ports on 8,192 switches are used".
        assert model.network_power(clos).switch_watts == 8192 * 100

    def test_watts_per_bisection(self, model, fbfly, clos):
        fb = model.table1_row(fbfly, 40.0)["watts_per_bisection_gbps"]
        cl = model.table1_row(clos, 40.0)["watts_per_bisection_gbps"]
        assert fb == pytest.approx(1.125)   # paper prints 1.13
        assert cl == pytest.approx(1.75)

    def test_fbfly_uses_half_the_chips(self, fbfly, clos):
        assert fbfly.part_counts().switch_chips * 2 == \
            pytest.approx(clos.part_counts().switch_chips, rel=0.01)


def network_share(model, clos, scenario):
    watts = model.figure1_scenarios(clos)[scenario]
    return watts["network_watts"] / (watts["network_watts"]
                                     + watts["server_watts"])


class TestFigure1:
    def test_network_share_at_full_utilization(self, model, clos):
        # "the network consumes only 12% of overall power at full
        # utilization".
        share = network_share(model, clos, "full_utilization")
        assert share == pytest.approx(0.12, abs=0.01)

    def test_network_share_with_proportional_servers_at_15pct(self, model, clos):
        # "the network will then consume nearly 50% of overall power".
        share = network_share(model, clos, "proportional_servers_15pct")
        assert 0.45 <= share <= 0.52

    def test_proportional_network_restores_balance(self, model, clos):
        share = network_share(model, clos,
                              "proportional_servers_and_network_15pct")
        assert share == pytest.approx(0.12, abs=0.01)

    def test_scenarios_savings_975kw(self, model, clos):
        # "making the network energy proportional results in a savings of
        # 975,000 watts".
        scenarios = model.figure1_scenarios(clos)
        saved = (scenarios["proportional_servers_15pct"]["network_watts"]
                 - scenarios["proportional_servers_and_network_15pct"]
                 ["network_watts"])
        assert saved == pytest.approx(975_000, rel=0.01)

    def test_server_power_at_peak(self, model):
        assert model.server_power(32768) == 32768 * 250

    def test_proportional_server_power_scales(self, model):
        full = model.server_power(100, 1.0, energy_proportional=True)
        low = model.server_power(100, 0.15, energy_proportional=True)
        assert low == pytest.approx(0.15 * full)

    def test_conventional_server_ignores_utilization(self, model):
        assert model.server_power(100, 0.15) == model.server_power(100, 1.0)

    def test_bad_utilization_rejected(self, model):
        with pytest.raises(ValueError):
            model.server_power(10, 1.5, energy_proportional=True)
        with pytest.raises(ValueError):
            model.server_power(10, -0.1, energy_proportional=True)
