"""Energy cost model — every dollar figure the paper quotes."""

import pytest

from repro.power.cost import EnergyCostModel

#: The paper's cost assumptions are the model's defaults.
PAPER_COST_MODEL = EnergyCostModel()


class TestPaperNumbers:
    def test_topology_savings_1_6m(self):
        # Table 1: 409,600 W saved -> "over $1.6M of energy savings over
        # a four-year lifetime".
        savings = PAPER_COST_MODEL.lifetime_savings(1_146_880, 737_280)
        assert savings == pytest.approx(1.607e6, rel=0.01)

    def test_fbfly_baseline_cost_2_89m(self):
        # "the baseline FBFLY network consumes 737,280 watts resulting in
        # a four year power cost of $2.89M".
        assert PAPER_COST_MODEL.lifetime_cost(737_280) == \
            pytest.approx(2.89e6, rel=0.01)

    def test_proportional_network_saves_3_8m_at_15pct(self):
        # Figure 1 / intro: 975,000 W saved -> "approximately $3.8M".
        assert PAPER_COST_MODEL.lifetime_savings(1_146_880, 172_032) == \
            pytest.approx(3.8e6, rel=0.02)

    def test_6x_reduction_saves_2_4m(self):
        # Section 1: "a 6x reduction in power ... potential four-year
        # energy savings of an additional $2.4M".
        improved = 737_280 / 6.0
        assert PAPER_COST_MODEL.lifetime_savings(737_280, improved) == \
            pytest.approx(2.4e6, rel=0.02)

    def test_6_6x_reduction_saves_2_5m(self):
        # Section 4.2.2: "up to a 6.6x reduction ... additional four-year
        # energy savings is $2.5M".
        improved = 737_280 / 6.6
        assert PAPER_COST_MODEL.lifetime_savings(737_280, improved) == \
            pytest.approx(2.5e6, rel=0.02)


class TestModelBehaviour:
    def test_cost_linear_in_power(self):
        model = EnergyCostModel()
        assert model.lifetime_cost(2000) == pytest.approx(
            2 * model.lifetime_cost(1000))

    def test_cost_linear_in_years(self):
        short = EnergyCostModel(service_years=1.0)
        long = EnergyCostModel(service_years=4.0)
        assert long.lifetime_cost(1000) == pytest.approx(
            4 * short.lifetime_cost(1000))

    def test_pue_multiplies_cost(self):
        lean = EnergyCostModel(pue=1.2)
        fat = EnergyCostModel(pue=2.0)
        ratio = fat.lifetime_cost(1000) / lean.lifetime_cost(1000)
        assert ratio == pytest.approx(2.0 / 1.2)

    def test_zero_power_costs_nothing(self):
        assert EnergyCostModel().lifetime_cost(0.0) == 0.0

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            EnergyCostModel().lifetime_cost(-1.0)

    def test_pue_below_one_rejected(self):
        with pytest.raises(ValueError):
            EnergyCostModel(pue=0.9)

    def test_non_positive_service_life_rejected(self):
        with pytest.raises(ValueError):
            EnergyCostModel(service_years=0.0)

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            EnergyCostModel(dollars_per_kwh=-0.01)

    def test_hours_over_four_years(self):
        assert PAPER_COST_MODEL.hours == pytest.approx(4 * 8760)
