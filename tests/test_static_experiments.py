"""The analytic experiments must reproduce the paper's exact numbers."""

import pytest

from repro.experiments import figure1, figure5, figure6, table1, table2


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return table1.run()

    def test_chip_counts(self, result):
        assert result.clos["switch_chips"] == 8235
        assert result.fbfly["switch_chips"] == 4096

    def test_power(self, result):
        assert result.clos["total_power_watts"] == 1_146_880
        assert result.fbfly["total_power_watts"] == 737_280

    def test_links(self, result):
        assert result.clos["electrical_links"] == 49_152
        assert result.clos["optical_links"] == 65_536
        assert result.fbfly["electrical_links"] == 47_104
        assert result.fbfly["optical_links"] == 43_008

    def test_power_per_bisection(self, result):
        assert result.clos["watts_per_bisection_gbps"] == pytest.approx(1.75)
        assert result.fbfly["watts_per_bisection_gbps"] == \
            pytest.approx(1.125)

    def test_savings_1_6m(self, result):
        assert result.fbfly_savings_dollars == pytest.approx(1.6e6, rel=0.01)

    def test_fbfly_cost_2_89m(self, result):
        assert result.fbfly_lifetime_cost_dollars == \
            pytest.approx(2.89e6, rel=0.01)

    def test_formatting_contains_headline_numbers(self, result):
        text = result.format_table()
        assert "8,235" in text
        assert "737,280" in text
        assert "1.75" in text

    def test_rows_shape(self, result):
        rows = result.rows()
        assert len(rows) == 7
        assert all(len(row) == 3 for row in rows)


class TestFigure1:
    @pytest.fixture(scope="class")
    def result(self):
        return figure1.run()

    def test_975kw_saved(self, result):
        assert result.network_watts_saved_at_15pct == \
            pytest.approx(975_000, rel=0.01)

    def test_3_8m_savings(self, result):
        assert result.savings_dollars == pytest.approx(3.8e6, rel=0.02)

    def test_three_scenarios(self, result):
        assert len(result.scenarios) == 3

    def test_network_share_shapes(self, result):
        s = result.scenarios
        full = s["full_utilization"]
        prop = s["proportional_servers_15pct"]
        share_full = full["network_watts"] / (
            full["network_watts"] + full["server_watts"])
        share_prop = prop["network_watts"] / (
            prop["network_watts"] + prop["server_watts"])
        assert share_full == pytest.approx(0.12, abs=0.01)
        assert 0.45 < share_prop < 0.52

    def test_format(self, result):
        assert "Network share" in result.format_table()


class TestTable2:
    def test_rows(self):
        result = table2.run()
        assert len(result.rows()) == 6
        assert "InfiniBand" in result.format_table()


class TestFigure5:
    def test_bars_and_ranges(self):
        result = figure5.run()
        assert len(result.bars) == 6
        text = result.format_table()
        assert "16x" in text

    def test_optical_exceeds_copper_in_every_row(self):
        for _, _, copper, optical in figure5.run().bars:
            assert optical > copper

    def test_paper_anchors(self):
        result = figure5.run()
        assert result.profile.performance_dynamic_range == 16.0
        # Slowest optical mode at 42% of full power; fastest at 100%.
        by_name = {name: optical for name, _, _, optical in result.bars}
        assert abs(by_name["1x SDR"] - 0.42) < 1e-9
        assert by_name["4x QDR"] == 1.0


class TestFigure6:
    def test_series_monotone(self):
        result = figure6.run()
        bandwidths = [p.io_bandwidth_tbps for p in result.series]
        assert bandwidths == sorted(bandwidths)
        assert result.cagr > 0.2   # exponential I/O growth

    def test_endpoint_anchors(self):
        result = figure6.run()
        assert result.series[-1].io_bandwidth_tbps == 160.0
        assert result.series[-1].offchip_clock_gbps == 70.0
