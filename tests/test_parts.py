"""PartCount invariants."""

import pytest

from repro.topology.parts import PartCount


class TestPartCount:
    def test_totals(self):
        parts = PartCount(switch_chips=10, switch_chips_powered=8,
                          electrical_links=100, optical_links=50)
        assert parts.total_links == 150

    def test_no_links(self):
        parts = PartCount(1, 1, 0, 0)
        assert parts.total_links == 0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            PartCount(-1, 0, 0, 0)
        with pytest.raises(ValueError):
            PartCount(1, 1, -5, 0)

    def test_powered_cannot_exceed_total(self):
        with pytest.raises(ValueError):
            PartCount(switch_chips=5, switch_chips_powered=6,
                      electrical_links=0, optical_links=0)

    def test_frozen(self):
        parts = PartCount(1, 1, 1, 1)
        with pytest.raises(AttributeError):
            parts.switch_chips = 2
