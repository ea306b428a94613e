"""Unit-conversion helpers."""

import pytest

from repro import units


class TestRateConversions:
    def test_one_gbps_is_one_eighth_byte_per_ns(self):
        assert units.gbps_to_bytes_per_ns(1.0) == pytest.approx(0.125)

    def test_forty_gbps_is_five_bytes_per_ns(self):
        assert units.gbps_to_bytes_per_ns(40.0) == pytest.approx(5.0)


class TestSerialization:
    def test_2kb_packet_at_40gbps(self):
        # 2048 B at 5 B/ns.
        assert units.serialization_ns(2048, 40.0) == pytest.approx(409.6)

    def test_slower_rate_takes_proportionally_longer(self):
        fast = units.serialization_ns(1500, 40.0)
        slow = units.serialization_ns(1500, 2.5)
        assert slow == pytest.approx(16.0 * fast)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            units.serialization_ns(100, 0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            units.serialization_ns(100, -1.0)


class TestConstants:
    def test_time_constants_consistent(self):
        assert units.MS == 1000 * units.US
        assert units.S == 1000 * units.MS

    def test_hours_per_year(self):
        assert units.HOURS_PER_YEAR == 8760
