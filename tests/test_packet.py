"""Messages and packetization."""

import pytest

from repro.sim.packet import Message


class TestMessage:
    def test_basic_construction(self):
        msg = Message(src=1, dst=2, size_bytes=1000, create_time=5.0)
        assert msg.src == 1 and msg.dst == 2
        assert not msg.complete
        assert msg.latency_ns is None

    def test_self_message_rejected(self):
        with pytest.raises(ValueError):
            Message(src=3, dst=3, size_bytes=100, create_time=0.0)

    def test_non_positive_size_rejected(self):
        with pytest.raises(ValueError):
            Message(src=0, dst=1, size_bytes=0, create_time=0.0)

    def test_unique_ids(self):
        a = Message(0, 1, 10, 0.0)
        b = Message(0, 1, 10, 0.0)
        assert a.id != b.id

    def test_latency_after_delivery(self):
        msg = Message(0, 1, 10, create_time=100.0)
        msg.deliver_time = 250.0
        assert msg.latency_ns == 150.0


class TestPacketize:
    def test_exact_multiple(self):
        msg = Message(0, 1, 4096, 0.0)
        packets = msg.packetize(1024)
        assert len(packets) == 4
        assert all(p.size_bytes == 1024 for p in packets)

    def test_remainder_packet(self):
        msg = Message(0, 1, 2500, 0.0)
        packets = msg.packetize(1024)
        assert [p.size_bytes for p in packets] == [1024, 1024, 452]

    def test_sizes_sum_to_message(self):
        for size in (1, 100, 1024, 5000, 123457):
            msg = Message(0, 1, size, 0.0)
            assert sum(p.size_bytes for p in msg.packetize(1500)) == size

    def test_small_message_single_packet(self):
        msg = Message(0, 1, 10, 0.0)
        packets = msg.packetize(1500)
        assert len(packets) == 1
        assert packets[0].size_bytes == 10

    def test_indices_sequential(self):
        msg = Message(0, 1, 5000, 0.0)
        packets = msg.packetize(1000)
        assert [p.index for p in packets] == [0, 1, 2, 3, 4]

    def test_packets_total_recorded(self):
        msg = Message(0, 1, 5000, 0.0)
        msg.packetize(1000)
        assert msg.packets_total == 5

    def test_invalid_mtu_rejected(self):
        msg = Message(0, 1, 100, 0.0)
        with pytest.raises(ValueError):
            msg.packetize(0)


class TestPacket:
    def test_inherits_endpoints_from_message(self):
        msg = Message(src=7, dst=9, size_bytes=100, create_time=0.0)
        packet = msg.packetize(64)[0]
        assert packet.src == 7
        assert packet.dst == 9

    def test_latency_from_message_creation(self):
        msg = Message(0, 1, 100, create_time=50.0)
        packet = msg.packetize(64)[0]
        packet.deliver_time = 175.0
        assert packet.latency_ns == 125.0

    def test_completion_tracking(self):
        msg = Message(0, 1, 2000, 0.0)
        packets = msg.packetize(1000)
        assert not msg.complete
        msg.packets_delivered = 1
        assert not msg.complete
        msg.packets_delivered = 2
        assert msg.complete
