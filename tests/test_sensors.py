"""Congestion sensors and their controller integration."""

import copy
import dataclasses
import inspect
import pickle

import pytest

from repro.core.controller import ControllerConfig, EpochController
from repro.core.grouping import ChannelGroup
from repro.core.sensors import (
    CompositeSensor,
    CreditStallSensor,
    GroupReading,
    QueueOccupancySensor,
    UtilizationSensor,
)
from repro.sim.network import FbflyNetwork, NetworkConfig
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.units import US

KEY = "group"


def reading(utilization=0.0, queue_fraction=0.0, credit_stalls=0):
    return GroupReading(utilization=utilization,
                        queue_fraction=queue_fraction,
                        credit_stalls=credit_stalls)


class TestGroupReadingInitializer:
    """GroupReading's hand-written initializer must stay the
    dataclass's."""

    VALUES = dict(utilization=0.4, queue_fraction=0.125, credit_stalls=2)

    def test_signature_is_the_field_list(self):
        params = list(
            inspect.signature(GroupReading.__init__).parameters.values())[1:]
        fields = dataclasses.fields(GroupReading)
        assert [p.name for p in params] == [f.name for f in fields]
        for param, field in zip(params, fields):
            assert param.kind is param.POSITIONAL_OR_KEYWORD
            assert field.default is dataclasses.MISSING
            assert param.default is param.empty
        assert list(self.VALUES) == [f.name for f in fields]

    def test_positional_and_keyword_construction_agree(self):
        by_keyword = GroupReading(**self.VALUES)
        by_position = GroupReading(*self.VALUES.values())
        assert by_keyword == by_position
        assert list(vars(by_keyword).items()) == list(self.VALUES.items())
        with pytest.raises(TypeError):
            GroupReading(0.4, 0.125)

    def test_equality_hash_and_repr(self):
        a, b = GroupReading(**self.VALUES), GroupReading(**self.VALUES)
        assert a == b and hash(a) == hash(b)
        assert dataclasses.replace(a, credit_stalls=3) != a
        assert repr(a) == ("GroupReading(utilization=0.4, "
                           "queue_fraction=0.125, credit_stalls=2)")

    def test_round_trips(self):
        r = GroupReading(**self.VALUES)
        assert dataclasses.asdict(r) == self.VALUES
        assert dataclasses.replace(r) == r
        for clone in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r),
                      copy.copy(r)):
            assert clone == r and clone is not r
            assert vars(clone) == self.VALUES

    def test_assignment_is_refused(self):
        r = GroupReading(**self.VALUES)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.utilization = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del r.credit_stalls
        assert r.utilization == 0.4


class TestUtilizationSensor:
    def test_passes_utilization_through(self):
        sensor = UtilizationSensor()
        assert sensor.estimate(KEY, reading(utilization=0.37)) == 0.37


class TestQueueOccupancySensor:
    def test_first_reading_unsmoothed(self):
        sensor = QueueOccupancySensor(alpha=0.5)
        assert sensor.estimate(KEY, reading(queue_fraction=0.8)) == \
            pytest.approx(0.8)

    def test_ewma_smooths_spikes(self):
        sensor = QueueOccupancySensor(alpha=0.5)
        sensor.estimate(KEY, reading(queue_fraction=0.0))
        spiked = sensor.estimate(KEY, reading(queue_fraction=1.0))
        assert spiked == pytest.approx(0.5)

    def test_groups_independent(self):
        sensor = QueueOccupancySensor(alpha=0.5)
        sensor.estimate("a", reading(queue_fraction=1.0))
        assert sensor.estimate("b", reading(queue_fraction=0.0)) == 0.0

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            QueueOccupancySensor(alpha=0.0)


class TestCreditStallSensor:
    def test_no_stalls_is_plain_utilization(self):
        sensor = CreditStallSensor()
        assert sensor.estimate(KEY, reading(utilization=0.3)) == \
            pytest.approx(0.3)

    def test_stalls_boost_the_estimate(self):
        sensor = CreditStallSensor(stall_boost=0.1, max_boost=0.5)
        estimate = sensor.estimate(
            KEY, reading(utilization=0.3, credit_stalls=2))
        assert estimate == pytest.approx(0.5)

    def test_boost_saturates(self):
        sensor = CreditStallSensor(stall_boost=0.1, max_boost=0.5)
        estimate = sensor.estimate(
            KEY, reading(utilization=0.3, credit_stalls=100))
        assert estimate == pytest.approx(0.8)

    def test_validation(self):
        with pytest.raises(ValueError):
            CreditStallSensor(stall_boost=-0.1)


class TestCompositeSensor:
    def test_takes_the_max(self):
        sensor = CompositeSensor(
            [UtilizationSensor(), QueueOccupancySensor(alpha=1.0)])
        estimate = sensor.estimate(
            KEY, reading(utilization=0.2, queue_fraction=0.9))
        assert estimate == pytest.approx(0.9)

    def test_needs_at_least_one(self):
        with pytest.raises(ValueError):
            CompositeSensor([])


class TestGroupPrimitives:
    @pytest.fixture
    def group(self):
        net = FbflyNetwork(FlattenedButterfly(k=2, n=2),
                           NetworkConfig(seed=41))
        fwd, rev = net.link_pairs()[0]
        return ChannelGroup("pair", [fwd, rev])

    def test_queue_fraction_zero_when_idle(self, group):
        assert group.max_queue_fraction() == 0.0

    def test_credit_stalls_delta(self, group):
        assert group.credit_stalls_since_last() == 0
        group.channels[0].stats.credit_stalls += 3
        assert group.credit_stalls_since_last() == 3
        assert group.credit_stalls_since_last() == 0


class TestControllerIntegration:
    def test_controller_accepts_custom_sensor(self):
        net = FbflyNetwork(FlattenedButterfly(k=2, n=3),
                           NetworkConfig(seed=41))
        ctrl = EpochController(
            net,
            config=ControllerConfig(independent_channels=True),
            sensor=QueueOccupancySensor())
        net.run(until_ns=100.0 * US)
        # Idle network: queue sensor reads 0 -> everything descends.
        assert all(ch.rate_gbps == 2.5 for ch in net.tunable_channels())
        assert ctrl.epochs_run > 0

    def test_default_sensor_is_utilization(self):
        net = FbflyNetwork(FlattenedButterfly(k=2, n=2),
                           NetworkConfig(seed=41))
        ctrl = EpochController(net)
        assert isinstance(ctrl.sensor, UtilizationSensor)
