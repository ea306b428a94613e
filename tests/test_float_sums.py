"""Float sums add left to right on every supported Python.

Python 3.12's built-in ``sum()`` of floats is compensated, so a float
total can differ in its last bit from 3.11's, and the control loops
turn that bit into different decisions.  Every result is pinned with
left-to-right sums, which :func:`repro.sums.left_sum` gives on every
version.  The guard below runs two short simulations and a short
service run with ``builtins.sum`` replaced by a compensated sum: a
float ``sum()`` left on those paths changes a digest here, whatever
the interpreter running the suite.
"""

from __future__ import annotations

import builtins
import sys

import pytest

from repro.experiments.cache import summary_digest
from repro.experiments.runner import SimulationSpec, run_simulation
from repro.faults.control_faults import (
    ControlFaultScenario,
    ControllerCrash,
    DecisionLoss,
    TelemetryDropout,
)
from repro.service import ControlPlaneService, ServiceConfig
from repro.sums import left_sum
from repro.units import US

_BUILTIN_SUM = builtins.sum


def compensated_sum(iterable, start=0):
    """Neumaier summation of int/float items, as Python 3.12 sums
    floats; anything else goes to the built-in unchanged."""
    items = list(iterable)
    numeric = (int, float, bool)
    if (type(start) not in numeric
            or not any(type(item) is float for item in items)
            or not all(type(item) in numeric for item in items)):
        return _BUILTIN_SUM(items, start)
    total, compensation = float(start), 0.0
    for item in items:
        item = float(item)
        added = total + item
        if abs(total) >= abs(item):
            compensation += (total - added) + item
        else:
            compensation += (item - added) + total
        total = added
    return total + compensation


def control_chaos_digest():
    """20 us of topology control under link flaps and control-plane
    chaos with the failsafe on (the ``control-chaos`` benchmark shape)."""
    spec = SimulationSpec(
        k=4, n=3, workload="shifting", uniform_offered_load=0.25,
        control="demand_topo", policy="ladder", reactivation_ns=0.1 * US,
        faults="flap", control_faults="ctl_chaos_mid", failsafe=True,
        inject_fraction=0.5, duration_ns=20 * US, seed=1, fault_seed=1)
    return summary_digest(run_simulation(spec))


def fabric_steady_digest():
    """20 us of 64 KB uniform messages at 25% load under epoch control
    (the ``fabric-steady`` benchmark shape: the power and utilization
    totals)."""
    spec = SimulationSpec(
        k=4, n=3, workload="uniform", message_bytes=64 * 1024,
        uniform_offered_load=0.25, control="epoch",
        target_utilization=0.5, reactivation_ns=1 * US,
        duration_ns=20 * US, seed=1)
    return summary_digest(run_simulation(spec))


def service_digest():
    """Two diurnal days of a 16-group service under dropout, decision
    loss and a crash (the ``service-fleet`` benchmark shape)."""
    config = ServiceConfig(groups=16, epochs=48, epochs_per_day=24,
                           seed=1)
    day_ns = config.duration_ns / 2
    scenario = ControlFaultScenario(
        name="fleet", seed=1,
        dropout=TelemetryDropout(fraction=0.6, probability=0.95,
                                 start_ns=0.2 * day_ns,
                                 end_ns=1.2 * day_ns),
        loss=DecisionLoss(probability=0.3, start_ns=0.1 * day_ns),
        crashes=(ControllerCrash(time_ns=1.5 * day_ns),))
    return ControlPlaneService(config, scenario=scenario).run().digest()


class TestLeftSum:
    def test_adds_left_to_right(self):
        # A compensated sum recovers the 1.0; left to right loses it.
        assert left_sum([1e16, 1.0, -1e16]) == 0.0
        assert compensated_sum([1e16, 1.0, -1e16]) == 1.0

    def test_keeps_the_builtin_signature(self):
        assert left_sum([1, 2, 3]) == 6
        assert left_sum([0.5, 0.25], 1) == 1.75
        total = 0.0
        for tenth in range(10):
            total += tenth / 10
        assert left_sum((x / 10 for x in range(10)), start=0.0) == total
        assert left_sum([]) == 0

    @pytest.mark.skipif(sys.version_info >= (3, 12),
                        reason="3.12's built-in sum is compensated")
    def test_is_the_builtin_before_3_12(self):
        assert left_sum is _BUILTIN_SUM


class TestNoBuiltinFloatSum:
    @pytest.mark.parametrize("digest", [control_chaos_digest,
                                        fabric_steady_digest,
                                        service_digest])
    def test_digest_ignores_a_compensated_builtin_sum(self, digest,
                                                      monkeypatch):
        plain = digest()
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert digest() == plain
