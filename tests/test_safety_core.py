"""The safety core both control planes share (``repro.core.safety``).

The simulator's failsafe guard and the live service each used to keep
their own power journal, bounded insert and staleness ladder.  The
two tap rules they had are kept here as reference models, and the
shared journal, as each driver wires it, must answer every recovery
question the way its driver's reference did: over arbitrary record
streams, with restarts and under cap pressure.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.core.controller import ControllerConfig, EpochController
from repro.core.failsafe import FailsafeConfig, FailsafeGuard
from repro.core.safety import (
    FLOOR,
    FRESH,
    HOLD,
    ON,
    bounded_put,
    staleness,
)
from repro.obs.decisions import (
    ABOVE_THRESHOLD,
    BELOW_THRESHOLD,
    CONTROL_FAULT_RESTART,
    FAILSAFE_RECOVERED,
    GATED_OFF,
    GATED_WAKE,
    HOLD as HOLD_REASON,
    SERVICE_RECOVERED,
    SERVICE_RESTART,
    SERVICE_SAFE_FLOOR,
    SERVICE_STALE_HOLD,
    TOPOLOGY_OFF,
    TOPOLOGY_ON,
    DecisionLog,
)
from repro.service.service import ControlPlaneService, ServiceConfig
from repro.sim.network import FbflyNetwork, NetworkConfig
from repro.topology.flattened_butterfly import FlattenedButterfly


def reference_put(journal, cap, name, entry):
    """The capped insert both drivers hand-rolled; returns evictions."""
    if name in journal:
        del journal[name]
    elif cap is not None and len(journal) >= cap:
        del journal[next(iter(journal))]
        journal[name] = entry
        return 1
    journal[name] = entry
    return 0


class FailsafeTapReference:
    """The failsafe guard's own journal: restarts and power events."""

    JOURNALED = frozenset((CONTROL_FAULT_RESTART, GATED_OFF, TOPOLOGY_OFF,
                           GATED_WAKE, TOPOLOGY_ON))

    def __init__(self, cap):
        self.cap = cap
        self.journal = {}
        self.last_restart_ns = None
        self.evictions = 0

    def observe(self, reason, group, time_ns, changed):
        if reason not in self.JOURNALED:
            return
        if reason == CONTROL_FAULT_RESTART:
            self.last_restart_ns = time_ns
        elif reason in (GATED_OFF, TOPOLOGY_OFF):
            self.put(group, ("off", time_ns))
        elif reason in (GATED_WAKE, TOPOLOGY_ON):
            self.put(group, ("on", time_ns))

    def put(self, group, entry):
        self.evictions += reference_put(self.journal, self.cap, group,
                                        entry)

    def stranded(self, group):
        """The guard's recovery rule: gated before the last restart."""
        record = self.journal.get(group)
        if record is None or record[0] != "off":
            return False
        if (self.last_restart_ns is None
                or record[1] >= self.last_restart_ns):
            return False
        return True


class ServiceTapReference:
    """The service supervisor's own journal, uncapped (``cap=None``)
    or under the capped insert it gained."""

    OFF_REASONS = frozenset({GATED_OFF})
    ON_REASONS = frozenset({GATED_WAKE, SERVICE_SAFE_FLOOR,
                            SERVICE_RECOVERED})

    def __init__(self, cap=None):
        self.cap = cap
        self.last_power = {}
        self.evictions = 0

    def observe(self, reason, group, time_ns, changed):
        if reason in self.OFF_REASONS:
            entry = ("off", time_ns)
        elif reason in self.ON_REASONS or changed:
            entry = ("on", time_ns)
        else:
            return
        self.evictions += reference_put(self.last_power, self.cap, group,
                                        entry)

    def dark_groups(self):
        return sorted(name for name, (state, _)
                      in self.last_power.items() if state == "off")


GROUPS = ("a", "b", "c", "d", "e", "f")

#: Stands, in a record stream, for a failsafe safety wake: the guard
#: journals it directly rather than through a watched record.
WAKE = None

#: Every reason either driver journals, plus ones neither does (which
#: still mark a group lit in the service when they carry a change).
REASONS = (CONTROL_FAULT_RESTART, GATED_OFF, TOPOLOGY_OFF, GATED_WAKE,
           TOPOLOGY_ON, SERVICE_SAFE_FLOOR, SERVICE_RECOVERED,
           SERVICE_RESTART, ABOVE_THRESHOLD, BELOW_THRESHOLD, HOLD_REASON,
           SERVICE_STALE_HOLD, FAILSAFE_RECOVERED, WAKE)

#: ``(reason, group, time_ns, changed)``; few distinct times, so that
#: entries made at, before and after a restart all occur.
records = st.lists(st.tuples(st.sampled_from(REASONS),
                             st.sampled_from(GROUPS),
                             st.integers(0, 6).map(float),
                             st.booleans()),
                   max_size=60)


def failsafe_journal(cap):
    """The journal a real guard wires, and the log that feeds it."""
    net = FbflyNetwork(FlattenedButterfly(k=2, n=2), NetworkConfig(seed=1))
    controller = EpochController(net, config=ControllerConfig(
        epoch_ns=10_000.0))
    log = DecisionLog(max_records=0)
    guard = FailsafeGuard(controller, FailsafeConfig(journal_cap=cap),
                          decision_log=log)
    return guard.power_journal, log


def service_journal(cap):
    """The journal a real service wires, and the log that feeds it."""
    log = DecisionLog(max_records=0)
    service = ControlPlaneService(ServiceConfig(groups=2, journal_cap=cap),
                                  decision_log=log)
    return service.power_journal, log


def feed(journal, log, stream):
    for reason, group, time_ns, changed in stream:
        if reason is WAKE:
            journal.put(group, ON, time_ns)
        else:
            log.record(time_ns, "c", group, (), None, None, reason,
                       changed)


class TestPowerJournalMatchesBothDrivers:
    @given(records, st.integers(1, 8))
    @example([(TOPOLOGY_OFF, "a", 2.0, False),
              (CONTROL_FAULT_RESTART, "b", 3.0, False)], 8)
    @example([(GATED_OFF, "a", 3.0, False),      # gated at the restart:
              (CONTROL_FAULT_RESTART, "b", 3.0, False)], 8)  # not stranded
    @settings(max_examples=150, deadline=None)
    def test_failsafe_recovers_what_it_gated_before_the_restart(
            self, stream, cap):
        journal, log = failsafe_journal(cap)
        reference = FailsafeTapReference(cap)
        feed(journal, log, stream)
        for reason, group, time_ns, changed in stream:
            if reason is WAKE:
                reference.put(group, ("on", time_ns))
            else:
                reference.observe(reason, group, time_ns, changed)
        for group in GROUPS:
            assert (journal.gated_before_restart(group)
                    == reference.stranded(group))
        assert list(journal.last_power.items()) \
            == list(reference.journal.items())
        assert journal.last_restart_ns == reference.last_restart_ns
        assert journal.evictions == reference.evictions

    @given(records, st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_service_recovers_its_dark_groups(self, stream, cap):
        journal, log = service_journal(cap)
        capped, uncapped = ServiceTapReference(cap), ServiceTapReference()
        stream = [record for record in stream if record[0] is not WAKE]
        feed(journal, log, stream)
        for record in stream:
            capped.observe(*record)
            uncapped.observe(*record)
        assert journal.dark_groups() == capped.dark_groups()
        assert list(journal.last_power.items()) \
            == list(capped.last_power.items())
        assert journal.evictions == capped.evictions
        if cap >= len(GROUPS):
            # No cap pressure: exactly the rule the service had.
            assert journal.dark_groups() == uncapped.dark_groups()
            assert journal.last_power == uncapped.last_power


class TestBoundedPut:
    @given(st.lists(st.sampled_from(GROUPS), max_size=40),
           st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_hand_rolled_insert(self, keys, cap):
        journal, reference = {}, {}
        evictions = reference_evictions = 0
        for i, key in enumerate(keys):
            evictions += bounded_put(journal, key, i, cap)
            reference_evictions += reference_put(reference, cap, key, i)
            assert len(journal) <= cap
        assert list(journal.items()) == list(reference.items())
        assert evictions == reference_evictions


def failsafe_rung(streak, ttl, down):
    """The guard's inline ladder: deadman, hold, then normal control."""
    if down or streak > ttl:
        return FLOOR
    if streak > 0:
        return HOLD
    return FRESH


def service_rung(age, ttl, fleet_floor):
    """The service loop's inline ladder: floor, fresh, else hold."""
    if fleet_floor or age > ttl:
        return FLOOR
    if age == 0:
        return FRESH
    return HOLD


class TestStalenessLadder:
    @given(st.integers(0, 20), st.integers(0, 10), st.booleans())
    def test_failsafe_lost_streak(self, streak, ttl, down):
        assert staleness(streak, ttl, down) == failsafe_rung(streak, ttl,
                                                             down)

    @given(st.integers(-5, 20), st.integers(0, 10), st.booleans())
    def test_service_epoch_age(self, age, ttl, fleet_floor):
        # A checkpoint-restored loop can see a reading newer than the
        # tick it decides (negative age): that stays a hold.
        assert staleness(age, ttl, fleet_floor) == service_rung(
            age, ttl, fleet_floor)
