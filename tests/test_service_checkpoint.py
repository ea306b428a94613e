"""Checkpoint/restore: the round-trip property and crash recovery.

Two layers of guarantee.  The *serialization* layer is property-
tested with hypothesis: ``restore(checkpoint(s)) == s`` for arbitrary
decision states, torn or foreign bytes restore as "no checkpoint",
and the file store's atomic-replace discipline never leaves a partial
file behind.  The *system* layer is the kill-at-a-random-epoch test:
a service killed mid-run and restored from its latest checkpoint over
the still-running plant resumes within one epoch of where it died and
emits a decision stream byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.decisions import DecisionLog
from repro.service import (
    CHECKPOINT_SCHEMA_VERSION,
    ControlPlaneService,
    DecisionState,
    FileCheckpointStore,
    GroupState,
    IntentEntry,
    MemoryCheckpointStore,
    ServiceConfig,
    fresh_state,
)
from repro.service.checkpoint import (
    CheckpointEncoder,
    decode_checkpoint,
    encode_checkpoint,
)

# -- hypothesis strategies -------------------------------------------------

finite = st.floats(min_value=0.0, max_value=1e12,
                   allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=0, max_value=10_000)
names = st.text(alphabet="abcdefgh0123456789_", min_size=1, max_size=8)

group_states = st.builds(
    GroupState,
    believed_rate=finite, believed_off=st.booleans(),
    last_good_rate=finite,
    fresh_epoch=st.integers(min_value=-1, max_value=10_000),
    fresh_demand=finite, fresh_queue=finite, fresh_off=st.booleans(),
    idle_epochs=counts, gated=st.booleans())

intent_entries = st.builds(
    IntentEntry,
    rate_gbps=finite, epoch=counts, seq=counts, attempts=counts,
    next_retry_ns=finite, first_send_ns=finite)

decision_states = st.builds(
    DecisionState,
    groups=st.dictionaries(names, group_states, min_size=1, max_size=6),
    journal=st.dictionaries(names, intent_entries, max_size=6),
    decided_epoch=st.integers(min_value=-1, max_value=10_000),
    command_seq=counts, decisions_made=counts, stale_holds=counts,
    safe_floors=counts, fleet_floor_epochs=counts, retries=counts,
    retry_exhausted=counts, journal_evictions=counts, gate_offs=counts,
    wakes=counts, acks=counts)


class TestRoundTripProperty:
    @given(decision_states)
    @settings(max_examples=100, deadline=None)
    def test_state_survives_dict_round_trip(self, state):
        assert DecisionState.from_dict(state.to_dict()) == state

    @given(decision_states)
    @settings(max_examples=100, deadline=None)
    def test_state_survives_the_wire_bytes(self, state):
        # The full path a real checkpoint takes: state -> canonical
        # JSON bytes -> parsed payload -> state.
        payload = {"epoch": state.decided_epoch, "time_ns": 1.5e10,
                   "controller": state.to_dict()}
        restored = decode_checkpoint(encode_checkpoint(payload))
        assert restored == json.loads(json.dumps(payload))
        assert DecisionState.from_dict(restored["controller"]) == state

    @given(decision_states)
    @settings(max_examples=50, deadline=None)
    def test_encoding_is_canonical(self, state):
        # Same state, same bytes: what makes byte-comparison of
        # restored runs meaningful.
        payload = {"controller": state.to_dict()}
        assert encode_checkpoint(payload) == encode_checkpoint(
            {"controller": DecisionState.from_dict(
                state.to_dict()).to_dict()})

    @given(st.binary(max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_garbage_bytes_restore_as_no_checkpoint(self, raw):
        state = decode_checkpoint(raw)
        assert state is None or isinstance(state, dict)

    def test_foreign_schema_restores_as_no_checkpoint(self):
        raw = json.dumps({"schema": CHECKPOINT_SCHEMA_VERSION + 1,
                          "state": {"epoch": 3}}).encode()
        assert decode_checkpoint(raw) is None

    def test_torn_write_restores_as_no_checkpoint(self):
        raw = encode_checkpoint({"epoch": 3})
        assert decode_checkpoint(raw[:len(raw) // 2]) is None


class TestStores:
    def test_memory_store_round_trips(self):
        store = MemoryCheckpointStore()
        assert store.load() is None
        store.save({"epoch": 7, "x": [1.5, "a"]})
        assert store.load() == {"epoch": 7, "x": [1.5, "a"]}
        assert store.saves == 1

    def test_file_store_round_trips_atomically(self, tmp_path):
        store = FileCheckpointStore(tmp_path / "ckpt" / "svc.json")
        assert store.load() is None
        store.save({"epoch": 1})
        store.save({"epoch": 2})
        assert store.load() == {"epoch": 2}
        # Atomic replace: no temp file survives a completed save.
        assert [p.name for p in (tmp_path / "ckpt").iterdir()] \
            == ["svc.json"]

    def test_file_store_tolerates_torn_file(self, tmp_path):
        path = tmp_path / "svc.json"
        store = FileCheckpointStore(path)
        store.save({"epoch": 4})
        path.write_bytes(path.read_bytes()[:10])
        assert store.load() is None


# -- crash recovery --------------------------------------------------------

SMALL = ServiceConfig(groups=4, epochs=24, epochs_per_day=12,
                      strand_grace_epochs=4, seed=5)


def _run_uninterrupted(config):
    log = DecisionLog(max_records=None)
    service = ControlPlaneService(config, decision_log=log)
    summary = service.run()
    return summary, list(log.records), service.plant


class TestCrashRecovery:
    @pytest.mark.parametrize("kill_epoch", [6, 11, 17])
    def test_restored_run_is_byte_identical(self, kill_epoch):
        """Kill the service at an epoch boundary, restore a fresh
        process from the checkpoint over the surviving plant: it
        resumes within one epoch and every subsequent decision matches
        the uninterrupted run exactly."""
        _, reference, ref_plant = _run_uninterrupted(SMALL)

        store = MemoryCheckpointStore()
        first_log = DecisionLog(max_records=None)
        first = ControlPlaneService(
            dataclasses.replace(SMALL, epochs=kill_epoch),
            checkpoint_store=store, decision_log=first_log)
        first.run()

        second_log = DecisionLog(max_records=None)
        second = ControlPlaneService(
            SMALL, plant=first.plant, checkpoint_store=store,
            restore=True, decision_log=second_log)
        assert second.resumed is True
        # The last checkpoint covers the last decided epoch, so at
        # most one epoch of progress is ever lost.
        assert second.start_epoch >= kill_epoch - 1
        summary = second.run()
        assert summary.resumed is True
        assert summary.partitions == 0

        resumed = list(second_log.records)
        assert resumed
        tail = reference[-len(resumed):]
        assert [d.to_dict() for d in tail] \
            == [d.to_dict() for d in resumed]
        # And the fabric ends in exactly the state the uninterrupted
        # run leaves it in.
        assert first.plant.rates() == ref_plant.rates()

    def test_restore_with_empty_store_is_a_cold_start(self):
        service = ControlPlaneService(
            SMALL, checkpoint_store=MemoryCheckpointStore(),
            restore=True)
        assert service.resumed is False
        assert service.start_epoch == 0

    def test_checkpoints_are_taken_every_epoch(self):
        store = MemoryCheckpointStore()
        service = ControlPlaneService(SMALL, checkpoint_store=store)
        summary = service.run()
        assert summary.checkpoints == store.saves
        assert store.saves >= SMALL.epochs - 1
        stored = store.load()
        assert stored["epoch"] == SMALL.epochs - 1
        restored = DecisionState.from_dict(stored["controller"])
        assert restored == service.loop.state

    def test_fresh_state_round_trips(self):
        state = fresh_state(("a", "b"), 40.0)
        assert DecisionState.from_dict(state.to_dict()) == state


# -- fragment reuse --------------------------------------------------------

#: Values that compare one way and encode another (0.0 == -0.0,
#: 1 == 1.0 == True, NaN != NaN), None, and a string.
LOOK_ALIKES = (0.0, -0.0, 0, False, 1, 1.0, True, float("nan"),
               float("inf"), 2.5, None, "0")
FIELDS = ("believed_rate", "fresh_demand", "gated", "idle_epochs")
GROUP_NAMES = ("a", "b", "c", "d")

#: One step on a live checkpoint payload: set a field to a look-alike
#: (the same object each time) or to an equal but distinct copy of
#: one, drop a group, give it a fresh dict with the same values, grow
#: a list it holds in place, add or remove a key, churn the journal,
#: or save.
CHECKPOINT_STEPS = st.one_of(
    st.tuples(st.sampled_from(["set", "copy_value"]),
              st.sampled_from(GROUP_NAMES), st.sampled_from(FIELDS),
              st.integers(0, len(LOOK_ALIKES) - 1)),
    st.tuples(st.sampled_from(["drop", "new_dict", "grow_list",
                               "add_key", "del_key", "journal",
                               "unjournal"]),
              st.sampled_from(GROUP_NAMES)),
    st.just(("save",)))


def _distinct_copy(value):
    """An equal float that is not the same object (other values as is)."""
    if type(value) is float:
        return float(repr(value))
    return value


def _canonical(payload):
    return json.dumps({"schema": CHECKPOINT_SCHEMA_VERSION,
                       "state": payload}, sort_keys=True).encode("utf-8")


class TestFragmentReuse:
    """The stores reuse unchanged group fragments; every stored byte
    string must still be exactly the canonical encoding."""

    @given(steps=st.lists(CHECKPOINT_STEPS, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_every_save_stores_the_canonical_bytes(self, steps):
        groups = {}
        journal = {}
        memory = MemoryCheckpointStore()
        with tempfile.TemporaryDirectory() as tmp:
            disk = FileCheckpointStore(Path(tmp) / "svc.json")
            for n, (op, *args) in enumerate(steps + [("save",)]):
                if op == "save":
                    payload = {"epoch": n, "time_ns": n * 1e10,
                               "controller": {"acks": n, "groups": groups,
                                             "journal": dict(journal)}}
                    expected = _canonical(payload)
                    assert expected == encode_checkpoint(payload)
                    for store in (memory, disk):
                        store.save(payload)
                        raw = (store._raw if store is memory
                               else disk.path.read_bytes())
                        assert raw == expected
                        assert encode_checkpoint(store.load()) == raw
                    continue
                name = args[0]
                group = groups.setdefault(
                    name, {field: 0.0 for field in FIELDS})
                if op == "set":
                    group[args[1]] = LOOK_ALIKES[args[2]]
                elif op == "copy_value":
                    group[args[1]] = _distinct_copy(LOOK_ALIKES[args[2]])
                elif op == "drop":
                    del groups[name]
                elif op == "new_dict":
                    groups[name] = dict(group)
                elif op == "grow_list":
                    group.setdefault("history", []).append(len(steps))
                elif op == "add_key":
                    group["extra"] = 1.5
                elif op == "del_key":
                    group.pop("extra", None)
                elif op == "journal":
                    journal[name] = {"seq": n, "rate_gbps": 2.5}
                else:
                    journal.pop(name, None)

    def test_look_alike_values_re_encode(self):
        encoder = CheckpointEncoder()
        group = {"rate": 0.0}
        payload = {"controller": {"groups": {"g": group}}}
        for value in (0.0, -0.0, 0, False, 1, 1.0, True, float("nan"),
                      float("nan"), 0.0):
            group["rate"] = value
            assert encoder.encode(payload) == _canonical(payload)

    def test_payloads_off_the_groups_path_encode_whole(self):
        encoder = CheckpointEncoder()
        for payload in ({"epoch": 7, "x": [1.5, "a"]},
                        {"controller": 5},
                        {"controller": {"groups": {}}},
                        {"controller": {"groups": {1: {"a": 1}}}},
                        {"controller": {"groups": {"g": [1, {"a": 2}]}}},
                        # A value that encodes like the splice marker,
                        # sorted ahead of the groups it stands for.
                        {"controller": {"acks": "\x00checkpoint groups\x00",
                                        "groups": {"g": {"a": 1}}}}):
            assert encoder.encode(payload) == _canonical(payload)

    def test_service_run_saves_the_canonical_bytes(self):
        class CheckedStore(MemoryCheckpointStore):
            def save(self, state):
                super().save(state)
                assert self._raw == _canonical(state)

        store = CheckedStore()
        service = ControlPlaneService(
            dataclasses.replace(SMALL, groups=12), checkpoint_store=store)
        service.run()
        assert store.saves == service.checkpoints > 0
