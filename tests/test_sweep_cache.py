"""Property tests for the persistent run cache and its key function.

The cache key must be *stable* (same spec -> same key, regardless of
dict ordering, process, or hash randomization), *distinct* (specs
differing in any simulated field -> different keys), and *versioned*
(bumping the schema version invalidates every old entry).  The memo
layer must honour its LRU bound — the fix for ``cached_run``'s old
unbounded-by-contract memo.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import sweep as sweep_mod
from repro.experiments.cache import (
    CACHE_SCHEMA_VERSION,
    LRUCache,
    SweepCache,
    canonical_spec_json,
    spec_from_dict,
    spec_key,
    spec_to_dict,
    summary_digest,
    summary_from_dict,
    summary_to_dict,
)
from repro.experiments.runner import (
    CONTROL_NONE,
    SimulationSpec,
    cached_run,
    run_simulation,
)
from repro.experiments.sweep import SweepRunner, using_runner

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

TINY = SimulationSpec(k=2, n=2, duration_ns=50_000.0, control=CONTROL_NONE)


def spec_strategy() -> st.SearchStrategy:
    """Random-but-valid SimulationSpecs for the key properties."""
    return st.builds(
        SimulationSpec,
        k=st.integers(min_value=2, max_value=8),
        n=st.integers(min_value=2, max_value=4),
        workload=st.sampled_from(["uniform", "search", "advert"]),
        duration_ns=st.floats(min_value=1_000.0, max_value=1e7,
                              allow_nan=False, allow_infinity=False),
        seed=st.integers(min_value=0, max_value=2**31),
        control=st.sampled_from(["none", "epoch", "always_slowest"]),
        policy=st.sampled_from(["threshold", "hysteresis", "aggressive",
                                "predictive"]),
        target_utilization=st.floats(min_value=0.05, max_value=0.95,
                                     allow_nan=False),
        reactivation_ns=st.floats(min_value=10.0, max_value=1e6,
                                  allow_nan=False),
        epoch_ns=st.one_of(st.none(),
                           st.floats(min_value=100.0, max_value=1e6,
                                     allow_nan=False)),
        independent_channels=st.booleans(),
        uniform_offered_load=st.floats(min_value=0.01, max_value=1.0,
                                       allow_nan=False),
        concentration=st.one_of(st.none(),
                                st.integers(min_value=1, max_value=16)),
        message_bytes=st.one_of(st.none(),
                                st.integers(min_value=64, max_value=2**20)),
        inject_fraction=st.floats(min_value=0.1, max_value=1.0,
                                  allow_nan=False),
        routing=st.sampled_from([None, "dimension_order", "energy_aware"]),
        sensor=st.sampled_from([None, "queue_occupancy", "credit_stall",
                                "composite"]),
        fabric=st.sampled_from(["fbfly", "fat_tree"]),
        measures=st.sampled_from([None, ("link_pairs",), ("lane",),
                                  ("link_pairs", "media")]),
    )

#: The canonical JSON and key of ``SimulationSpec()`` before the
#: routing/sensor/fabric/measures fields existed: fields added later are
#: elided at their defaults, so no pre-existing cache entry or golden
#: moves.
DEFAULT_SPEC_JSON = (
    '{"concentration":null,"control":"epoch","duration_ns":2000000.0,'
    '"epoch_ns":null,"independent_channels":false,"inject_fraction":1.0,'
    '"k":4,"message_bytes":null,"n":3,"policy":"threshold",'
    '"reactivation_ns":1000.0,"seed":1,"target_utilization":0.5,'
    '"uniform_offered_load":0.25,"workload":"search"}')
DEFAULT_SPEC_KEY = (
    "6649c39514c355f90e4debd4b8e2a227c9e0a7dc6a538d7c59d3d519b5f8e936")

#: One non-default value per field the spec sweep gained for the
#: §3.2/§3.3 ablations and the §5.1/§5.2 proposals.
NEW_FIELD_VALUES = [
    ("routing", "dimension_order"), ("routing", "energy_aware"),
    ("sensor", "queue_occupancy"), ("sensor", "credit_stall"),
    ("sensor", "composite"), ("fabric", "fat_tree"),
    ("measures", ("link_pairs",)), ("measures", ("media",)),
    ("measures", ("lane",)), ("measures", ("topology_modes",)),
    ("measures", ("link_pairs", "media")),
]


class TestSpecKey:
    @given(spec_strategy())
    @settings(max_examples=100, deadline=None)
    def test_key_is_deterministic(self, spec):
        assert spec_key(spec) == spec_key(spec)
        assert spec_key(spec) == spec_key(replace(spec))

    @given(spec_strategy())
    @settings(max_examples=100, deadline=None)
    def test_key_independent_of_field_ordering(self, spec):
        # Round-tripping through a reversed-insertion-order dict must
        # not change the canonical encoding (and hence the key).
        shuffled = dict(reversed(list(spec_to_dict(spec).items())))
        assert spec_key(spec_from_dict(shuffled)) == spec_key(spec)
        assert json.loads(canonical_spec_json(spec)) == spec_to_dict(spec)

    @given(spec_strategy(), spec_strategy())
    @settings(max_examples=100, deadline=None)
    def test_distinct_specs_never_collide(self, a, b):
        if a != b:
            assert spec_key(a) != spec_key(b)
        else:
            assert spec_key(a) == spec_key(b)

    @given(spec_strategy())
    @settings(max_examples=25, deadline=None)
    def test_schema_bump_changes_every_key(self, spec):
        assert (spec_key(spec, schema_version=CACHE_SCHEMA_VERSION)
                != spec_key(spec, schema_version=CACHE_SCHEMA_VERSION + 1))

    def test_key_stable_across_processes_and_hash_seeds(self):
        spec = SimulationSpec(k=3, n=3, workload="advert", seed=42,
                              target_utilization=0.75)
        expected = spec_key(spec)
        code = (
            "from repro.experiments.cache import spec_key;"
            "from repro.experiments.runner import SimulationSpec;"
            "print(spec_key(SimulationSpec(k=3, n=3, workload='advert',"
            "seed=42, target_utilization=0.75)))"
        )
        for hash_seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=SRC_DIR)
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True).stdout.strip()
            assert out == expected


class TestNewSpecFields:
    def test_default_spec_encoding_is_unchanged(self):
        assert canonical_spec_json(SimulationSpec()) == DEFAULT_SPEC_JSON
        assert spec_key(SimulationSpec()) == DEFAULT_SPEC_KEY

    def test_every_non_default_value_gets_its_own_key(self):
        specs = [SimulationSpec()] + [
            replace(SimulationSpec(), **{name: value})
            for name, value in NEW_FIELD_VALUES]
        assert len({spec_key(spec) for spec in specs}) == len(specs)
        for spec in specs:
            assert spec_from_dict(json.loads(canonical_spec_json(spec))) \
                == spec

    @pytest.mark.parametrize("fields", [
        {"sensor": "composite", "control": CONTROL_NONE},
        {"sensor": "credit_stall", "control": "lane_aware"},
        {"sensor": "thermal"},
        {"routing": "energy_aware", "control": "demand_topo"},
        {"routing": "dimension_order", "control": "topology_mesh"},
        {"routing": "dimension_order", "faults": "chipkill"},
        {"routing": "valiant"},
        {"fabric": "fat_tree", "n": 2},
        {"fabric": "fat_tree", "routing": "energy_aware"},
        {"fabric": "fat_tree", "control": "dynamic_topology"},
        {"fabric": "torus"},
        {"measures": ("lane",)},
        {"measures": ("topology_modes",), "control": "lane_aware"},
        {"measures": ("media", "link_pairs")},
        {"measures": ("media", "media")},
        {"measures": ()},
        {"measures": ("wattage",)},
    ], ids=lambda fields: "-".join(f"{k}={v}" for k, v in fields.items()))
    def test_a_value_the_mode_cannot_honour_raises(self, fields):
        spec = replace(SimulationSpec(k=2, n=2, duration_ns=10_000.0),
                       **fields)
        with pytest.raises(ValueError):
            run_simulation(spec)


class TestSweepCache:
    def test_round_trip(self, tmp_path):
        cache = SweepCache(tmp_path)
        assert cache.get(TINY) is None
        summary = run_simulation(TINY)
        cache.put(TINY, summary)
        loaded = cache.get(TINY)
        assert loaded is not None
        assert summary_to_dict(loaded) == summary_to_dict(summary)
        assert len(cache) == 1

    def test_schema_bump_invalidates_old_entries(self, tmp_path):
        old = SweepCache(tmp_path, schema_version=CACHE_SCHEMA_VERSION)
        old.put(TINY, run_simulation(TINY))
        bumped = SweepCache(tmp_path,
                            schema_version=CACHE_SCHEMA_VERSION + 1)
        assert bumped.get(TINY) is None
        assert old.get(TINY) is not None

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put(TINY, run_simulation(TINY))
        cache.path_for(TINY).write_text("{not json")
        assert cache.get(TINY) is None

    def test_wrong_key_payload_reads_as_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put(TINY, run_simulation(TINY))
        other = replace(TINY, seed=999)
        # Copy TINY's entry under other's path: stored key won't match.
        cache.path_for(other).write_text(cache.path_for(TINY).read_text())
        assert cache.get(other) is None

    def test_clear_removes_entries(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put(TINY, run_simulation(TINY))
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.get(TINY) is None

    def test_summary_round_trip_preserves_none_rate_key(self):
        summary = run_simulation(TINY)
        summary.time_at_rate[None] = 0.125
        again = summary_from_dict(summary_to_dict(summary))
        assert again.time_at_rate[None] == 0.125
        assert summary_digest(again) == summary_digest(summary)


class TestLRUBound:
    def test_lru_cache_respects_bound(self):
        lru = LRUCache(maxsize=3)
        for i in range(5):
            lru.put(i, str(i))
        assert len(lru) == 3
        assert 0 not in lru and 1 not in lru
        assert lru.get(2) == "2"

    def test_lru_get_refreshes_recency(self):
        lru = LRUCache(maxsize=2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1     # refresh "a"; "b" is now LRU
        lru.put("c", 3)
        assert "b" not in lru
        assert lru.get("a") == 1 and lru.get("c") == 3

    def test_lru_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)

    def test_runner_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0, use_cache=False)
        with pytest.raises(ValueError):
            SweepRunner(jobs=-3, use_cache=False)

    def test_cache_rejects_non_directory_path(self, tmp_path):
        clash = tmp_path / "a-file"
        clash.write_text("")
        with pytest.raises(ValueError):
            SweepCache(clash)

    def test_runner_memo_respects_bound(self, monkeypatch):
        executed = []

        def fake_execute(spec):
            executed.append(spec)
            return run_simulation(TINY)

        monkeypatch.setattr(sweep_mod, "_execute_spec", fake_execute)
        runner = SweepRunner(jobs=1, use_cache=False, memo_size=2)
        specs = [replace(TINY, seed=s) for s in range(4)]
        for spec in specs:
            runner.run_one(spec)
        assert len(runner.memo) == 2
        # The two most recent stay memoized; the eldest re-executes.
        before = len(executed)
        runner.run_one(specs[-1])
        assert len(executed) == before
        runner.run_one(specs[0])
        assert len(executed) == before + 1

    def test_cached_run_routes_through_bounded_memo(self, monkeypatch):
        executed = []

        def fake_execute(spec):
            executed.append(spec)
            return run_simulation(TINY)

        monkeypatch.setattr(sweep_mod, "_execute_spec", fake_execute)
        runner = SweepRunner(jobs=1, use_cache=False, memo_size=2)
        with using_runner(runner):
            specs = [replace(TINY, seed=100 + s) for s in range(3)]
            for spec in specs:
                cached_run(spec)
            assert len(runner.memo) == 2
            # A memoized spec returns the identical object, free.
            assert cached_run(specs[-1]) is cached_run(specs[-1])
        assert len(executed) == 3


class TestRunnerCacheInterplay:
    def test_disk_hits_and_memo_hits_are_counted(self, tmp_path):
        runner = SweepRunner(jobs=1, cache=SweepCache(tmp_path))
        runner.run([TINY])
        assert runner.last_stats.executed == 1
        runner.run([TINY])           # memo hit
        assert runner.last_stats.memo_hits == 1
        fresh = SweepRunner(jobs=1, cache=SweepCache(tmp_path))
        fresh.run([TINY])            # cold memo, warm disk
        assert fresh.last_stats.cache_hits == 1
        assert fresh.last_stats.executed == 0

    def test_duplicates_deduplicated_before_execution(self, tmp_path):
        runner = SweepRunner(jobs=1, cache=SweepCache(tmp_path))
        results = runner.run([TINY, TINY, replace(TINY, seed=5), TINY])
        assert runner.last_stats.submitted == 4
        assert runner.last_stats.unique == 2
        assert runner.last_stats.executed == 2
        assert set(results) == {TINY, replace(TINY, seed=5)}

    def test_no_cache_runner_never_touches_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "unused"))
        runner = SweepRunner(jobs=1, use_cache=False)
        runner.run([TINY])
        assert not (tmp_path / "unused").exists()

    def test_warm_sweep_fires_nothing_and_matches_cold(self, tmp_path):
        specs = [SimulationSpec(k=2, n=2, duration_ns=200_000.0, seed=seed)
                 for seed in range(1, 5)]
        cold_runner = SweepRunner(jobs=1, cache=SweepCache(tmp_path))
        cold = cold_runner.run(specs)
        stats = cold_runner.last_stats
        assert (stats.executed, stats.cache_hits) == (len(specs), 0)
        assert set(cold) == set(specs)
        assert stats.events_fired > 0
        warm_runner = SweepRunner(jobs=1, cache=SweepCache(tmp_path))
        warm = warm_runner.run(specs)
        stats = warm_runner.last_stats
        assert (stats.executed, stats.cache_hits) == (0, len(specs))
        assert set(warm) == set(specs)
        # Everything comes from disk: no engine event fires.
        assert stats.events_fired == 0
        for spec in specs:
            assert summary_digest(warm[spec]) == summary_digest(cold[spec])


class TestCorruptionQuarantine:
    """A torn cache entry is moved aside, warned about, and re-runnable."""

    def _corrupt_dir(self, tmp_path):
        return Path(tmp_path) / "corrupt"

    def test_invalid_json_is_quarantined_with_warning(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put(TINY, run_simulation(TINY))
        entry = cache.path_for(TINY)
        entry.write_text("{truncated by a crash")
        with pytest.warns(RuntimeWarning, match="invalid JSON"):
            assert cache.get(TINY) is None
        assert not entry.exists()
        assert (self._corrupt_dir(tmp_path) / entry.name).exists()

    def test_key_mismatch_is_quarantined(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put(TINY, run_simulation(TINY))
        other = replace(TINY, seed=999)
        cache.path_for(other).write_text(cache.path_for(TINY).read_text())
        with pytest.warns(RuntimeWarning, match="key mismatch"):
            assert cache.get(other) is None
        assert (self._corrupt_dir(tmp_path)
                / cache.path_for(other).name).exists()

    def test_undecodable_summary_is_quarantined(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put(TINY, run_simulation(TINY))
        entry = cache.path_for(TINY)
        payload = json.loads(entry.read_text())
        payload["summary"] = {"nonsense": True}
        entry.write_text(json.dumps(payload))
        with pytest.warns(RuntimeWarning, match="does not decode"):
            assert cache.get(TINY) is None
        assert (self._corrupt_dir(tmp_path) / entry.name).exists()

    def test_schema_version_mismatch_is_a_plain_miss(self, tmp_path):
        # Old-schema entries are normal, not corruption: no warning,
        # no quarantine, the entry stays where it was.
        old = SweepCache(tmp_path, schema_version=CACHE_SCHEMA_VERSION)
        old.put(TINY, run_simulation(TINY))
        bumped = SweepCache(tmp_path,
                            schema_version=CACHE_SCHEMA_VERSION + 1)
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert bumped.get(TINY) is None
        assert old.path_for(TINY).exists()
        assert not self._corrupt_dir(tmp_path).exists()

    def test_quarantined_spec_reruns_and_recaches(self, tmp_path):
        # End to end: corruption costs one re-simulation, nothing else.
        cache = SweepCache(tmp_path)
        runner = SweepRunner(jobs=1, cache=cache)
        first = runner.run([TINY])[TINY]
        cache.path_for(TINY).write_text("garbage")
        with pytest.warns(RuntimeWarning):
            again = SweepRunner(jobs=1, cache=cache).run([TINY])[TINY]
        assert summary_digest(again) == summary_digest(first)
        # The re-run repopulated the entry; a third sweep is a pure hit.
        third = SweepRunner(jobs=1, cache=cache)
        third.run([TINY])
        assert third.last_stats.cache_hits == 1
