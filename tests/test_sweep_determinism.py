"""Determinism across execution boundaries: the sweep's hard contract.

Results now cross process boundaries (worker pools) and session
boundaries (the persistent cache), so the same
:class:`~repro.experiments.runner.SimulationSpec` must produce an
*identical* summary dict whether it runs in-process, in a subprocess
worker, or is loaded back from a cold cache — and regardless of
``PYTHONHASHSEED``.  ``wall_seconds`` (host timing, not simulation
output) is the only field excluded, which is exactly what
:func:`~repro.experiments.cache.summary_digest` drops.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.registry import DYNAMIC_TOPOLOGY_MODES
from repro.experiments.cache import (
    SweepCache,
    spec_to_dict,
    summary_digest,
    summary_to_dict,
)
from repro.experiments.runner import SimulationSpec, run_simulation
from repro.experiments.sweep import SweepRunner, sweep, using_runner

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

#: Small enough to run in a couple hundred ms, big enough to exercise
#: the epoch controller, rate changes and both trace workload styles.
SPEC = SimulationSpec(k=2, n=2, duration_ns=200_000.0)
SPEC_B = replace(SPEC, workload="advert", seed=3)

#: A loaded 2-ary 3-flat: two dimensions, so routing has choices.
AXIS_BASE = SimulationSpec(k=2, n=3, workload="uniform",
                           uniform_offered_load=0.5, duration_ns=200_000.0)

#: One spec per field and per control mode the spec sweep gained for the
#: §3.2/§3.3 ablations and the §5.1/§5.2 proposals.  The topology modes
#: need k >= 4 for express links to exist.
NEW_AXIS_SPECS = {
    "routing": replace(AXIS_BASE, routing="energy_aware"),
    "sensor": replace(AXIS_BASE, independent_channels=True,
                      sensor="composite"),
    "fabric": SimulationSpec(k=4, n=3, fabric="fat_tree",
                             duration_ns=100_000.0),
    "measures": replace(AXIS_BASE, control="none",
                        measures=("link_pairs", "media")),
    "lane_aware": replace(AXIS_BASE, control="lane_aware",
                          measures=("lane",)),
    **{mode: SimulationSpec(k=4, n=2, workload="uniform",
                            uniform_offered_load=0.3,
                            duration_ns=300_000.0, control=mode,
                            measures=("topology_modes",))
       for mode in DYNAMIC_TOPOLOGY_MODES},
}


def _canonical(summary) -> str:
    return json.dumps(summary_digest(summary), sort_keys=True)


@pytest.fixture(scope="module")
def new_axis_paths(tmp_path_factory):
    """Each new-axis spec's canonical digest along four paths: in
    process, in a pool worker, loaded back from a cold cache, and in a
    fresh interpreter under another ``PYTHONHASHSEED``."""
    specs = list(NEW_AXIS_SPECS.values())
    in_process = {spec: _canonical(run_simulation(spec)) for spec in specs}
    pooled = SweepRunner(jobs=2, use_cache=False).run(specs)
    directory = tmp_path_factory.mktemp("new-axis-cache")
    for spec, summary in pooled.items():
        SweepCache(directory).put(spec, summary)
    cold = {spec: _canonical(SweepCache(directory).get(spec))
            for spec in specs}
    code = (
        "import json, sys;"
        "from repro.experiments.cache import spec_from_dict, summary_digest;"
        "from repro.experiments.runner import run_simulation;"
        "print(json.dumps([json.dumps(summary_digest(run_simulation("
        "spec_from_dict(d))), sort_keys=True)"
        " for d in json.load(sys.stdin)]))"
    )
    env = dict(os.environ, PYTHONHASHSEED="987654321", PYTHONPATH=SRC_DIR)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
        input=json.dumps([spec_to_dict(spec) for spec in specs])).stdout
    hashed = dict(zip(specs, json.loads(out)))
    return {spec: (in_process[spec], _canonical(pooled[spec]), cold[spec],
                   hashed[spec]) for spec in specs}


class TestExecutionBoundaries:
    def test_subprocess_worker_matches_in_process(self):
        in_process = summary_digest(run_simulation(SPEC))
        runner = SweepRunner(jobs=2, use_cache=False)
        # Two misses + jobs=2 forces the ProcessPoolExecutor path.
        results = runner.run([SPEC, SPEC_B])
        assert runner.last_stats.executed == 2
        assert summary_digest(results[SPEC]) == in_process
        assert (summary_digest(results[SPEC_B])
                == summary_digest(run_simulation(SPEC_B)))

    def test_cold_cache_load_matches_live_run(self, tmp_path):
        live = run_simulation(SPEC)
        writer = SweepCache(tmp_path)
        writer.put(SPEC, live)
        # A brand-new cache instance (fresh session stand-in): the
        # JSON round-trip must be bit-exact, not merely approximate.
        reader = SweepCache(tmp_path)
        loaded = reader.get(SPEC)
        assert loaded is not None
        assert summary_digest(loaded) == summary_digest(live)
        assert loaded.spec == SPEC

    def test_all_three_paths_agree(self, tmp_path):
        in_process = summary_digest(run_simulation(SPEC))
        pooled = SweepRunner(jobs=2, use_cache=False).run([SPEC, SPEC_B])
        warm = SweepCache(tmp_path)
        warm.put(SPEC, pooled[SPEC])
        from_disk = SweepCache(tmp_path).get(SPEC)
        assert summary_digest(pooled[SPEC]) == in_process
        assert summary_digest(from_disk) == in_process

    def test_repeat_runs_serialize_to_identical_bytes(self):
        # Byte-level, not just value-level: two independent executions
        # of one spec must serialize to the same JSON document.
        first = json.dumps(summary_digest(run_simulation(SPEC)),
                           sort_keys=True)
        second = json.dumps(summary_digest(run_simulation(SPEC)),
                            sort_keys=True)
        assert first == second

    def test_hash_randomization_does_not_leak_into_results(self):
        expected = json.dumps(summary_digest(run_simulation(SPEC)),
                              sort_keys=True)
        code = (
            "import json;"
            "from repro.experiments.cache import summary_digest;"
            "from repro.experiments.runner import SimulationSpec,"
            " run_simulation;"
            "spec = SimulationSpec(k=2, n=2, duration_ns=200_000.0);"
            "print(json.dumps(summary_digest(run_simulation(spec)),"
            " sort_keys=True))"
        )
        for hash_seed in ("1", "987654321"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=SRC_DIR)
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True).stdout.strip()
            assert out == expected, f"drift under PYTHONHASHSEED={hash_seed}"


class TestNewAxes:
    @pytest.mark.parametrize("axis", sorted(NEW_AXIS_SPECS))
    def test_every_execution_path_agrees(self, axis, new_axis_paths):
        in_process, pooled, cold, hashed = new_axis_paths[
            NEW_AXIS_SPECS[axis]]
        assert pooled == in_process
        assert cold == in_process
        assert hashed == in_process, f"drift under PYTHONHASHSEED ({axis})"

    def test_new_axes_take_effect(self, new_axis_paths):
        # Each new value must change the run it names, or it would be a
        # second name for the same simulation.
        runs = {axis: json.loads(paths[0]) for axis, paths in zip(
            NEW_AXIS_SPECS, new_axis_paths.values())}
        plain = summary_digest(run_simulation(AXIS_BASE))
        independent = summary_digest(run_simulation(
            replace(AXIS_BASE, independent_channels=True)))
        for axis, twin in (("routing", plain), ("sensor", independent),
                           ("lane_aware", plain)):
            assert runs[axis]["events_fired"] != twin["events_fired"], axis
        modes = {runs[mode]["measures"]["topology_modes"]["power_true_off"]
                 for mode in DYNAMIC_TOPOLOGY_MODES}
        assert len(modes) > 1


class TestSweepEquivalence:
    def test_sweep_matches_serial_execution(self, tmp_path):
        specs = [SPEC, SPEC_B, replace(SPEC, control="none")]
        serial = {spec: summary_digest(run_simulation(spec))
                  for spec in specs}
        runner = SweepRunner(jobs=2, cache=SweepCache(tmp_path))
        with using_runner(runner):
            swept = sweep(specs)
        assert {s: summary_digest(r) for s, r in swept.items()} == serial

    def test_warm_cache_reproduces_cold_results(self, tmp_path):
        cold_runner = SweepRunner(jobs=1, cache=SweepCache(tmp_path))
        cold = cold_runner.run([SPEC, SPEC_B])
        warm_runner = SweepRunner(jobs=1, cache=SweepCache(tmp_path))
        warm = warm_runner.run([SPEC, SPEC_B])
        assert warm_runner.last_stats.executed == 0
        assert warm_runner.last_stats.cache_hits == 2
        for spec in (SPEC, SPEC_B):
            assert summary_digest(warm[spec]) == summary_digest(cold[spec])

    def test_summary_dict_includes_wall_but_digest_excludes_it(self):
        summary = run_simulation(SPEC)
        assert "wall_seconds" in summary_to_dict(summary)
        assert "wall_seconds" not in summary_digest(summary)
