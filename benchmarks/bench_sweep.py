"""Sweep harness overhead: cold execution vs warm persistent cache.

The figure benchmarks (`bench_figure7/8/9.py`) now route through the
sweep harness implicitly; this file benchmarks the harness itself on a
batch of small runs, demonstrating the executed-vs-cache-hit accounting
and the warm-cache fast path that makes figure re-runs near-instant.

Besides the pytest-benchmark timings, this module writes a
``BENCH_sweep.json`` trajectory artifact (into ``$REPRO_BENCH_DIR`` or
the working directory) — provenance-stamped cold/warm sweep counters CI
can archive run-over-run.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import write_bench_artifact

from repro.experiments.cache import SweepCache, summary_digest
from repro.experiments.runner import SimulationSpec
from repro.experiments.sweep import SweepRunner

#: Four seeds of one small k=2 n=2 run.
SPECS = [replace(SimulationSpec(k=2, n=2, duration_ns=200_000.0),
                 seed=seed) for seed in range(1, 5)]

#: Phase name -> SweepStats dict, accumulated across the benchmarks
#: below and dumped once at module teardown.
_trajectory = {}


@pytest.fixture(scope="module", autouse=True)
def bench_sweep_artifact():
    """Write the BENCH_sweep.json trajectory artifact at teardown."""
    yield
    write_bench_artifact("BENCH_sweep.json", "sweep", {
        "specs": len(SPECS),
        "phases": _trajectory,
    })


def _sweep(warm):
    """One sweep over :data:`SPECS` against a fresh cache (filled first
    when ``warm``); returns ``(results, stats)``."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        cache = SweepCache(Path(tmp) / "cache")
        if warm:
            SweepRunner(jobs=1, cache=cache).run(SPECS)
        runner = SweepRunner(jobs=1, cache=cache)
        results = runner.run(SPECS)
    return results, runner.last_stats


def test_sweep_cold(benchmark):
    results, stats = benchmark.pedantic(_sweep, args=(False,), rounds=3,
                                        iterations=1, warmup_rounds=0)
    print("\n[sweep cold] executed=%d cache_hits=%d" %
          (stats.executed, stats.cache_hits))
    _trajectory["cold"] = stats.to_dict()

    assert stats.executed == len(SPECS)
    assert stats.cache_hits == 0
    assert set(results) == set(SPECS)
    assert stats.events_fired > 0


def test_sweep_warm_cache(benchmark):
    results, stats = benchmark.pedantic(_sweep, args=(True,), rounds=3,
                                        iterations=1, warmup_rounds=0)
    print("\n[sweep warm] executed=%d cache_hits=%d" %
          (stats.executed, stats.cache_hits))
    _trajectory["warm"] = stats.to_dict()

    assert stats.executed == 0
    assert stats.cache_hits == len(SPECS)
    assert set(results) == set(SPECS)
    # Warm runs fire no engine events — everything comes from disk.
    assert stats.events_fired == 0


def test_sweep_warm_matches_cold(tmp_path):
    cache_dir = tmp_path / "cache"
    cold = SweepRunner(jobs=1, cache=SweepCache(cache_dir)).run(SPECS)
    warm = SweepRunner(jobs=1, cache=SweepCache(cache_dir)).run(SPECS)
    for spec in SPECS:
        assert summary_digest(warm[spec]) == summary_digest(cold[spec])
