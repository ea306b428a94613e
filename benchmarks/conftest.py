"""Benchmark harness configuration.

Each ``bench_*.py`` file regenerates one table or figure of the paper
(plus ablations), wrapped in pytest-benchmark so the cost of every
experiment is tracked run-over-run.  The figure and table files run the
experiment exactly as ``python -m repro <name>`` does, through
:func:`run_experiment`; the engine, sweep, predict and service files
time their own small workloads.

Scale comes from ``REPRO_SCALE`` (small | medium | paper), as everywhere
else.  Results print with ``pytest benchmarks/ --benchmark-only``.
End-to-end timing with per-layer shares lives in ``e2ebench/``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.cli import EXPERIMENTS
from repro.experiments.scale import current_scale
from repro.experiments.sweep import SweepRunner, using_runner
from repro.obs.runrecord import collect_provenance


@pytest.fixture(scope="session")
def scale():
    return current_scale()


def run_experiment(benchmark, name, scale=None):
    """Benchmark one experiment of ``repro.cli.EXPERIMENTS``; returns
    its result.

    Every round runs under a fresh sweep runner with the cache off, so
    it always times live simulation, never a cache hit.  The runner
    always has one worker, so there is no worker-count argument and
    timings stay comparable run over run.  Analytic experiments get one
    warmup and three rounds; simulated ones get one round.
    """
    _, needs_scale, run_fn = EXPERIMENTS[name]
    if scale is None:
        scale = current_scale()

    def execute():
        with using_runner(SweepRunner(jobs=1, use_cache=False)):
            return run_fn(scale=scale) if needs_scale else run_fn()

    return benchmark.pedantic(execute, rounds=1 if needs_scale else 3,
                              iterations=1,
                              warmup_rounds=0 if needs_scale else 1)


def write_bench_artifact(filename: str, benchmark: str,
                         payload: Dict[str, Any]) -> None:
    """Write a provenance-stamped ``BENCH_*.json`` artifact into
    ``$REPRO_BENCH_DIR`` (or the working directory)."""
    directory = Path(os.environ.get("REPRO_BENCH_DIR", "."))
    directory.mkdir(parents=True, exist_ok=True)
    doc = {"benchmark": benchmark, "provenance": collect_provenance(),
           **payload}
    (directory / filename).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
