"""The unified benchmark suite as a pytest bridge.

Runs the quick scenario subset through :mod:`repro.obs.benchsuite` —
exactly what ``repro perf run --quick`` and the CI smoke job execute —
validates the resulting document against the suite schema, and writes
it as a ``BENCH_suite.json`` artifact.  The artifact goes into
``$REPRO_BENCH_DIR`` when that is set (CI archives it from there) and
into pytest's per-test temporary directory otherwise, never over the
committed ``BENCH_suite.json`` baseline: a plain ``make bench`` from the
repository root must not replace that full-suite document with a
quick-only one.
"""

import os
from pathlib import Path

from conftest import run_once

from repro.obs import benchsuite


def test_quick_suite(benchmark, tmp_path):
    doc = run_once(benchmark, benchsuite.run_suite, quick=True)

    assert benchsuite.validate_suite(doc) == []
    quick = [name for name in benchsuite.registered_scenarios()
             if benchsuite.get_scenario(name).quick]
    assert sorted(doc["scenarios"]) == quick
    for entry in doc["scenarios"].values():
        assert entry["median_seconds"] > 0.0
        assert len(entry["repeat_seconds"]) == entry["repeats"]

    out_dir = Path(os.environ.get(benchsuite.ARTIFACT_DIR_ENV) or tmp_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    benchsuite.write_suite(doc, out_dir / "BENCH_suite.json")
