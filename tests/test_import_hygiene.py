"""Import discipline: a simulation never loads numpy or asyncio.

Every sweep worker, CLI call and benchmark repeat is a fresh
interpreter, so each pays for whatever its imports pull in before the
first event.  numpy (about 14 MB) belongs only to the functions that
build arrays, and asyncio (about 8 MB with the ``ssl`` it loads) only
to a constructed service.  Each case runs in a fresh interpreter,
because this test process has long since imported both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

#: The modules the end-to-end benchmark's workloads import, plus the CLI.
ENTRY_MODULES = (
    "repro",
    "repro.experiments.runner",
    "repro.experiments.cache",
    "repro.faults.control_faults",
    "repro.obs.session",
    "repro.service.service",
    "repro.sim.invariants",
    "repro.cli",
)

#: Modules a simulation must not load.
HEAVY = ("numpy", "asyncio")

REPORT = ("import json, sys; print(json.dumps("
          "{name: name in sys.modules for name in %r}))" % (HEAVY,))


def run_fresh(code: str, importtime: bool = False):
    """Run ``code`` in a fresh interpreter; returns (loaded, stderr)."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    argv = [sys.executable] + (["-X", "importtime"] if importtime else [])
    proc = subprocess.run(argv + ["-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def import_chain(importtime: str, module: str) -> List[str]:
    """The ``-X importtime`` lines from ``module`` up to the top-level
    import that pulled it in.

    The report lists a module after everything it imported, indented
    two spaces deeper than its importer, so the importers of a line are
    the later lines at each shallower depth.
    """
    lines = [line for line in importtime.splitlines()
             if line.startswith("import time:")]

    def depth(line: str) -> int:
        name = line.rsplit("|", 1)[1]
        return len(name) - len(name.lstrip())

    chain: List[str] = []
    for line in lines:
        if chain:
            if depth(line) < depth(chain[-1]):
                chain.append(line)
        elif line.rsplit("|", 1)[1].strip() == module:
            chain.append(line)
    return chain


class TestSimulationImports:
    def test_simulation_loads_neither_numpy_nor_asyncio(self):
        code = "\n".join(
            [f"import {name}" for name in ENTRY_MODULES] + [
                "from repro.experiments.runner import SimulationSpec, "
                "run_simulation",
                "summary = run_simulation(SimulationSpec(",
                "    k=2, n=2, workload='uniform', duration_ns=20_000.0))",
                "assert summary.events_fired > 0",
                REPORT,
            ])
        loaded, importtime = run_fresh(code, importtime=True)
        culprits: Dict[str, List[str]] = {
            name: import_chain(importtime, name)
            for name in HEAVY if loaded[name]}
        assert not culprits, "\n".join(
            f"{name} was loaded by:\n" + "\n".join(chain)
            for name, chain in culprits.items())

    def test_import_chain_names_the_importers(self):
        importtime = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:        1 |          1 |       numpy.core",
            "import time:        2 |          3 |     numpy",
            "import time:        1 |          1 |     json",
            "import time:        4 |          8 |   repro.stats",
            "import time:        1 |          9 | repro",
        ])
        chain = import_chain(importtime, "numpy")
        assert [line.rsplit("|", 1)[1].strip() for line in chain] == [
            "numpy", "repro.stats", "repro"]
        assert import_chain(importtime, "asyncio") == []


class TestLoadedWhenUsed:
    def test_constructing_a_service_loads_asyncio(self):
        code = "\n".join([
            "import sys",
            "from repro.service.service import ControlPlaneService, "
            "ServiceConfig",
            "assert 'asyncio' not in sys.modules",
            "service = ControlPlaneService(ServiceConfig(groups=2, "
            "epochs=2))",
            "assert 'asyncio' in sys.modules",
            "summary = service.run()",
            "assert summary.epochs == 2 and summary.decisions == 4, "
            "summary",
            REPORT,
        ])
        loaded, _ = run_fresh(code)
        assert loaded["asyncio"]

    def test_utilization_series_loads_numpy(self):
        code = "\n".join([
            "import sys",
            "from repro.workloads import TraceEvent, utilization_series",
            "assert 'numpy' not in sys.modules",
            "events = [TraceEvent(0.0, 0, 1, 500), "
            "TraceEvent(15.0, 1, 0, 1000),",
            "          TraceEvent(25.0, 0, 1, 250), "
            "TraceEvent(39.0, 1, 0, 750)]",
            "series = utilization_series(events, 40.0, 10.0, 40.0, 2)",
            "assert type(series).__name__ == 'ndarray', type(series)",
            "assert series.dtype == 'float64', series.dtype",
            "assert series.tolist() == [5.0, 10.0, 2.5, 7.5], series",
            REPORT,
        ])
        loaded, _ = run_fresh(code)
        assert loaded["numpy"]
