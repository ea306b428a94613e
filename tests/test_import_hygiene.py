"""Import discipline: a run loads only the modules it uses.

Every sweep worker, CLI call and benchmark repeat is a fresh
interpreter, so each pays for whatever its imports pull in before the
first event.  asyncio (about 8 MB with the ``ssl`` it loads) belongs
only to a constructed service.  A package loads nothing until one of
its names is used, a control-mode registry imports its implementation
on the first build, and the CLI imports only the command it runs.  Each
case runs in a fresh interpreter, because this test process has long
since imported everything.  And no module imports a name it never
uses: an AST scan of ``src/repro`` and ``tests`` stands in for a
linter.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

REPO_DIR = Path(__file__).resolve().parents[1]
SRC_DIR = str(REPO_DIR / "src")

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

#: Modules a simulation must not load (the first is a guard: no module
#: of the package imports it).
HEAVY = ("numpy", "asyncio")

#: Every package whose ``__init__`` exports names lazily.
PACKAGES = (
    "repro", "repro.sim", "repro.core", "repro.power", "repro.topology",
    "repro.workloads", "repro.service", "repro.obs", "repro.routing",
    "repro.experiments", "repro.faults", "repro.predict", "repro.topo",
)

#: Modules an epoch-control fabric run does not use, so must not load.
UNUSED_BY_EPOCH_RUN = (
    "repro.predict",
    "repro.topo",
    "repro.faults.policy",
    "repro.faults.scenario",
    "repro.power.cluster",
    "repro.topology.folded_clos",
    "repro.sim.clos_network",
    "repro.workloads.synthetic_traces",
    "repro.routing.dimension_order",
    "repro.routing.energy_aware",
    "repro.routing.fat_tree",
    "repro.topology.fat_tree",
    "repro.core.lane_controller",
    "repro.core.dynamic_topology",
)


def report(names) -> str:
    """Code printing, as the last line, which of ``names`` are loaded."""
    return ("import json, sys; print(json.dumps("
            "{name: name in sys.modules for name in %r}))" % (tuple(names),))


REPORT = report(HEAVY)


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
            "import time:        1 |          1 |       asyncio.events",
            "import time:        2 |          3 |     asyncio",
            "import time:        1 |          1 |     json",
            "import time:        4 |          8 |   repro.stats",
            "import time:        1 |          9 | repro",
        ])
        chain = import_chain(importtime, "asyncio")
        assert [line.rsplit("|", 1)[1].strip() for line in chain] == [
            "asyncio", "repro.stats", "repro"]
        assert import_chain(importtime, "ssl") == []


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

    def test_utilization_series_is_a_plain_list(self):
        code = "\n".join([
            "from repro.workloads import TraceEvent, utilization_series",
            "events = [TraceEvent(0.0, 0, 1, 500), "
            "TraceEvent(15.0, 1, 0, 1000),",
            "          TraceEvent(25.0, 0, 1, 250), "
            "TraceEvent(39.0, 1, 0, 750)]",
            "series = utilization_series(events, 40.0, 10.0, 40.0, 2)",
            "assert series == [5.0, 10.0, 2.5, 7.5], series",
            REPORT,
        ])
        loaded, _ = run_fresh(code)
        assert not any(loaded.values()), loaded


def loaded_repro_modules() -> str:
    """Code printing, as the last line, every loaded ``repro`` module."""
    return ("import json, sys; print(json.dumps(sorted("
            "name for name in sys.modules if name.startswith('repro'))))")


class TestLazyPackages:
    def test_import_repro_loads_only_the_export_helper(self):
        loaded, _ = run_fresh("import repro\n" + loaded_repro_modules())
        assert loaded == ["repro", "repro._lazy"]

    def test_every_exported_name_resolves_and_is_listed(self):
        code = "\n".join([
            "import importlib, json",
            "problems = []",
            f"for package in {PACKAGES!r}:",
            "    module = importlib.import_module(package)",
            "    listed = dir(module)",
            "    for name in module.__all__:",
            "        if name not in listed:",
            "            problems.append(f'{package}.{name} not in dir()')",
            "        try:",
            "            getattr(module, name)",
            "        except Exception as exc:",
            "            problems.append(f'{package}.{name}: {exc!r}')",
            "print(json.dumps(problems))",
        ])
        problems, _ = run_fresh(code)
        assert problems == []

    def test_star_imports(self):
        code = "\n".join([
            "from repro import *",
            "from repro.sim import *",
            "import json, repro, repro.sim",
            "names = {**globals()}",
            "print(json.dumps([name for name in repro.__all__ "
            "+ repro.sim.__all__ if names.get(name) is None]))",
        ])
        missing, _ = run_fresh(code)
        assert missing == []

    def test_names_and_subpackages_resolve_on_attribute_access(self):
        code = "\n".join([
            "import json, repro",
            "from repro.sim.channel import Channel",
            "from repro.sim.network import FbflyNetwork",
            "print(json.dumps([repro.sim.Channel is Channel,",
            "                  repro.FbflyNetwork is FbflyNetwork,",
            "                  'FbflyNetwork' in vars(repro)]))",
        ])
        checks, _ = run_fresh(code)
        assert checks == [True, True, True]

    def test_unknown_attribute_raises_attribute_error(self):
        code = "\n".join([
            "import json, repro, repro.sim",
            "messages = []",
            "for package, name in ((repro, 'no_such_name'),",
            "                      (repro.sim, 'NoSuchClass'),",
            "                      (repro, '__no_such_dunder__')):",
            "    try:",
            "        getattr(package, name)",
            "    except AttributeError as exc:",
            "        messages.append(str(exc))",
            "print(json.dumps(messages))",
        ])
        messages, _ = run_fresh(code)
        assert messages == [
            "module 'repro' has no attribute 'no_such_name'",
            "module 'repro.sim' has no attribute 'NoSuchClass'",
            "module 'repro' has no attribute '__no_such_dunder__'",
        ]

    def test_epoch_run_loads_no_unused_subsystem(self):
        code = "\n".join(
            [f"import {name}" for name in ENTRY_MODULES] + [
                "from repro.experiments.runner import SimulationSpec, "
                "run_simulation",
                "summary = run_simulation(SimulationSpec(",
                "    k=2, n=2, workload='uniform', control='epoch',",
                "    duration_ns=20_000.0))",
                "assert summary.events_fired > 0",
                report(UNUSED_BY_EPOCH_RUN),
            ])
        loaded, importtime = run_fresh(code, importtime=True)
        culprits = {name: import_chain(importtime, name)
                    for name in UNUSED_BY_EPOCH_RUN if loaded[name]}
        assert not culprits, "\n".join(
            f"{name} was loaded by:\n" + "\n".join(chain)
            for name, chain in culprits.items())


class TestRegistriesBuildOnFirstUse:
    def test_registration_imports_no_controller(self):
        code = "\n".join([
            "import repro.faults, repro.predict, repro.topo",
            "from repro.core.registry import control_mode_registered",
            "assert all(control_mode_registered(mode) for mode in (",
            "    'fault_gated', 'fault_pinned', 'predict', 'oracle',",
            "    'demand_topo', 'degraded_topo'))",
            report(["repro.faults.policy", "repro.faults.scenario",
                    "repro.faults.sensors", "repro.predict.controller",
                    "repro.predict.forecasters", "repro.topo.controller"]),
        ])
        loaded, _ = run_fresh(code)
        assert not any(loaded.values()), loaded

    def test_controllers_build_from_a_fresh_interpreter(self):
        code = "\n".join([
            "import json",
            "from repro.experiments.runner import SimulationSpec, "
            "run_simulation",
            "names = {}",
            "for control in ('fault_gated', 'predict', 'demand_topo'):",
            "    summary = run_simulation(SimulationSpec(",
            "        k=2, n=2, workload='uniform', control=control,",
            "        duration_ns=20_000.0))",
            "    names[control] = sorted(summary.decision_counts)",
            "print(json.dumps(names))",
        ])
        reasons, _ = run_fresh(code)
        assert sorted(reasons) == ["demand_topo", "fault_gated", "predict"]
        assert all(reasons.values()), reasons


class TestCliImportsTheChosenCommand:
    def test_parser_loads_no_simulator_and_no_experiment(self):
        code = "\n".join([
            "from repro.cli import build_parser",
            "build_parser()",
            loaded_repro_modules(),
        ])
        loaded, _ = run_fresh(code)
        assert [name for name in loaded
                if name.startswith("repro.sim")
                or (name.startswith("repro.experiments.")
                    and name != "repro.experiments.scale")] == []

    def test_analytic_command_loads_only_its_experiment(self):
        code = "\n".join([
            "import contextlib, io",
            "from repro.cli import main",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert main(['table1']) == 0",
            loaded_repro_modules(),
        ])
        loaded, _ = run_fresh(code)
        experiments = [name for name in loaded
                       if name.startswith("repro.experiments.")]
        assert experiments == ["repro.experiments.report",
                               "repro.experiments.scale",
                               "repro.experiments.table1"]
        assert not any(name.startswith("repro.sim") for name in loaded)


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` for each name ``source`` imports and never uses:
    not as a name, in a string annotation or in ``__all__``.  Imports
    from ``__future__`` and those marked ``# noqa: F401`` (loaded for
    their side effects) are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: Dict[str, int] = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if (getattr(node, "module", None) == "__future__"
                    or "# noqa: F401" in lines[node.lineno - 1]):
                continue
            for alias in node.names:
                imported.setdefault(
                    alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and "__all__" in {
                getattr(target, "id", None) for target in node.targets}:
            used.update(leaf.value for leaf in ast.walk(node.value)
                        if isinstance(leaf, ast.Constant))
        annotation = (node.annotation if isinstance(node, (ast.arg,
                                                           ast.AnnAssign))
                      else getattr(node, "returns", None))
        for leaf in ast.walk(annotation) if annotation else ():
            if isinstance(leaf, ast.Constant) and isinstance(leaf.value,
                                                             str):
                used.update(name.id for name in ast.walk(
                    ast.parse(leaf.value, mode="eval"))
                    if isinstance(name, ast.Name))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


class TestEveryImportIsUsed:
    def test_the_scan_reads_names_annotations_and_all(self):
        source = "\n".join([
            "from __future__ import annotations",
            "import os.path",
            "import sys  # noqa: F401",
            "from typing import Dict, List, Tuple",
            "from json import dumps as to_json, loads",
            "__all__ = ['loads']",
            "def f(x: 'Dict[str, int]') -> List[int]:",
            "    return os.path.join(x)",
        ])
        assert unused_imports(source) == [(4, "Tuple"), (5, "to_json")]

    @pytest.mark.parametrize("root", ["src/repro", "tests"])
    def test_no_module_imports_a_name_it_never_uses(self, root):
        # Package __init__s export lazily, so they are not scanned.
        unused = [f"{path.relative_to(REPO_DIR)}:{line}: {name}"
                  for path in sorted((REPO_DIR / root).rglob("*.py"))
                  if path.name != "__init__.py"
                  for line, name in unused_imports(path.read_text())]
        assert unused == []
