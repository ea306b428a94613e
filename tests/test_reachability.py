"""Every module under ``src/repro`` earns its place: something reaches it.

A module is reachable when a chain of imports leads to it from an entry
point someone runs: the CLI (``python -m repro``), the end-to-end
benchmark (``e2ebench/``) or an example (``examples/``).  A module no
entry point reaches must be on :data:`ALLOWED`, which names the
documentation line that cites it.

Imports count wherever they sit: module top, function body or registry
builder.  ``from package import Name`` follows the package's lazy
export table (:func:`repro._lazy.lazy_exports`) to the module that
defines ``Name``, and the CLI's deferred experiment imports are read
from ``repro.cli.EXPERIMENTS``.  An export table alone reaches nothing:
listing a name does not use it.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, Optional, Set

from repro.cli import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Modules no entry point reaches, kept because the paper map cites
#: them: module -> (document, line number).
ALLOWED = {
    "repro.core.local_controller": ("docs/PAPER_MAP.md", 43),
    "repro.power.capex": ("docs/PAPER_MAP.md", 28),
}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


MODULES: Dict[str, Path] = {
    _module_name(path): path for path in (SRC / "repro").rglob("*.py")}
PACKAGES = {name for name, path in MODULES.items()
            if path.name == "__init__.py"}


def _lazy_table(package: str) -> Dict[str, str]:
    """``name -> defining module`` from a package's ``lazy_exports``."""
    table: Dict[str, str] = {}
    for node in ast.walk(ast.parse(MODULES[package].read_text())):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "lazy_exports"):
            exports = node.args[1]
            for key, names in zip(exports.keys, exports.values):
                module = key.value
                if module.startswith("."):
                    module = package + module
                for name in names.elts:
                    table[name.value] = module
    return table


LAZY = {package: _lazy_table(package) for package in PACKAGES}


def _resolve(module: str, name: str) -> Optional[str]:
    """The module ``from module import name`` loads, if any."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    return LAZY.get(module, {}).get(name)


def _imports(path: Path, package: Optional[str]) -> Iterator[str]:
    """Every ``repro`` module the source at ``path`` imports."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names
                        if alias.name in MODULES)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            if base not in MODULES:
                continue
            yield base
            for alias in node.names:
                target = _resolve(base, alias.name)
                if target is not None:
                    yield target


def _reached() -> Set[str]:
    """Modules reachable from the CLI, ``e2ebench/`` and ``examples/``."""
    frontier = ["repro.__main__", "repro.cli"]
    frontier += [run.__module__ for _, _, run in EXPERIMENTS.values()]
    for directory in ("e2ebench", "examples"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            frontier.extend(_imports(path, None))
    reached: Set[str] = set()
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        package = module if module in PACKAGES else module.rpartition(".")[0]
        frontier.extend(_imports(MODULES[module], package))
        # Importing a module runs every enclosing package's __init__.
        parts = module.split(".")
        frontier.extend(".".join(parts[:i]) for i in range(1, len(parts)))
    return reached


def test_every_module_is_reachable():
    reached = _reached()
    orphans = sorted(name for name in MODULES
                     if name not in PACKAGES and name not in reached
                     and name not in ALLOWED)
    assert orphans == [], (
        f"no entry point reaches {orphans}: give each a caller, delete "
        "it, or add it to ALLOWED with the doc line that cites it")


def test_allowed_modules_are_cited_and_otherwise_unreached():
    reached = _reached()
    for module, (document, line) in ALLOWED.items():
        assert module in MODULES
        assert module not in reached, f"{module} no longer needs ALLOWED"
        text = (ROOT / document).read_text().splitlines()[line - 1]
        assert module in text, f"{document}:{line} does not cite {module}"
