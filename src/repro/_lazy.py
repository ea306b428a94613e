"""Lazy package exports (PEP 562).

Every fresh interpreter — a sweep worker, a CLI call, a benchmark
repeat — pays for the modules it imports before its first event.  A
package ``__init__`` therefore names its public API without importing
it: :func:`lazy_exports` gives the package a module ``__getattr__``
that imports the defining submodule the first time one of its names is
used, and a ``__dir__`` that lists the names either way::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".engine": ("Simulator", "Event"),
        "repro.workloads.base": ("TraceEvent",),
    })

A resolved name is stored in the package namespace, so later lookups
never reach ``__getattr__``.  A name the map does not export but that
names a submodule (``repro.sim`` on ``repro``) is imported as one.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(package: str, exports: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps a module (relative to ``package`` when it starts
    with a dot) to the names the package re-exports from it.
    """
    where = {name: module for module, names in exports.items()
             for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            submodule = f"{package}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
