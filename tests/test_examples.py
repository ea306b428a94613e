"""Example scripts: syntax, imports and structure.

CI runs every example end to end; the suite verifies they compile,
import only public API that exists, expose a ``main()`` and simulate
only through ``SimulationSpec`` — the cheap 90% of "the examples are
not rotten".
"""

import ast
import importlib
import pathlib
import py_compile

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    assert len(EXAMPLE_FILES) >= 3, "deliverable requires >= 3 examples"


@pytest.mark.parametrize("path", EXAMPLE_FILES,
                         ids=[p.stem for p in EXAMPLE_FILES])
class TestExampleStructure:
    def test_compiles(self, path, tmp_path):
        py_compile.compile(str(path),
                           cfile=str(tmp_path / "out.pyc"), doraise=True)

    def test_has_module_docstring(self, path):
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path.name} lacks a docstring"

    def test_defines_main_guard(self, path):
        source = path.read_text()
        assert "def main(" in source
        assert '__name__ == "__main__"' in source

    def test_imports_resolve(self, path):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith("repro"):
                    module = importlib.import_module(node.module)
                    for alias in node.names:
                        assert hasattr(module, alias.name), (
                            f"{path.name} imports {alias.name} from "
                            f"{node.module}, which does not exist")

    def test_simulates_only_through_specs(self, path):
        # A spec is the one way to run a simulation (run_simulation or
        # sweep); an example never wires a network up by hand.
        source = path.read_text()
        imported = {alias.name for node in ast.walk(ast.parse(source))
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        assert "FbflyNetwork" not in imported, path.name
        assert ".run(until_ns=" not in source, path.name
