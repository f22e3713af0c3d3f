"""The benchmark under `perfbench/` imports public names of the package; a
change that deletes or renames one breaks the benchmark, so every name it
imports from `yona` or a `yona.*` module must still resolve."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _imports():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.module == "yona"
                    or node.module.startswith("yona.")):
                for alias in node.names:
                    yield path.name, node.module, alias.name


IMPORTS = list(_imports())


def test_perfbench_imports_from_yona():
    modules = {module for _, module, _ in IMPORTS}
    assert {"yona", "yona.image"} <= modules


@pytest.mark.parametrize("module, name", [(m, n) for _, m, n in IMPORTS],
                         ids=[f"{w}:{m}.{n}" for w, m, n in IMPORTS])
def test_perfbench_import_resolves(module, name):
    # as `from module import name` does: an attribute, else a submodule
    if not hasattr(importlib.import_module(module), name):
        importlib.import_module(f"{module}.{name}")
