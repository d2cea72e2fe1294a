"""Every layer the benchmark traces is a module of the library.

bench/layers.py imports `sublap.<layer>` for each name in its LAYERS, so
deleting one of those modules breaks the benchmark.  This test reads LAYERS
from the file without importing the harness, and imports each module.
"""

import ast
import importlib
from pathlib import Path

import pytest

LAYERS_FILE = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def traced_layers() -> tuple[str, ...]:
    tree = ast.parse(LAYERS_FILE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {LAYERS_FILE}")


def test_layers_are_named():
    assert "montecarlo" in traced_layers()


@pytest.mark.parametrize("layer", traced_layers())
def test_traced_layer_imports(layer):
    importlib.import_module(f"sublap.{layer}")
