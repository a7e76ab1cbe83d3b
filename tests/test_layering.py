"""The package's modules import downward only: every import of a sibling
module names one earlier in ``LAYERS``."""

import ast
from pathlib import Path

import pytest

import somgmm

LAYERS = ["exceptions", "backend", "topology", "model", "trainer", "sombridge",
          "inference", "io", "cli"]
# Entry points and the tracer's placeholder sit above every layer.
ENTRY = {"__init__", "__main__", "_core_py"}
PACKAGE = Path(somgmm.__file__).parent


def sibling_imports(path):
    """Names of the package modules that the file imports."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("somgmm"):
                continue
            module = (node.module or "").removeprefix("somgmm").lstrip(".")
            if module:
                yield module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("somgmm."):
                    yield alias.name.split(".")[1]


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} - ENTRY == set(LAYERS)


@pytest.mark.parametrize("name", LAYERS)
def test_imports_only_earlier_layers(name):
    earlier = LAYERS[:LAYERS.index(name)]
    for target in sibling_imports(PACKAGE / f"{name}.py"):
        assert target in earlier, f"{name} imports {target}, not an earlier layer"


def test_an_upward_import_is_found(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from . import cli, model as mc\nfrom .io import x\n"
                    "import somgmm.trainer\nfrom somgmm.sombridge import y\nimport numpy\n")
    assert list(sibling_imports(path)) == ["cli", "model", "io", "trainer", "sombridge"]
