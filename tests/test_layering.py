"""The package's modules import downward only: every import of a sibling
module names one earlier in ``LAYERS``.  Outside the package they import
numpy and the standard library alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import somgmm

LAYERS = ["exceptions", "backend", "topology", "model", "somstep", "trainer",
          "sombridge", "inference", "io", "cli"]
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


def private_imports(path, module):
    """The underscore-prefixed names that the file imports from the package
    module ``module``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("somgmm"))
                and (node.module or "").removeprefix("somgmm").lstrip(".") == module):
            yield from (alias.name for alias in node.names if alias.name.startswith("_"))


def outside_imports(path):
    """Top-level names of the modules outside the package that the file
    imports."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]
        elif isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)


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


def test_the_som_step_imports_only_the_backend():
    # ``somstep._tied_pull`` reads a kernel's ``g`` and ``is_identity`` as
    # attributes, with no ``topology`` import.
    assert set(sibling_imports(PACKAGE / "somstep.py")) == {"backend"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_private_name_is_imported_from_the_trainer(path):
    assert list(private_imports(path, "trainer")) == []


def test_private_imports_are_found(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from .trainer import _tied_pull, run\nfrom somgmm.trainer import _x\n"
                    "from .somstep import _tied_pull\nfrom . import trainer\n")
    assert list(private_imports(path, "trainer")) == ["_tied_pull", "_x"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_only_numpy_outside_the_standard_library(path):
    for name in outside_imports(path):
        if name != "somgmm":
            assert name == "numpy" or name in sys.stdlib_module_names, \
                f"{path.stem} imports {name}"


def test_outside_imports_are_found(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from . import cli\nimport os.path, numpy as np\n"
                    "from scipy.special import logsumexp\nimport somgmm.trainer\n")
    assert list(outside_imports(path)) == ["os", "numpy", "scipy", "somgmm"]


def test_the_cli_imports_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import sys, somgmm.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
