"""The package namespace: each public name loads its submodule on first
access and is the very object that submodule defines."""
import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import sswilf


def test_each_name_is_the_submodule_object():
    for name in sswilf.__all__:
        module = import_module(f"sswilf.{sswilf._SOURCE[name]}")
        assert getattr(sswilf, name) is getattr(module, sswilf._RENAMED.get(name, name))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from sswilf import *", namespace)
    assert set(sswilf.__all__) <= set(namespace)
    assert len(sswilf.__all__) == 57  # every public function, class and constant


def test_kernel_backend():
    assert sswilf.KERNEL_BACKEND == "python"
    assert "KERNEL_BACKEND" in dir(sswilf)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sswilf.no_such_name
    assert not hasattr(sswilf, "cli_main")


def test_submodules_are_attributes():
    assert sswilf.shift is import_module("sswilf.shift")


def test_import_loads_no_submodule():
    code = "import sys, sswilf; print(sorted(m for m in sys.modules if 'sswilf' in m))"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(sswilf.__file__).parents[1])),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['sswilf']"


# names a module imports only so that another module can find them there
_KEPT_FOR_OTHERS = {("trapezoid", "validate_transition")}  # perfbench/tracing.py


def test_every_module_uses_what_it_imports():
    for path in sorted(Path(sswilf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        kept = {name for module, name in _KEPT_FOR_OTHERS if module == path.stem}
        assert imported - used - kept == set(), path.name
