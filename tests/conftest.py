"""The ``perfbench`` fixture: the benchmark's modules, imported from
``perfbench/`` without writing bytecode next to them, and removed from
``sys.modules`` afterwards."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    saved_path, saved_modules = list(sys.path), set(sys.modules)
    dont_write = sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        modules = {name: importlib.import_module(name)
                   for name in ("spans", "checks", "oracle", "corpora")}
        for mod in modules.values():
            assert Path(mod.__file__).parent == PERFBENCH
        yield modules
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = dont_write
        for name in set(sys.modules) - saved_modules:
            if Path(getattr(sys.modules[name], "__file__", None) or "").parent == PERFBENCH:
                del sys.modules[name]
