"""The ``perfbench`` fixture: the benchmark's modules, imported from
``perfbench/`` without writing bytecode next to them, and removed from
``sys.modules`` afterwards; and ``tree_report_corpora``, the
``tree-report`` corpora of seeds 1 and 2, built once per session."""

import contextlib
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@contextlib.contextmanager
def _perfbench_modules():
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


@pytest.fixture(scope="module")
def perfbench():
    with _perfbench_modules() as modules:
        yield modules


@pytest.fixture(scope="session")
def tree_report_corpora():
    """Seed -> the ``tree-report`` corpus, a list of tree JSON objects,
    which its users must not change: each build expands every tree's
    characteristic polynomial for the corpus's cost model, 2 to 3 s."""
    with _perfbench_modules() as modules:
        return {seed: modules["corpora"].tree_report_corpus(seed) for seed in (1, 2)}
