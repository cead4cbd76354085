"""The benchmark's hooks into topzeta: every function it traces or records
exists, and its fuzz checks pass.

``perfbench/spans.py`` rebinds, by name, each function that ``TRACED``
lists for a topzeta module, and ``perfbench/checks.py`` records the calls
that ``FUZZ_RECORDED`` names on ``topzeta.cli``.  Deleting one of those
functions would break ``perfbench/run.py --trace 1`` or the fuzz value
checks only when the benchmark runs, and so would a change to what
``check_instance`` returns or computes; these tests see it first.  The
files are imported without writing bytecode next to them.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from topzeta import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CUSP = {"faces": [{"a": 2, "b": 3, "classes": ["leaf"]}]}
THREE_LEVEL = json.loads(
    (Path(__file__).resolve().parent / "golden" / "trees" / "three_level.json").read_text())


@pytest.fixture(scope="module")
def perfbench():
    saved_path, saved_modules = list(sys.path), set(sys.modules)
    dont_write = sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        modules = {name: importlib.import_module(name) for name in ("spans", "checks", "oracle")}
        for mod in modules.values():
            assert Path(mod.__file__).parent == PERFBENCH
        yield modules
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = dont_write
        for name in set(sys.modules) - saved_modules:
            if Path(getattr(sys.modules[name], "__file__", None) or "").parent == PERFBENCH:
                del sys.modules[name]


def test_every_traced_function_exists(perfbench):
    missing = [f"topzeta.{module}.{name}"
               for module, functions in perfbench["spans"].TRACED.items()
               for name in functions
               if not callable(getattr(importlib.import_module(f"topzeta.{module}"), name, None))]
    assert missing == []


def test_every_recorded_fuzz_function_exists(perfbench):
    missing = [name for name in perfbench["checks"].FUZZ_RECORDED
               if not callable(getattr(cli, name, None))]
    assert missing == []


@pytest.mark.parametrize("tree", [CUSP, THREE_LEVEL], ids=["cusp", "three_level"])
def test_fuzz_checks_of_the_benchmark_pass(perfbench, tree):
    checks, spans, oracle = perfbench["checks"], perfbench["spans"], perfbench["oracle"]
    spec = cli.tree_from_json(tree)
    assert checks.check_fuzz(cli.check_instance(spec, ray_seed=1)) == []
    with spans.recording(cli, checks.FUZZ_RECORDED) as calls:
        cli.check_instance(spec, ray_seed=1)
    assert checks.check_fuzz_values(calls, oracle.tree_graph(tree)) == []


def test_benchmark_selftest_passes():
    # the self-test replaces fields of recorded zeta results with
    # dataclasses.replace and reads their scale, num and den
    done = subprocess.run([sys.executable, "-B", "perfbench/selftest.py"],
                          cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
