"""Golden reports: the CLI output, text and ``--json``, byte for byte.

The files under ``tests/golden/`` pin the exact output of a few inputs
that exercise every part of a report: the cusp, a three-level tree (also
with ``--oracle``), nested (2, 3) chains of depth 5 and 20 whose
canonical numerators have large coefficients, a
polynomial whose candidate pole cancels, one with a double pole, one
with a smooth ``(1, 1)`` face, and two whose characteristic polynomial
is expanded at a stride > 1: ``x^12 + y^12``, all on multiples of 12
until ``(1 - t)`` runs last, and ``y^3 - x^10``, which divides at stride
3 before ``(1 - t)``; ``y^3 - x^1001`` with ``--oracle``, one face
whose graph sum runs over 337 divisors; ``fuzz --count 20 --seed 7``,
which pins the random tree generator and the hash of each tree it makes;
and, with ``--oracle``, the branch ``y = x^(3/2) + x^(7/4)`` of Puiseux
characteristic (4; 6, 7), whose second Newton pair, in the chart of the
first toric modification, is ``(2, 1)``.
A change that means to keep the output must leave them as they are; one
that means to change it regenerates them with
``PYTHONPATH=src python tests/test_golden.py`` and shows the difference.
"""

import contextlib
import io
from pathlib import Path

import pytest

from topzeta.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
TREES = GOLDEN / "trees"

CASES = {
    "cusp": ["tree", str(TREES / "cusp.json")],
    "three-level": ["tree", str(TREES / "three_level.json")],
    "three-level-oracle": ["tree", str(TREES / "three_level.json"), "--oracle"],
    "chain5-oracle": ["tree", str(TREES / "chain5.json"), "--oracle"],
    "chain20-oracle": ["tree", str(TREES / "chain20.json"), "--oracle"],
    "cancelled-candidate": ["poly", "y^3 - x^3*y - x^2*y^2 + x^5"],
    "double-pole": ["poly", "x^2*y^2 - x^5 - y^5 + x^3*y^3"],
    "smooth-face": ["poly", "x*y^2 - x^4 - y^3 + x^3*y", "--oracle"],
    "fermat12": ["poly", "x^12 + y^12"],
    "stride-division": ["poly", "y^3 - x^10"],
    "deep-face-oracle": ["poly", "y^3 - x^1001", "--oracle"],
    "fuzz-seed7": ["fuzz", "--count", "20", "--seed", "7"],
    "puiseux-467-oracle": ["tree", str(TREES / "puiseux_4_6_7.json"), "--oracle"],
}


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def golden_path(name, as_json):
    return GOLDEN / (f"{name}.json.out" if as_json else f"{name}.out")


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, as_json):
    argv = CASES[name] + (["--json"] if as_json else [])
    code, out = run_cli(argv)
    assert code == EXIT_OK
    assert out == golden_path(name, as_json).read_text(encoding="utf-8")


if __name__ == "__main__":
    for name, argv in CASES.items():
        for as_json in (False, True):
            code, out = run_cli(argv + (["--json"] if as_json else []))
            assert code == EXIT_OK, (name, code)
            golden_path(name, as_json).write_text(out, encoding="utf-8")
