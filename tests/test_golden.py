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
``x^2*y^2 - x^5 - y^5 + x^3*y^3`` with ``--oracle`` is the golden case
whose graph sum has an edge between divisors of proportional
``(N, nu)``: the stratum term over the square of one factor.
``1/2*y^4 - 3/4*x^3*y^2 + 5/3*x^7`` is the polynomial case with rational
coefficients: its face polynomials ``(1/2, -3/4)`` and ``(-3/4, 0, 5/3)``
clear to ``(2, -3)`` and ``(-9, 0, 20)`` before the squarefree check.
`` 1/3 y ^ 3 + 2 x^4y - x ^ 7 `` pins the parser's grammar: whitespace
between tokens and at both ends, an implicit product, an ``a/b``
coefficient, and the ``expr`` echoed as it was typed.
A change that means to keep the output must leave them as they are.
Every text report is also ``render_report`` of its JSON report, the
``fuzz`` case aside, which prints no report.

``python tests/test_golden.py``, run with ``src`` on ``PYTHONPATH``,
compares every case with its file without pytest: it prints a unified
diff of each difference and exits 1 if there is one, 0 if there is none.
With ``--write`` it regenerates the files instead, for a change that
means to change the output and shows the difference.
"""

import argparse
import contextlib
import difflib
import io
import json
import sys
from pathlib import Path

from topzeta.cli import EXIT_OK, main, render_report

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
    "double-pole-oracle": ["poly", "x^2*y^2 - x^5 - y^5 + x^3*y^3", "--oracle"],
    "smooth-face": ["poly", "x*y^2 - x^4 - y^3 + x^3*y", "--oracle"],
    "fermat12": ["poly", "x^12 + y^12"],
    "stride-division": ["poly", "y^3 - x^10"],
    "deep-face-oracle": ["poly", "y^3 - x^1001", "--oracle"],
    "fuzz-seed7": ["fuzz", "--count", "20", "--seed", "7"],
    "puiseux-467-oracle": ["tree", str(TREES / "puiseux_4_6_7.json"), "--oracle"],
    "rational-faces": ["poly", "1/2*y^4 - 3/4*x^3*y^2 + 5/3*x^7"],
    "spaced-poly": ["poly", " 1/3 y ^ 3 + 2 x^4y - x ^ 7 "],
}
REPORTS = [name for name, argv in CASES.items() if argv[0] != "fuzz"]


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def golden_path(name, as_json):
    return GOLDEN / (f"{name}.json.out" if as_json else f"{name}.out")


def rendered_from_json(name):
    """The text report of ``name`` rendered from its golden JSON report."""
    return render_report(json.loads(golden_path(name, True).read_text(encoding="utf-8")))


def pytest_generate_tests(metafunc):
    # parametrized here rather than by decorator, so that the check mode
    # below runs without pytest
    if "as_json" in metafunc.fixturenames:
        metafunc.parametrize("name", sorted(CASES))
        metafunc.parametrize("as_json", [False, True], ids=["text", "json"])
    else:
        metafunc.parametrize("name", sorted(REPORTS))


def test_report_matches_golden(name, as_json):
    argv = CASES[name] + (["--json"] if as_json else [])
    code, out = run_cli(argv)
    assert code == EXIT_OK
    assert out == golden_path(name, as_json).read_text(encoding="utf-8")


def test_text_report_renders_from_the_json_report(name):
    assert rendered_from_json(name) == golden_path(name, False).read_text(encoding="utf-8")


def check(write=False) -> int:
    """Compare every case with its file, or write the files, then every
    text report with the rendering of its JSON report; 1 if a case
    differs or exits with an error, else 0."""
    status = 0
    for name, argv in CASES.items():
        for as_json in (False, True):
            code, out = run_cli(argv + (["--json"] if as_json else []))
            path = golden_path(name, as_json)
            if code != EXIT_OK:
                print(f"{name}{' --json' if as_json else ''}: exit code {code}")
                status = 1
            elif write:
                path.write_text(out, encoding="utf-8")
            else:
                old = path.read_text(encoding="utf-8") if path.exists() else ""
                if out != old:
                    sys.stdout.writelines(difflib.unified_diff(
                        old.splitlines(keepends=True), out.splitlines(keepends=True),
                        str(path), f"{path} (now)"))
                    status = 1
    for name in REPORTS:
        path = golden_path(name, False)
        text, rendered = path.read_text(encoding="utf-8"), rendered_from_json(name)
        if rendered != text:
            sys.stdout.writelines(difflib.unified_diff(
                text.splitlines(keepends=True), rendered.splitlines(keepends=True),
                str(path), f"{path} (rendered from JSON)"))
            status = 1
    return status


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Compare the golden reports, or write them.")
    parser.add_argument("--write", action="store_true", help="regenerate every golden file")
    sys.exit(check(parser.parse_args().write))
