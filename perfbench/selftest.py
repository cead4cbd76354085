"""Self-tests of the benchmark's output checks.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Every check must pass on genuine reports of topzeta and reject a report
corrupted in the field it reads.  The genuine reports come from the
topzeta in `src/`; the corruptions are edits of their text.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import corpora  # noqa: E402
from oracle import poly_graph, tree_graph  # noqa: E402
from spans import recording  # noqa: E402
from topzeta import cli  # noqa: E402

WORK = ROOT / ".perfbench-out" / "selftest"

# a branch with Puiseux pairs (2, 3), (2, 7) and a second branch: two
# bamboos, poles of order one, expanded characteristic polynomial
TREE = {"faces": [{"a": 2, "b": 3, "classes": [
    {"faces": [{"a": 2, "b": 7, "classes": ["leaf"]}]}, "leaf"]}]}
POLY = next(p for p in corpora.poly_wide_corpus(3) if len(p[2]) > 2)     # a product


def _report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue()


def tree_report(tree, *flags):
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / "tree.json"
    path.write_text(json.dumps(tree), encoding="utf-8")
    return _report(["tree", str(path), *flags])


def poly_case():
    expr, faces, support = POLY
    return _report(["poly", expr]), poly_graph(faces, support), faces, support


def _edit(text, pattern, repl):
    """``text`` with the first match of ``pattern`` replaced; the pattern must match."""
    new, n = re.subn(pattern, repl, text, count=1, flags=re.M)
    assert n == 1, pattern
    return new


def _fails(check, text, graph):
    return check(checks.parse_report(text), graph)


def test_genuine_reports_pass():
    assert checks.check_report(tree_report(TREE), tree_graph(TREE)) == []
    assert checks.check_report(tree_report(TREE, "--oracle"), tree_graph(TREE), oracle=True) == []
    chain = corpora.nested_chain(12, {0, 3, 4, 9})
    assert checks.check_report(tree_report(chain, "--oracle"), tree_graph(chain), oracle=True) == []
    text, graph, faces, support = poly_case()
    assert checks.check_report(text, graph, faces=faces, support=support) == []


def test_zeta_checks_reject_a_changed_coefficient():
    text, graph = tree_report(TREE), tree_graph(TREE)
    # the numerator's constant term sits before the first ") /"
    bad = _edit(text, r"^(zeta: .*?)(\d+)\) /", lambda m: f"{m[1]}{int(m[2]) + 1}) /")
    assert _fails(checks.check_zeta_at_zero, bad, graph)
    assert _fails(checks.check_stratified_sum, bad, graph)


def test_stratified_sum_rejects_a_changed_denominator():
    text, graph = tree_report(TREE), tree_graph(TREE)
    bad = _edit(text, r"^(zeta: .*\(s \+ )1\)", r"\g<1>2)")
    assert _fails(checks.check_stratified_sum, bad, graph)


def test_pole_check_rejects_a_dropped_pole():
    text, graph = tree_report(TREE), tree_graph(TREE)
    bad = _edit(text, r"^poles:\n  \S+  order .*\n", "poles:\n")
    assert _fails(checks.check_poles, bad, graph)


def test_pole_check_rejects_a_pole_of_no_divisor():
    text, graph = tree_report(TREE), tree_graph(TREE)
    bad = _edit(text, r"^(poles:\n  )-1  ", r"\g<1>-1/2  ")
    assert _fails(checks.check_poles, bad, graph)


def test_eigenvalue_check_rejects_a_changed_multiplicity_or_verdict():
    text, graph = tree_report(TREE), tree_graph(TREE)
    bad = _edit(text, r"multiplicity (\d+)", lambda m: f"multiplicity {int(m[1]) + 1}")
    assert _fails(checks.check_eigenvalues, bad, graph)
    bad = _edit(text, r"^conjecture: holds", "conjecture: fails")
    assert _fails(checks.check_eigenvalues, bad, graph)


def test_monodromy_check_rejects_a_changed_exponent():
    text, graph = tree_report(TREE), tree_graph(TREE)
    bad = _edit(text, r"^(monodromy zeta: .*\(1 - t\^\d+\))$", r"\g<1>^2")
    assert _fails(checks.check_monodromy, bad, graph)


def test_charpoly_check_rejects_a_wrong_mu_or_coefficient():
    text, graph = tree_report(TREE), tree_graph(TREE)
    bad = _edit(text, r"^milnor number: (\d+)", lambda m: f"milnor number: {int(m[1]) + 1}")
    assert _fails(checks.check_charpoly, bad, graph)
    line = re.search(r"^char poly H1: (.*)$", text, re.M)[1]
    coeffs = checks.parse_poly_str(line, "t")
    assert len(coeffs) > 3, "the tree must have an expanded characteristic polynomial"
    bad = _edit(text, r"^(char poly H1: \S+ [-+] )(\d+\*)?t", lambda m: f"{m[1]}7*t")
    assert _fails(checks.check_charpoly, bad, graph)


def test_charpoly_check_rejects_changed_factors():
    chain = corpora.nested_chain(12, {0, 3, 4, 9})
    text, graph = tree_report(chain, "--oracle"), tree_graph(chain)
    assert re.search(r"^char poly H1: \(1 - t\)", text, re.M), "expected the factored form"
    bad = _edit(text, r"^(char poly H1: \(1 - t\))", r"\g<1>^2")
    assert _fails(checks.check_charpoly, bad, graph)


def test_poly_checks_reject_wrong_faces_or_mu():
    text, graph, faces, support = poly_case()
    bad = _edit(text, r"^(faces \(a, b, r\): \[\[\d+, \d+, )(\d+)", lambda m: f"{m[1]}{int(m[2]) + 1}")
    assert checks.check_report(bad, graph, faces=faces, support=support)
    bad = _edit(text, r"^milnor number: (\d+)", lambda m: f"milnor number: {int(m[1]) - 1}")
    assert any("Kouchnirenko" in p for p in checks.check_report(bad, graph, faces=faces, support=support))


def test_oracle_line_is_required():
    text = tree_report(TREE, "--oracle")
    bad = _edit(text, r"^oracle: equal", "oracle: zeta closed form differs from the graph sum")
    assert checks.check_report(bad, tree_graph(TREE), oracle=True)


def test_unreadable_report_is_rejected():
    text = tree_report(TREE)
    assert checks.check_report(text.replace("milnor number", "milnor"), tree_graph(TREE))


def test_fuzz_check_rejects_false_or_missing_verdicts():
    verdicts = cli.check_instance(cli.tree_from_json(TREE), ray_seed=1)
    assert checks.check_fuzz(verdicts) == []
    assert checks.check_fuzz({**verdicts, "conjecture": False})
    assert checks.check_fuzz({k: v for k, v in verdicts.items() if k != "pole_containment"})


def _recorded_calls(tree):
    with recording(cli, checks.FUZZ_RECORDED) as calls:
        cli.check_instance(cli.tree_from_json(tree), ray_seed=1)
    return calls


def _replace_result(calls, name, change):
    """``calls`` with the result of the first call to ``name`` changed."""
    i = next(k for k, c in enumerate(calls) if c[0] == name)
    return calls[:i] + [(name, calls[i][1], change(calls[i][2]))] + calls[i + 1:]


def test_fuzz_values_reject_a_changed_zeta_or_monodromy():
    calls, graph = _recorded_calls(TREE), tree_graph(TREE)
    assert checks.check_fuzz_values(calls, graph) == []
    bump = lambda z: dataclasses.replace(z, num=(z.num[0] + 1, *z.num[1:]))  # noqa: E731
    for name in ("zeta_general", "definitional_zeta"):
        assert checks.check_fuzz_values(_replace_result(calls, name, bump), graph)
    square = lambda m: m * m  # noqa: E731
    for name in ("monodromy_zeta", "acampo_from_graph"):
        assert checks.check_fuzz_values(_replace_result(calls, name, square), graph)


def test_fuzz_values_reject_a_skipped_or_unrefined_oracle():
    calls, graph = _recorded_calls(TREE), tree_graph(TREE)
    definitional = [c for c in calls if c[0] == "definitional_zeta"]
    assert checks.check_fuzz_values([c for c in calls if c is not definitional[1]], graph)
    reused = [definitional[0] if c is definitional[1] else c for c in calls]
    assert checks.check_fuzz_values(reused, graph)


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print(f"ok    {name}")
            except Exception as exc:
                failed += 1
                print(f"FAIL  {name}: {exc}")
    sys.exit(1 if failed else 0)
