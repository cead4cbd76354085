import dataclasses
import gc
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from face_specs import random_face_specs
from topzeta import cli, equitree, newton, zeta
from topzeta.cli import (EXIT_DEGENERATE, EXIT_INCONSISTENT, EXIT_INVALID,
                         EXIT_OK, EXIT_USAGE, analyze_poly,
                         analyze_tree, check_instance, main, random_tree,
                         render_report, tree_hash)
from topzeta.equitree import (Bamboo, Face, LEAF, annotate, tree_from_json,
                              validate)
from topzeta.monodromy import CycloProduct
from topzeta.resolution import build_graph, definitional_zeta
from topzeta.zeta import zeta_general

CUSP_JSON = {"faces": [{"a": 2, "b": 3, "classes": ["leaf"]}]}
THREE_LEVEL_PATH = Path(__file__).parent / "golden" / "trees" / "three_level.json"
CHAIN20_PATH = THREE_LEVEL_PATH.with_name("chain20.json")


@pytest.fixture
def cusp_file(tmp_path):
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(CUSP_JSON))
    return str(path)


def test_tree_command_ok(cusp_file, capsys):
    assert main(["tree", cusp_file, "--oracle"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "zeta: (4*s + 5) / ((s + 1) * (6*s + 5))" in out
    assert "conjecture: holds" in out
    assert "oracle: equal" in out


def test_tree_command_json_deterministic(cusp_file, capsys):
    assert main(["tree", cusp_file, "--json", "--oracle"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["tree", cusp_file, "--json", "--oracle"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert list(report) == ["input", "zeta", "poles", "monodromy_zeta",
                            "delta", "milnor_number", "conjecture", "oracle_check"]
    assert report["zeta"] == {
        "scale": "1", "numerator": [5, 4],
        "denominator": [{"N": 1, "nu": 1, "exp": 1}, {"N": 6, "nu": 5, "exp": 1}]}
    assert report["monodromy_zeta"] == [{"n": 2, "e": -1}, {"n": 3, "e": -1},
                                        {"n": 6, "e": 1}]
    assert report["delta"]["coeffs"] == [1, -1, 1]
    assert report["milnor_number"] == 2
    assert report["oracle_check"] == "equal"


def test_tree_command_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["tree", str(path)]) == EXIT_INVALID
    assert "not valid JSON" in capsys.readouterr().err


def test_tree_command_schema_violation(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"faces": [{"a": 2, "b": 3, "classes": ["leaf"],
                                           "extra": 0}]}))
    assert main(["tree", str(path)]) == EXIT_INVALID
    assert "/faces/0" in capsys.readouterr().err


def test_tree_command_invalid_tree(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"faces": [{"a": 2, "b": 4, "classes": ["leaf"]}]}))
    assert main(["tree", str(path)]) == EXIT_INVALID
    assert "gcd" in capsys.readouterr().err


def test_tree_command_prints_every_diagnostic(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"faces": [
        {"a": 0, "b": 3, "classes": ["leaf"]},
        {"a": 2, "b": 4, "classes": [{"faces": []}]}]}))
    assert main(["tree", str(path)]) == EXIT_INVALID
    assert capsys.readouterr().err == (
        "error: a < 1 at path /faces/0\n"
        "error: gcd(a,b) != 1 at path /faces/1\n"
        "error: slope order violated at path /faces/1\n"
        "error: bamboo has no faces at path /faces/1/classes/0/faces\n")


def test_tree_command_validates_the_tree_once(monkeypatch, capsys):
    roots = []
    validate_bamboo = equitree._validate_bamboo

    def counted(bamboo, path, *rest):
        if path == "":
            roots.append(bamboo)
        return validate_bamboo(bamboo, path, *rest)

    monkeypatch.setattr(equitree, "_validate_bamboo", counted)
    assert main(["tree", str(THREE_LEVEL_PATH)]) == EXIT_OK
    assert len(roots) == 1


@pytest.mark.parametrize("tree", [CUSP_JSON, json.loads(THREE_LEVEL_PATH.read_text())],
                         ids=["cusp", "three_level"])
def test_check_instance_derives_no_printed_form(monkeypatch, tree):
    # the fuzz checks compare zeta functions and read their poles in
    # partial fractions; only a report prints scale * num / den
    printed = []
    canonical = zeta._canonical

    def counted(*args):
        printed.append(args)
        return canonical(*args)

    monkeypatch.setattr(zeta, "_canonical", counted)
    assert all(check_instance(tree_from_json(tree), ray_seed=1).values())
    assert printed == []
    analyze_tree(tree_from_json(tree))
    assert len(printed) == 1


def test_tree_command_missing_file(capsys):
    assert main(["tree", "/nonexistent/tree.json"]) == EXIT_INVALID


def test_tree_command_too_deep_json(tmp_path, capsys):
    depth = 300
    path = tmp_path / "deep.json"
    path.write_text('{"faces":[{"a":2,"b":3,"classes":[' * depth + '"leaf"' + ']}]}' * depth)
    assert main(["tree", str(path)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


def test_tree_command_rejects_leading_zero_integers(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"faces": [{"a": 02, "b": 3, "classes": ["leaf"]}]}')
    assert main(["tree", str(path)]) == EXIT_INVALID
    assert "not valid JSON" in capsys.readouterr().err


def nested_chain_json(depth, a, b):
    return ('{"faces":[{"a":%d,"b":%d,"classes":[' % (a, b)) * depth + '"leaf"' + ']}]}' * depth


@pytest.mark.parametrize("depth, b", [(12, 10 ** 400 + 1), (4, 10 ** 4298 + 1)],
                         ids=["long-numerator", "long-pole-values"])
def test_tree_command_prints_numbers_past_the_digit_limit(tmp_path, capsys, depth, b):
    # valid trees whose zeta numerator, and in the second case also the
    # pole values, have more digits than Python's default int-to-str
    # limit of 4300
    path = tmp_path / "big.json"
    path.write_text(nested_chain_json(depth, 2, b))
    limit = sys.get_int_max_str_digits()
    assert main(["tree", str(path)]) == EXIT_OK
    text = capsys.readouterr().out
    assert text.startswith("input: tree") and "milnor number: " in text
    assert main(["tree", str(path), "--json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        report = json.loads(out)
        assert json.dumps(report, indent=2) + "\n" == out
        assert max(len(str(c)) for c in report["zeta"]["numerator"]) > 4300
    finally:
        sys.set_int_max_str_digits(limit)


def test_render_report_prints_numbers_past_the_digit_limit(tmp_path, capsys):
    # the public printer and str() of the zeta function lift the limit
    # themselves, not only main's output step, and put it back after
    chain = nested_chain_json(150, 2, 3)
    path = tmp_path / "chain150.json"
    path.write_text(chain)
    limit = sys.get_int_max_str_digits()
    assert main(["tree", str(path)]) == EXIT_OK
    text = render_report(analyze_tree(tree_from_json(json.loads(chain)))[0])
    assert text == capsys.readouterr().out
    spec = tree_from_json(json.loads(nested_chain_json(12, 2, 10 ** 400 + 1)))
    report = analyze_tree(spec)[0]
    assert max(abs(c) for c in report["zeta"]["numerator"]) > 10 ** 4300
    assert f"zeta: {zeta_general(annotate(spec))}\n" in render_report(report)
    assert sys.get_int_max_str_digits() == limit


def test_tree_command_rejects_integer_literals_past_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"faces": [{"a": 2, "b": 1%s1, "classes": ["leaf"]}]}' % ("0" * 4400))
    assert main(["tree", str(path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path} holds a 4402-digit integer, past the limit of "
                            f"{sys.get_int_max_str_digits()} digits\n")
    assert "set_int_max_str_digits" not in captured.err


def test_deep_chain_oracle_in_time():
    # both zeta sums of a depth-80 nested (2, 3) chain add 80-odd poles;
    # they must not multiply out the denominators term by term
    spec = tree_from_json(json.loads(nested_chain_json(80, 2, 3)))
    start = time.perf_counter()
    report, code = analyze_tree(spec, oracle=True)
    assert time.perf_counter() - start < 3.0
    assert code == EXIT_OK and report["oracle_check"] == "equal"
    annotated = annotate(spec)
    assert definitional_zeta(build_graph(annotated)) == zeta_general(annotated)


def test_tree_oracle_refuses_a_graph_past_the_size_limit(tmp_path, capsys):
    # a (2, b) face needs about b/2 divisors: the root face of the 12-deep
    # (2, 10^400 + 1) chain is refused while its rays are made
    path = tmp_path / "big.json"
    path.write_text(nested_chain_json(12, 2, 10 ** 400 + 1))
    start = time.perf_counter()
    assert main(["tree", str(path), "--oracle"]) == EXIT_INVALID
    assert time.perf_counter() - start < 10.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: resolution graph needs more than 100000 "
                            "divisors at path /faces/0\n")


def test_poly_command_ok(capsys):
    assert main(["poly", "x^2-y^2", "--oracle"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "zeta: 1 / (s + 1)^2" in out
    assert "char poly H1: -t + 1" in out or "1 - t" in out


def test_poly_builds_a_graph_only_for_the_oracle(monkeypatch):
    built = []

    def counting_build_graph(annotated):
        built.append(annotated)
        return build_graph(annotated)

    monkeypatch.setattr(cli, "build_graph", counting_build_graph)
    report, code = analyze_poly("x^5 + y^7 - x^2*y^4")
    assert code == EXIT_OK and "oracle_check" not in report and built == []
    report, code = analyze_poly("x^5 + y^7 - x^2*y^4", oracle=True)
    assert code == EXIT_OK and report["oracle_check"] == "equal" and len(built) == 1


def test_poly_oracle_checks_the_monodromy(monkeypatch):
    monkeypatch.setattr(cli, "acampo_from_graph", lambda graph: CycloProduct(()))
    report, code = analyze_poly("y^2-x^3", oracle=True)
    assert code == EXIT_INCONSISTENT
    assert report["oracle_check"] == "monodromy closed form differs from the graph product"


def test_poly_command_degenerate(capsys):
    assert main(["poly", "x^2-2*x*y+y^2"]) == EXIT_DEGENERATE
    assert "degenerate" in capsys.readouterr().err


def test_poly_command_parse_error(capsys):
    assert main(["poly", "x^2 + ("]) == EXIT_INVALID


@pytest.mark.parametrize("expr, index", [("x*", 1), ("2* + x", 1), ("y^2 - 3x *", 9)],
                         ids=["after-x", "before-a-sign", "after-a-coefficient-and-x"])
def test_poly_command_refuses_a_star_that_joins_nothing(capsys, expr, index):
    assert main(["poly", expr]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: unexpected character '*' at index {index}\n"


@pytest.mark.parametrize("expr, message", [
    ("x^%s + y^2" % ("1" * 5000), "cannot read the 5000-digit integer"),
    # a digit, but not a decimal one: no exponent stands where one should
    ("x^\u00b2 + y^2", "expected digits"),
], ids=["past-the-digit-limit", "superscript-digit"])
def test_poly_command_points_at_an_unreadable_integer(capsys, expr, message):
    assert main(["poly", expr]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message} at index 2\n"


def test_poly_command_refuses_a_face_past_the_length_limit(capsys, monkeypatch):
    monkeypatch.setattr(newton, "MAX_FACE_LENGTH", 10)
    assert main(["poly", "x^10 + y^10"]) == EXIT_OK
    capsys.readouterr()
    assert main(["poly", "x^11 + y^11"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the face with normal (1,1) has lattice length 11, "
                            "past the limit of 10\n")


def test_poly_command_refuses_faces_past_the_total_length_limit(capsys, monkeypatch):
    # faces (2,1) and (1,2) of lattice length 3 each: 6 steps in all
    monkeypatch.setattr(newton, "MAX_FACE_LENGTH", 6)
    assert main(["poly", "y^9 + x^3*y^3 + x^9"]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(newton, "MAX_FACE_LENGTH", 5)
    assert main(["poly", "y^9 + x^3*y^3 + x^9"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the face with normal (1,2) brings the total lattice "
                            "length to 6, past the limit of 5\n")


def test_poly_command_takes_a_leading_minus_after_a_double_dash(capsys):
    assert main(["poly", "y^3 - x^2"]) == EXIT_OK
    expected = capsys.readouterr().out
    assert main(["poly", "--", "-x^2+y^3"]) == EXIT_OK
    assert capsys.readouterr().out == expected


def test_poly_higher_terms_do_not_matter():
    r1, _ = analyze_poly("y^2-x^3")
    r2, _ = analyze_poly("y^2-x^3+x^100")
    for key in ("zeta", "poles", "monodromy_zeta", "delta", "milnor_number",
                "conjecture"):
        assert r1[key] == r2[key]


def test_usage_errors():
    assert main([]) == EXIT_USAGE
    assert main(["frob"]) == EXIT_USAGE
    assert main(["fuzz", "--count", "0", "--seed", "1"]) == EXIT_USAGE
    assert main(["fuzz", "--seed", "1"]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["fuzz", "--count", "30", "--seed", "7"],
    ["fuzz", "--count", "30", "--seed", "7", "--json"],
    ["tree", str(CHAIN20_PATH), "--oracle"],
    ["poly", "x^2+y^3"],
], ids=["fuzz", "fuzz-json", "tree-oracle", "poly"])
def test_a_reader_that_closed_stdout_gets_no_traceback(argv):
    # the read end of the pipe is closed before the child writes: the child
    # writes nothing more and exits with the code its command computed
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    try:
        proc = subprocess.run([sys.executable, "-m", "topzeta", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr.decode()) == (EXIT_OK, "")


def test_fuzz_runs_and_is_seeded(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["fuzz", "--count", "2", "--seed", "42"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["fuzz", "--count", "2", "--seed", "42"]) == EXIT_OK
    assert first == capsys.readouterr().out
    assert "passed 2/2" in first


def test_fuzz_json_summary(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["fuzz", "--count", "1", "--seed", "5", "--json"]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["count"] == 1 and summary["failed"] == 0
    assert len(summary["instances"][0]["hash"]) == 12


def test_random_tree_is_valid_and_reproducible():
    t1 = random_tree(random.Random(99))
    t2 = random_tree(random.Random(99))
    assert t1 == t2
    assert validate(t1) == []
    assert tree_hash(t1) == tree_hash(t2)


def test_random_face_specs_regime():
    rng = random.Random(3)
    for _ in range(50):
        specs = random_face_specs(rng)
        assert all(a >= 2 and b >= 2 for a, b, _ in specs)


def test_check_instance_all_green():
    spec = Bamboo((Face(2, 3, (Bamboo((Face(2, 7, (LEAF,)),)), LEAF)),))
    checks = check_instance(spec, ray_seed=1)
    assert all(checks.values()), checks
    assert checks["delta_values"] is True


def test_delta_values_catches_a_wrong_mirror(monkeypatch):
    # the upper half of the expansion mirrored with the wrong sign
    real = cli.characteristic_poly

    def wrong_mirror(z, **kwargs):
        delta = real(z, **kwargs)
        half = delta.mu // 2 + 1
        coeffs = delta.coeffs[:half + 1] + tuple(-c for c in delta.coeffs[half + 1:])
        return dataclasses.replace(delta, coeffs=coeffs)

    spec = Bamboo((Face(2, 3, (Bamboo((Face(2, 7, (LEAF,)),)), LEAF)),))
    monkeypatch.setattr(cli, "characteristic_poly", wrong_mirror)
    checks = check_instance(spec)
    assert checks["delta_values"] is False
    assert all(ok for name, ok in checks.items() if name != "delta_values")


def test_reports_and_fuzz_run_one_pipeline(monkeypatch):
    # analyze_tree and check_instance take z, zm, delta and the conjecture
    # checks from one step, and compare them with a graph by one function:
    # a report's oracle once, fuzz on the minimal and the refined graph
    calls = []
    for name in ("_closed_forms", "_graph_check"):
        def counted(*args, real=getattr(cli, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(cli, name, counted)
    spec = tree_from_json(json.loads(THREE_LEVEL_PATH.read_text()))
    assert analyze_tree(spec, oracle=True)[0]["oracle_check"] == "equal"
    assert calls == ["_closed_forms", "_graph_check"]
    calls.clear()
    assert all(check_instance(spec, ray_seed=1).values())
    assert calls == ["_closed_forms", "_graph_check", "_graph_check"]


def test_check_instance_checks_the_graphs_without_a_polynomial(monkeypatch):
    def no_polynomial(z, **kwargs):
        raise ArithmeticError("not a polynomial: multiplicity -1 at root order 2")

    monkeypatch.setattr(cli, "characteristic_poly", no_polynomial)
    checks = check_instance(tree_from_json(json.loads(THREE_LEVEL_PATH.read_text())), ray_seed=1)
    graph_checks = ("zeta_closed_vs_oracle", "monodromy_closed_vs_oracle", "chain_determinants",
                    "zeta_ray_invariance", "monodromy_ray_invariance", "chain_determinants_refined")
    assert all(checks[name] is True for name in graph_checks)
    assert checks["pole_containment"] is True and "delta_values" not in checks
    assert checks["delta_polynomial"] is False and checks["conjecture"] is False


def test_fuzz_reports_a_monodromy_that_is_no_polynomial(capsys, tmp_path, monkeypatch):
    # (1 - t^2)^-1 times (1 - t) is no polynomial: a defect fuzz must report
    monkeypatch.setattr(cli, "monodromy_zeta", lambda tree: CycloProduct(((2, -1),)))
    checks = check_instance(Bamboo((Face(2, 3, (LEAF,)),)))
    assert checks["delta_polynomial"] is False and checks["conjecture"] is False
    monkeypatch.chdir(tmp_path)
    assert main(["fuzz", "--count", "1", "--seed", "1"]) == EXIT_INCONSISTENT
    out = capsys.readouterr().out
    assert "FAIL" in out and "delta_polynomial" in out and "conjecture" in out
    assert len(list(tmp_path.glob("fuzz-fail-*.json"))) == 1


def test_json_report_is_json_dumps_byte_for_byte(perfbench, tree_report_corpora):
    # the golden JSON reports, the tree-report, deep-large and poly-wide
    # corpora of seeds 1 and 2, x^1000 + y^1000 and, with no expansion,
    # x^1002 + y^1002; then a report whose input holds the marker's text.
    # Each report is made when it is checked: the largest hold 10^6 integers
    corpora = perfbench["corpora"]
    golden = Path(__file__).parent / "golden"

    def reports():
        for path in sorted(golden.glob("*.json.out")):
            report = json.loads(path.read_text(encoding="utf-8"))
            if "delta" in report:       # not fuzz's summary
                yield report
        for seed in (1, 2):
            for tree in tree_report_corpora[seed] + corpora.deep_large_corpus(seed):
                yield analyze_tree(tree_from_json(tree))[0]
            for expr, _, _ in corpora.poly_wide_corpus(seed):
                yield analyze_poly(expr)[0]
        for n in (1000, 1002):
            yield analyze_poly(f"x^{n} + y^{n}")[0]
        cusp = analyze_poly("y^2 - x^3")[0]
        yield {**cusp, "input": {**cusp["input"], "expr": cli._COEFFS}}

    unexpanded = 0
    with zeta._unlimited_digits():
        for count, report in enumerate(reports(), 1):
            assert cli.json_report(report) == json.dumps(report, indent=2)
            unexpanded += report["delta"]["coeffs"] is None
    # 15 golden, 2 x (36 tree-report, 34 deep-large, 100 poly-wide) and 3
    assert count == 358 and unexpanded >= 1


def test_json_report_writes_the_coefficients_in_blocks():
    # json_report writes delta.coeffs TEXT_BLOCK integers per join: exactly
    # one block, one block and one more integer, and two blocks
    rng = random.Random(5)
    cusp = analyze_poly("y^2 - x^3")[0]
    for size in (zeta.TEXT_BLOCK, zeta.TEXT_BLOCK + 1, 2 * zeta.TEXT_BLOCK):
        coeffs = [rng.choice((0, 1, -1, -7, 10 ** 40)) for _ in range(size)]
        report = {**cusp, "delta": {**cusp["delta"], "coeffs": coeffs}}
        want = json.dumps(report, indent=2)
        assert cli.json_report(report) == want
        assert cli._render(report, True) == want + "\n"


# seed 1, #25 of perfbench's tree-report corpus
DENSE_DELTA_TREE = {"faces": [{"a": 3, "b": 8, "classes": [
    {"faces": [{"a": 3, "b": 7, "classes": [
        {"faces": [{"a": 7, "b": 9, "classes": ["leaf", "leaf"]}]},
        {"faces": [{"a": 4, "b": 7, "classes": ["leaf", "leaf"]}]}]}]},
    {"faces": [{"a": 3, "b": 5, "classes": ["leaf"]}]}]}]}


def test_the_writers_of_a_large_delta_hold_one_copy_of_its_text():
    # mu = 123,858, half of the coefficients nonzero.  Each writer holds
    # its output, the pieces it joins into it and one block beyond them:
    # under 2.5 times the output in all.  A writer that copies the
    # characteristic polynomial's whole text into a line, a join of lines
    # and a trailing newline, or makes a str of every coefficient before
    # one join, holds about 7 times its output
    report = analyze_tree(tree_from_json(DENSE_DELTA_TREE))[0]
    assert report["milnor_number"] == 123_858
    for as_json in (False, True):
        gc.collect()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            text = cli._render(report, as_json)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(text) > 6 * 10 ** 5 and peak < 2.5 * len(text), (as_json, peak, len(text))


def test_the_text_writer_of_a_deep_chain_holds_one_copy_of_its_zeta_line():
    # depth 120: the numerator has 121 coefficients of up to 21,661 bits,
    # most of the 0.68 MB of text.  Its texts are items of the report's
    # join, so the writer holds the pieces and the output, about twice the
    # output.  Copying the numerator's text into parentheses, the scale,
    # the line and the join, or keeping the formats of its coefficients
    # through the % operation, holds 3 to 4 times the output
    report = analyze_tree(tree_from_json(json.loads(nested_chain_json(120, 2, 3))))[0]
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        text = cli._render(report, False)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(text) > 6 * 10 ** 5 and peak < 2.5 * len(text), (peak, len(text))


def test_render_report_contains_every_section(cusp_file):
    report, code = analyze_tree(tree_from_json(CUSP_JSON), oracle=True)
    assert code == EXIT_OK
    text = render_report(report)
    for needle in ("input:", "zeta:", "poles:", "monodromy zeta:",
                   "char poly H1:", "milnor number:", "conjecture:", "oracle:"):
        assert needle in text
