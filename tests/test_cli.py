import json
import random
import sys
import time

import pytest

from topzeta import cli
from topzeta.cli import (EXIT_DEGENERATE, EXIT_INCONSISTENT, EXIT_INVALID,
                         EXIT_OK, EXIT_USAGE, FuzzConfig, analyze_poly,
                         analyze_tree, check_instance, main, random_face_specs,
                         random_tree, render_report, tree_hash)
from topzeta.equitree import (Bamboo, Face, LEAF, annotate, tree_from_json,
                              validate)
from topzeta.monodromy import CycloProduct
from topzeta.resolution import build_graph, definitional_zeta
from topzeta.zeta import zeta_general

CUSP_JSON = {"faces": [{"a": 2, "b": 3, "classes": ["leaf"]}]}


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


def test_tree_command_rejects_integer_literals_past_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"faces": [{"a": 2, "b": 1%s1, "classes": ["leaf"]}]}' % ("0" * 4400))
    assert main(["tree", str(path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


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
    cfg = FuzzConfig(count=1, seed=0)
    t1 = random_tree(random.Random(99), cfg)
    t2 = random_tree(random.Random(99), cfg)
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


def test_render_report_contains_every_section(cusp_file):
    report, code = analyze_tree(tree_from_json(CUSP_JSON), oracle=True)
    assert code == EXIT_OK
    text = render_report(report)
    for needle in ("input:", "zeta:", "poles:", "monodromy zeta:",
                   "char poly H1:", "milnor number:", "conjecture:", "oracle:"):
        assert needle in text
