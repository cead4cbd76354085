"""Command line interface and the seeded differential harness.

Three subcommands:

  tree <path>   invariants of a tree given in the JSON schema
  poly "<expr>" invariants of a Newton-nondegenerate polynomial
  fuzz          random trees, closed forms cross-checked against the
                resolution-graph oracle instance by instance

``tree`` and ``poly`` are input adapters over one analysis: a polynomial's
Newton face list becomes the one-bamboo tree of ``annotate_faces``, and
from there both run the same closed forms, report and ``--oracle`` check.

Exit codes: 0 ok, 1 usage, 2 invalid input, 3 degenerate polynomial,
4 internal consistency failure (closed form disagreeing with the oracle,
or a failed fuzz check).  Reports are deterministic: equal inputs and
flags produce byte-identical output, and every number is exact.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import sys
from fractions import Fraction
from math import gcd

from .equitree import (Bamboo, Face, InvalidTreeError, LEAF, annotate, annotate_faces,
                       tree_from_json, tree_to_json)
from .monodromy import (CycloProduct, acampo_from_graph, characteristic_poly,
                        conjecture_report, monodromy_zeta)
from .newton import (DegenerateCurveError, newton_faces, parse_poly,
                     poly_to_str, to_face_specs)
from .resolution import build_graph, chain_determinant_check, definitional_zeta
from .zeta import candidate_poles, poly_str, rational_str, zeta_general

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_DEGENERATE = 3
EXIT_INCONSISTENT = 4

FUZZ_EXPANSION_CAP = 4000   # delta_values checks only below this degree
FUZZ_MAX_DEPTH = 3          # nesting levels of a random tree
FUZZ_MAX_K = 3              # faces per random bamboo: 1..3
FUZZ_MAX_AB = 9             # face entries: 2..9
FUZZ_MAX_CLASSES = 3        # branch classes per random face: 1..3
FUZZ_EXTRA_RAYS = 3         # random rays per bamboo of the refined graph
DELTA_PRIME = 2 ** 61 - 1   # delta_values compares values modulo this prime
DELTA_POINTS = (3, 5, 7)    # at these t


def _random_coprime_pairs(rng, k):
    pairs = set()
    while len(pairs) < k:
        a = rng.randint(2, FUZZ_MAX_AB)
        b = rng.randint(2, FUZZ_MAX_AB)
        if gcd(a, b) == 1:
            pairs.add((a, b))
    return sorted(pairs, key=lambda p: Fraction(p[1], p[0]))


def random_tree(rng: random.Random, depth: int = 1) -> Bamboo:
    """Random valid tree; a pure function of the rng state."""
    k = rng.randint(1, FUZZ_MAX_K)
    faces = []
    for a, b in _random_coprime_pairs(rng, k):
        classes = []
        for _ in range(rng.randint(1, FUZZ_MAX_CLASSES)):
            # below the depth bound a class is a leaf with probability 1/2
            if depth >= FUZZ_MAX_DEPTH or rng.randrange(2) == 0:
                classes.append(LEAF)
            else:
                classes.append(random_tree(rng, depth + 1))
        faces.append(Face(a, b, tuple(classes)))
    return Bamboo(tuple(faces))


def tree_hash(spec: Bamboo) -> str:
    blob = json.dumps(tree_to_json(spec), separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# ---------------------------------------------------------------------------
# report assembly

def _pole_entries(ps, candidates):
    """Each pole with its sources: the candidates of its value, in
    candidate order, grouped once by the value's numerator and
    denominator."""
    groups = {}
    for c in candidates:
        groups.setdefault((c.value.numerator, c.value.denominator), []).append(c)
    out = []
    for p in ps:
        sources = []
        for c in groups.get((p.value.numerator, p.value.denominator), ()):
            if c.path is None:
                sources.append("universal")
            else:
                sources.append({"bamboo": [list(step) for step in c.path], "face": c.face})
        out.append({"value": str(p.value), "order": p.order, "sources": sources})
    return out


def _conjecture_json(checks):
    entries = []
    for value, order, w in checks:
        entry = {
            "value": str(value),
            "pole_order": order,
            "eigenvalue": w.ok,
            "root_order": w.root_order,
            "via": "H0" if w.root_order == 1 else "H1",
        }
        if w.root_order != 1:
            entry["multiplicity"] = w.multiplicity
            entry["exponents"] = [n for n, _ in w.contributions]
        entries.append(entry)
    return {"verdict": "holds" if all(w.ok for *_, w in checks) else "fails",
            "poles": entries}


def analyze_tree(spec: Bamboo, *, oracle: bool = False):
    """Full report dict for a tree; second value is the exit code.  An
    invalid tree raises InvalidTreeError with every diagnostic."""
    inp = {"kind": "tree", "tree": tree_to_json(spec)}
    return _analyze(annotate(spec), inp, oracle)


def analyze_poly(expr: str, *, oracle: bool = False):
    """Full report dict for a polynomial; second value is the exit code."""
    p = parse_poly(expr)
    specs = to_face_specs(newton_faces(p))
    inp = {"kind": "poly", "expr": expr, "canonical": poly_to_str(p),
           "faces": [[a, b, r] for a, b, r in specs]}
    return _analyze(annotate_faces(specs), inp, oracle)


def _analyze(annotated, inp: dict, oracle: bool):
    """Report dict and exit code of an annotated tree; ``inp`` is the
    report's input section, the only part that depends on the input form."""
    z = zeta_general(annotated)
    zm = monodromy_zeta(annotated)
    delta = characteristic_poly(zm)
    checks = conjecture_report(z, delta.cyclo)      # one per pole, in order
    with _unlimited_digits():
        report = {
            "input": inp,
            "zeta": z.to_json_dict(),
            "poles": _pole_entries(checks, candidate_poles(annotated)),
            "monodromy_zeta": zm.to_json_list(),
            "delta": delta.to_json_dict(),
            "milnor_number": delta.mu,
            "conjecture": _conjecture_json(checks),
        }
    code = EXIT_OK if report["conjecture"]["verdict"] == "holds" else EXIT_INCONSISTENT
    if oracle:
        graph = build_graph(annotated)
        problems = []
        if definitional_zeta(graph) != z:
            problems.append("zeta closed form differs from the graph sum")
        if acampo_from_graph(graph) != zm:
            problems.append("monodromy closed form differs from the graph product")
        violation = chain_determinant_check(graph)
        if violation is not None:
            problems.append(f"chain determinant violated at edge {violation.edge}")
        report["oracle_check"] = "equal" if not problems else "; ".join(problems)
        if problems:
            code = EXIT_INCONSISTENT
    return report, code


def render_report(report: dict) -> str:
    lines = []
    inp = report["input"]
    if inp["kind"] == "tree":
        lines.append(f"input: tree {json.dumps(inp['tree'], separators=(',', ':'))}")
    else:
        lines.append(f"input: poly {inp['canonical']}")
        lines.append(f"faces (a, b, r): {inp['faces']}")
    zj = report["zeta"]
    den = [((f["N"], f["nu"]), f["exp"]) for f in zj["denominator"]]
    lines.append(f"zeta: {rational_str(zj['scale'], zj['numerator'], den)}")
    lines.append("poles:")
    for entry in report["poles"]:
        srcs = []
        for s in entry["sources"]:
            if s == "universal":
                srcs.append("universal")
            else:
                srcs.append(f"bamboo {s['bamboo']} face {s['face']}")
        lines.append(f"  {entry['value']}  order {entry['order']}  ({'; '.join(srcs)})")
    zm = CycloProduct(tuple((f["n"], f["e"]) for f in report["monodromy_zeta"]))
    lines.append(f"monodromy zeta: {zm}")
    dj = report["delta"]
    delta = (poly_str(dj["coeffs"], "t") if dj["coeffs"] is not None
             else CycloProduct(tuple((f["n"], f["e"]) for f in dj["factors"])))
    lines.append(f"char poly H1: {delta}")
    lines.append(f"milnor number: {report['milnor_number']}")
    conj = report["conjecture"]
    lines.append(f"conjecture: {conj['verdict']}")
    for entry in conj["poles"]:
        if entry["via"] == "H0":
            lines.append(f"  {entry['value']}  eigenvalue 1 on H^0")
        else:
            ok = "eigenvalue" if entry["eigenvalue"] else "NOT an eigenvalue"
            lines.append(
                f"  {entry['value']}  {ok}: order {entry['root_order']}, "
                f"multiplicity {entry['multiplicity']} from exponents {entry['exponents']}")
    if "oracle_check" in report:
        lines.append(f"oracle: {report['oracle_check']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# fuzz harness

def check_instance(spec: Bamboo, *, ray_seed: int = 0) -> dict:
    """All differential checks for one tree; maps check name to ok flag."""
    checks = {}
    annotated = annotate(spec)
    z = zeta_general(annotated)
    graph = build_graph(annotated)
    zm = monodromy_zeta(annotated)
    checks["zeta_closed_vs_oracle"] = definitional_zeta(graph) == z
    checks["monodromy_closed_vs_oracle"] = acampo_from_graph(graph) == zm
    checks["chain_determinants"] = chain_determinant_check(graph) is None
    refined = build_graph(annotated, extra_rays=FUZZ_EXTRA_RAYS, seed=ray_seed)
    checks["zeta_ray_invariance"] = definitional_zeta(refined) == z
    checks["monodromy_ray_invariance"] = acampo_from_graph(refined) == zm
    checks["chain_determinants_refined"] = chain_determinant_check(refined) is None
    try:
        delta = characteristic_poly(zm, max_degree=FUZZ_EXPANSION_CAP)
    except ArithmeticError:
        delta = None
    checks["delta_polynomial"] = delta is not None
    if delta is not None and delta.coeffs is not None:
        checks["delta_values"] = _delta_values_agree(delta)
    # the factors of z.den are primitive with N >= 1: -nu/N in lowest terms
    cand_values = {(c.value.numerator, c.value.denominator) for c in candidate_poles(annotated)}
    checks["pole_containment"] = all((-nu, n) in cand_values for (n, nu), _ in z.den)
    # without a polynomial there are no eigenvalues to check the poles against
    checks["conjecture"] = delta is not None and all(
        c.witness.ok for c in conjecture_report(z, delta.cyclo))
    return checks


def _delta_values_agree(delta) -> bool:
    """The expanded coefficients and the product prod (1 - t^n)^e take equal
    values at DELTA_POINTS modulo DELTA_PRIME; a point where some 1 - t^n
    vanishes is skipped."""
    for x in DELTA_POINTS:
        want = 1
        for n, e in delta.cyclo.factors:
            base = (1 - pow(x, n, DELTA_PRIME)) % DELTA_PRIME
            if base == 0:
                break
            want = want * pow(base, e, DELTA_PRIME) % DELTA_PRIME
        else:
            got = 0
            for c in reversed(delta.coeffs):
                got = (got * x + c) % DELTA_PRIME
            if got != want:
                return False
    return True


def run_fuzz(count: int, seed: int, *, json_out: bool = False) -> tuple[str, int]:
    """The fuzz summary as text and the exit code."""
    rng = random.Random(seed)
    records = []
    failures = 0
    for idx in range(count):
        spec = random_tree(rng)
        digest = tree_hash(spec)
        checks = check_instance(spec, ray_seed=seed * 1_000_003 + idx)
        ok = all(checks.values())
        if not ok:
            failures += 1
            path = f"fuzz-fail-{digest}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(tree_to_json(spec), fh, indent=2)
            records.append({"instance": idx, "hash": digest, "ok": False,
                            "checks": checks, "dump": path})
        else:
            records.append({"instance": idx, "hash": digest, "ok": True})
    summary = {
        "count": count,
        "seed": seed,
        "passed": count - failures,
        "failed": failures,
        "instances": records,
    }
    code = EXIT_OK if failures == 0 else EXIT_INCONSISTENT
    if json_out:
        return json.dumps(summary, indent=2) + "\n", code
    lines = []
    for rec in records:
        status = "ok" if rec["ok"] else "FAIL"
        lines.append(f"instance {rec['instance']:4d}  {rec['hash']}  {status}\n")
        if not rec["ok"]:
            bad = [k for k, v in rec["checks"].items() if not v]
            lines.append(f"  failed checks: {', '.join(bad)}  (dumped to {rec['dump']})\n")
    lines.append(f"passed {summary['passed']}/{count}\n")
    return "".join(lines), code


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="topzeta",
                     description="Exact zeta functions and monodromy of plane curve singularities")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tree = sub.add_parser("tree", help="analyze a tree JSON file")
    p_tree.add_argument("path")
    p_tree.add_argument("--json", action="store_true")
    p_tree.add_argument("--oracle", action="store_true")

    p_poly = sub.add_parser("poly", help="analyze a polynomial expression")
    p_poly.add_argument("expr")
    p_poly.add_argument("--json", action="store_true")
    p_poly.add_argument("--oracle", action="store_true")

    p_fuzz = sub.add_parser("fuzz", help="seeded differential testing")
    p_fuzz.add_argument("--count", type=int, required=True)
    p_fuzz.add_argument("--seed", type=int, required=True)
    p_fuzz.add_argument("--json", action="store_true")
    return parser


_PARSER = _build_parser()      # built once: parsing leaves it unchanged


@contextlib.contextmanager
def _unlimited_digits():
    """Lift Python's int-to-str digit limit while a report's exact numbers
    become text; the limit stays on while the input is parsed."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _read_int(literal: str) -> int:
    """A JSON integer literal, ASCII digits only, which int() refuses only
    past Python's digit limit: then OverflowError with the digit count."""
    try:
        return int(literal)
    except ValueError:
        raise OverflowError(len(literal.lstrip("-"))) from None


def _render(report, as_json) -> str:
    """The whole report as one string, so that no error leaves part of it
    written."""
    with _unlimited_digits():
        return json.dumps(report, indent=2) + "\n" if as_json else render_report(report)


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    text, code = _run(args)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: write nothing more, and point stdout at the
        # null device so that the interpreter's final flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def _run(args) -> tuple[str, int]:
    """A parsed command's standard output and exit code; its diagnostics
    go to stderr."""
    try:
        if args.command == "tree":
            try:
                with open(args.path, encoding="utf-8") as fh:
                    data = json.load(fh, parse_int=_read_int)
            except OSError as exc:
                print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
                return "", EXIT_INVALID
            except OverflowError as exc:
                print(f"error: {args.path} holds a {exc.args[0]}-digit integer, past the "
                      f"limit of {sys.get_int_max_str_digits()} digits", file=sys.stderr)
                return "", EXIT_INVALID
            except ValueError as exc:       # bad syntax or encoding
                print(f"error: {args.path} is not valid JSON: {exc}", file=sys.stderr)
                return "", EXIT_INVALID
            except RecursionError:
                print(f"error: {args.path} is nested too deeply to parse", file=sys.stderr)
                return "", EXIT_INVALID
            try:
                report, code = analyze_tree(tree_from_json(data), oracle=args.oracle)
            except InvalidTreeError as exc:
                for diag in exc.problems:
                    print(f"error: {diag}", file=sys.stderr)
                return "", EXIT_INVALID
            return _render(report, args.json), code

        if args.command == "poly":
            report, code = analyze_poly(args.expr, oracle=args.oracle)
            return _render(report, args.json), code

        if args.command == "fuzz":
            if args.count < 1:
                print("error: count must be at least 1", file=sys.stderr)
                return "", EXIT_USAGE
            return run_fuzz(args.count, args.seed, json_out=args.json)

    except DegenerateCurveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return "", EXIT_DEGENERATE
    except ValueError as exc:       # TreeJSONError, ParseError and every other bad input
        print(f"error: {exc}", file=sys.stderr)
        return "", EXIT_INVALID
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
