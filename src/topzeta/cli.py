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
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .equitree import (Bamboo, Face, LEAF, TreeJSONError, annotate,
                       annotate_faces, tree_from_json, tree_to_json, validate)
from .monodromy import (CycloProduct, acampo_from_graph, characteristic_poly,
                        conjecture_report, monodromy_zeta)
from .newton import (DegenerateCurveError, ParseError, newton_faces,
                     parse_poly, poly_to_str, to_face_specs)
from .resolution import build_graph, chain_determinant_check, definitional_zeta
from .zeta import RationalFunction, candidate_poles, poles, poly_str, zeta_general

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_DEGENERATE = 3
EXIT_INCONSISTENT = 4

FUZZ_EXPANSION_CAP = 4000   # palindrome checks only below this degree
FUZZ_MAX_CLASSES = 3        # branch classes per random face: 1..3
FUZZ_EXTRA_RAYS = 3         # random rays per bamboo of the refined graph


@dataclass(frozen=True)
class FuzzConfig:
    count: int
    seed: int
    max_depth: int = 3
    max_k: int = 3
    max_ab: int = 9

    def __post_init__(self):
        for name in ("count", "max_depth", "max_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.max_ab < 3:
            raise ValueError("max_ab must be at least 3 to allow a coprime pair")


def _random_coprime_pairs(rng, k, max_ab):
    pairs = set()
    while len(pairs) < k:
        a = rng.randint(2, max_ab)
        b = rng.randint(2, max_ab)
        if gcd(a, b) == 1:
            pairs.add((a, b))
    return sorted(pairs, key=lambda p: Fraction(p[1], p[0]))


def random_tree(rng: random.Random, cfg: FuzzConfig, depth: int = 1) -> Bamboo:
    """Random valid tree; a pure function of the rng state and bounds."""
    k = rng.randint(1, cfg.max_k)
    faces = []
    for a, b in _random_coprime_pairs(rng, k, cfg.max_ab):
        classes = []
        for _ in range(rng.randint(1, FUZZ_MAX_CLASSES)):
            # below the depth bound a class is a leaf with probability 1/2
            if depth >= cfg.max_depth or rng.randrange(2) == 0:
                classes.append(LEAF)
            else:
                classes.append(random_tree(rng, cfg, depth + 1))
        faces.append(Face(a, b, tuple(classes)))
    return Bamboo(tuple(faces))


def random_face_specs(rng: random.Random, *, max_k=3, max_ab=9, max_r=3):
    """Random nondegenerate face list with both entries at least two.

    Faces with a = 1 or b = 1 describe smooth-ish branches whose
    candidate may cancel from the zeta function, so the pole-realization
    corpus stays inside the all-entries >= 2 regime.
    """
    k = rng.randint(1, max_k)
    return [(a, b, rng.randint(1, max_r))
            for a, b in _random_coprime_pairs(rng, k, max_ab)]


def tree_hash(spec: Bamboo) -> str:
    blob = json.dumps(tree_to_json(spec), separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# ---------------------------------------------------------------------------
# report assembly

def _pole_entries(ps, candidates):
    out = []
    for p in ps:
        sources = []
        for c in candidates:
            if c.value != p.value:
                continue
            if c.path is None:
                sources.append("universal")
            else:
                sources.append({"bamboo": [list(step) for step in c.path], "face": c.face})
        out.append({"value": str(p.value), "order": p.order, "sources": sources})
    return out


def _conjecture_json(report):
    entries = []
    for value, order, w in report.checks:
        entry = {
            "value": str(value),
            "pole_order": order,
            "eigenvalue": w.ok,
            "root_order": w.root_order,
            "via": w.via,
        }
        if w.via == "H1":
            entry["multiplicity"] = w.multiplicity
            entry["exponents"] = [n for n, _ in w.contributions]
        entries.append(entry)
    return {"verdict": report.verdict, "poles": entries}


def analyze_tree(spec: Bamboo, *, oracle: bool = False):
    """Full report dict for a tree; second value is the exit code."""
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
    conj = conjecture_report(z, delta.cyclo)
    with _unlimited_digits():
        report = {
            "input": inp,
            "zeta": z.to_json_dict(),
            "poles": _pole_entries(poles(z), candidate_poles(annotated)),
            "monodromy_zeta": zm.to_json_list(),
            "delta": delta.to_json_dict(),
            "milnor_number": delta.mu,
            "conjecture": _conjecture_json(conj),
        }
    code = EXIT_OK if conj.holds() else EXIT_INCONSISTENT
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
    z = RationalFunction(
        Fraction(zj["scale"]), tuple(zj["numerator"]),
        tuple(((f["N"], f["nu"]), f["exp"]) for f in zj["denominator"]))
    lines.append(f"zeta: {z}")
    lines.append("poles:")
    for entry in report["poles"]:
        srcs = []
        for s in entry["sources"]:
            if s == "universal":
                srcs.append("universal")
            else:
                where = f"bamboo {s['bamboo']}" if "bamboo" in s else ""
                srcs.append(f"{where} face {s['face']}".strip())
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
        c = delta.coeffs
        sign = 1 if c[0] == c[-1] else -1
        checks["delta_palindrome"] = all(
            c[j] == sign * c[delta.mu - j] for j in range(len(c)))
    cand_values = {c.value for c in candidate_poles(annotated)}
    checks["pole_containment"] = all(p.value in cand_values for p in poles(z))
    # without a polynomial there are no eigenvalues to check the poles against
    checks["conjecture"] = delta is not None and conjecture_report(z, delta.cyclo).holds()
    return checks


def run_fuzz(cfg: FuzzConfig, *, json_out: bool = False, out=None) -> int:
    out = out if out is not None else sys.stdout
    rng = random.Random(cfg.seed)
    records = []
    failures = 0
    for idx in range(cfg.count):
        spec = random_tree(rng, cfg)
        digest = tree_hash(spec)
        checks = check_instance(spec, ray_seed=cfg.seed * 1_000_003 + idx)
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
        "count": cfg.count,
        "seed": cfg.seed,
        "passed": cfg.count - failures,
        "failed": failures,
        "instances": records,
    }
    if json_out:
        json.dump(summary, out, indent=2)
        out.write("\n")
    else:
        for rec in records:
            status = "ok" if rec["ok"] else "FAIL"
            out.write(f"instance {rec['instance']:4d}  {rec['hash']}  {status}\n")
            if not rec["ok"]:
                bad = [k for k, v in rec["checks"].items() if not v]
                out.write(f"  failed checks: {', '.join(bad)}  (dumped to {rec['dump']})\n")
        out.write(f"passed {summary['passed']}/{cfg.count}\n")
    return EXIT_OK if failures == 0 else EXIT_INCONSISTENT


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
    p_fuzz.add_argument("--max-depth", type=int, default=3)
    p_fuzz.add_argument("--max-k", type=int, default=3)
    p_fuzz.add_argument("--max-ab", type=int, default=9)
    p_fuzz.add_argument("--json", action="store_true")
    return parser


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


def _render(report, as_json) -> str:
    """The whole report as one string, so that no error leaves part of it
    written."""
    with _unlimited_digits():
        return json.dumps(report, indent=2) + "\n" if as_json else render_report(report)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    out = sys.stdout
    try:
        if args.command == "tree":
            try:
                with open(args.path, encoding="utf-8") as fh:
                    data = json.load(fh)
            except OSError as exc:
                print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
                return EXIT_INVALID
            except json.JSONDecodeError as exc:
                print(f"error: {args.path} is not valid JSON: {exc}", file=sys.stderr)
                return EXIT_INVALID
            except RecursionError:
                print(f"error: {args.path} is nested too deeply to parse", file=sys.stderr)
                return EXIT_INVALID
            spec = tree_from_json(data)
            problems = validate(spec)
            if problems:
                for diag in problems:
                    print(f"error: {diag}", file=sys.stderr)
                return EXIT_INVALID
            report, code = analyze_tree(spec, oracle=args.oracle)
            out.write(_render(report, args.json))
            return code

        if args.command == "poly":
            report, code = analyze_poly(args.expr, oracle=args.oracle)
            out.write(_render(report, args.json))
            return code

        if args.command == "fuzz":
            try:
                cfg = FuzzConfig(count=args.count, seed=args.seed,
                                 max_depth=args.max_depth, max_k=args.max_k,
                                 max_ab=args.max_ab)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_USAGE
            return run_fuzz(cfg, json_out=args.json)

    except DegenerateCurveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (TreeJSONError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
