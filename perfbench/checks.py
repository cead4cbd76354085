"""Parse topzeta's text reports and check them against independent facts.

Each check reads only some fields of the report and names what it found
wrong; ``check_report`` returns the list of failures, empty when the
report passes.  No check compares against a stored copy of earlier
output: every expected value is computed here, from the input the
benchmark generated (see oracle.py) or from other fields of the report.
"""

from __future__ import annotations

import re
from fractions import Fraction

from oracle import acampo, kouchnirenko, milnor_number, stratified_zeta

PRIME = 2 ** 61 - 1
SAMPLE_S = (Fraction(1, 3), Fraction(2), Fraction(7, 5))   # never poles: poles are negative
SAMPLE_T = (3, 1_000_003, 987_654_321)                    # evaluation points mod PRIME
FUZZ_CHECKS = {"zeta_closed_vs_oracle", "monodromy_closed_vs_oracle", "chain_determinants",
               "zeta_ray_invariance", "monodromy_ray_invariance", "chain_determinants_refined",
               "delta_polynomial", "pole_containment", "conjecture"}


class ReportFormatError(ValueError):
    pass


def _number(text):
    return Fraction(text) if "/" in text else int(text)


def parse_poly_str(text, var):
    """Coefficient list, constant first, of a polynomial printed highest
    power first as in "3*s^2 - s + 5"."""
    coeffs = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        head, hit, power = term.partition(var)
        if hit:
            c = _number(head[:-1]) if head else 1
            i = int(power[1:]) if power else 1
        else:
            c, i = _number(term), 0
        if i in coeffs:
            raise ReportFormatError(f"power {var}^{i} printed twice")
        coeffs[i] = sign * c
    out = [0] * (max(coeffs) + 1)
    for i, c in coeffs.items():
        out[i] = c
    return out


_CYCLO = re.compile(r"\(1 - t(?:\^(\d+))?\)(?:\^(-?\d+))?")


def parse_cyclo(text):
    """{n: e} from "(1 - t) * (1 - t^6)^-2"; "1" is the empty product."""
    if text == "1":
        return {}
    out = {}
    for part in text.split(" * "):
        m = _CYCLO.fullmatch(part)
        if not m:
            raise ReportFormatError(f"not a factor (1 - t^n)^e: {part!r}")
        out[int(m[1] or 1)] = int(m[2] or 1)
    return out


def parse_zeta(text):
    """(scale, numerator coefficients, {(N, nu): exponent}) from the
    printed form scale * (num) / ((N*s + nu)^e * ...)."""
    head, _, den_text = text.partition(" / ")
    den = {}
    if den_text:
        if den_text.startswith("(("):      # several factors are wrapped in one more pair
            den_text = den_text[1:-1]
        for part in den_text.split(" * "):
            m = re.fullmatch(r"\((.+)\)(?:\^(\d+))?", part)
            if not m:
                raise ReportFormatError(f"not a linear factor: {part!r}")
            nu, n = parse_poly_str(m[1], "s")
            den[(n, nu)] = int(m[2] or 1)
    m = re.fullmatch(r"(?:(-)|(-?\d+(?:/\d+)?) \* )?\((.+)\)", head)
    if m:
        scale = Fraction(-1) if m[1] else Fraction(m[2] or 1)
        num = parse_poly_str(m[3], "s")
    else:
        scale, num = Fraction(head), [1]
    return scale, num, den


def parse_report(text: str) -> dict:
    """The fields of a text report of `topzeta tree` or `topzeta poly`."""
    rep = {"poles": [], "conjecture": [], "oracle": None, "faces": None}
    section = None
    for line in text.splitlines():
        if line.startswith("  "):
            body = line.strip()
            if section == "poles":
                m = re.fullmatch(r"(\S+)  order (\d+)  \((.*)\)", body)
                if not m:
                    raise ReportFormatError(f"bad pole line {line!r}")
                rep["poles"].append((Fraction(m[1]), int(m[2])))
            elif section == "conjecture":
                m = re.fullmatch(r"(\S+)  eigenvalue 1 on H\^0", body)
                if m:
                    rep["conjecture"].append((Fraction(m[1]), True, 1, None, None))
                    continue
                m = re.fullmatch(r"(\S+)  (eigenvalue|NOT an eigenvalue): order (\d+), "
                                 r"multiplicity (-?\d+) from exponents \[([\d, ]*)\]", body)
                if not m:
                    raise ReportFormatError(f"bad conjecture line {line!r}")
                exps = [int(x) for x in m[5].split(", ")] if m[5] else []
                rep["conjecture"].append((Fraction(m[1]), m[2] == "eigenvalue",
                                          int(m[3]), int(m[4]), exps))
            else:
                raise ReportFormatError(f"indented line outside a section: {line!r}")
            continue
        key, _, value = line.partition(": ")
        section = None
        if key == "input":
            rep["input"] = value
        elif key == "faces (a, b, r)":
            rep["faces"] = [tuple(f) for f in _int_lists(value)]
        elif key == "zeta":
            rep["zeta"] = parse_zeta(value)
        elif line == "poles:":
            section = "poles"
        elif key == "monodromy zeta":
            rep["monodromy"] = parse_cyclo(value)
        elif key == "char poly H1":
            if value.startswith("(") or value == "1":
                rep["charpoly"] = ("factors", parse_cyclo(value))
            else:
                rep["charpoly"] = ("coeffs", parse_poly_str(value, "t"))
        elif key == "milnor number":
            rep["mu"] = int(value)
        elif key == "conjecture":
            rep["verdict"] = value
            section = "conjecture"
        elif key == "oracle":
            rep["oracle"] = value
        else:
            raise ReportFormatError(f"unknown line {line!r}")
    for field in ("zeta", "monodromy", "charpoly", "mu", "verdict"):
        if field not in rep:
            raise ReportFormatError(f"report has no {field} line")
    return rep


def _int_lists(text):
    """The integer lists in "[[2, 3, 1], [1, 2, 1]]"."""
    return [[int(x) for x in part.split(", ")]
            for part in re.findall(r"\[([\d, ]+)\]", text)]


# ---------------------------------------------------------------------------
# checks; each returns a list of failure messages

def _zeta_value(zeta, s):
    scale, num, den = zeta
    value = scale * sum(c * s ** i for i, c in enumerate(num))
    for (n, nu), e in den.items():
        value /= (n * s + nu) ** e
    return value


def check_zeta_at_zero(rep, graph):
    z0 = _zeta_value(rep["zeta"], 0)
    return [] if z0 == 1 else [f"Z(0) = {z0}, not 1"]


def check_stratified_sum(rep, graph):
    return [f"Z({s}) = {_zeta_value(rep['zeta'], s)} but the stratified sum is {want}"
            for s in SAMPLE_S
            if (want := stratified_zeta(graph, s)) != _zeta_value(rep["zeta"], s)]


def check_poles(rep, graph):
    """The pole list is the root multiset of the denominator, the
    numerator does not vanish at any pole, and every pole is -1 or
    -nu/N of an exceptional divisor."""
    _, num, den = rep["zeta"]
    want = sorted((Fraction(-nu, n), e) for (n, nu), e in den.items())
    out = []
    if sorted(rep["poles"]) != want:
        out.append(f"poles {rep['poles']} are not the denominator roots {want}")
    candidates = {Fraction(-1)} | {Fraction(-nu, m) for m, nu, exc in graph.nodes if exc}
    for p, _ in rep["poles"]:
        if sum(c * p ** i for i, c in enumerate(num)) == 0:
            out.append(f"numerator vanishes at pole {p}")
        if p not in candidates:
            out.append(f"pole {p} is neither -1 nor -nu/N of a divisor")
    return out


def _charpoly_factors(rep):
    factors = dict(rep["monodromy"])
    factors[1] = factors.get(1, 0) + 1
    return {n: e for n, e in factors.items() if e}


def check_eigenvalues(rep, graph):
    """Each pole theta with denominator d gives an eigenvalue: d = 1, or
    sum of e_n over d | n in the characteristic polynomial is >= 1."""
    factors = _charpoly_factors(rep)
    out = []
    if rep["verdict"] != "holds":
        out.append(f"verdict {rep['verdict']!r}")
    if [c[0] for c in rep["conjecture"]] != [p for p, _ in rep["poles"]]:
        out.append("conjecture lines do not list the poles")
    for theta, ok, d, mult, exps in rep["conjecture"]:
        want_d = theta.denominator
        if want_d == 1:
            if not (ok and d == 1 and mult is None):
                out.append(f"pole {theta} should give eigenvalue 1 on H^0")
            continue
        divisible = sorted(n for n in factors if n % want_d == 0)
        want_m = sum(factors[n] for n in divisible)
        if want_m < 1:
            out.append(f"pole {theta}: multiplicity {want_m} at order {want_d}")
        if (ok, d, mult, exps) != (want_m >= 1, want_d, want_m, divisible):
            out.append(f"pole {theta}: reported order {d}, multiplicity {mult}, "
                       f"exponents {exps}; recomputed {want_d}, {want_m}, {divisible}")
    return out


def check_monodromy(rep, graph):
    want = acampo(graph)
    return [] if rep["monodromy"] == want else [
        f"monodromy zeta {rep['monodromy']} differs from A'Campo's product {want}"]


def check_charpoly(rep, graph):
    """mu and the characteristic polynomial agree with (1 - t) times the
    monodromy zeta function: degree, palindromy up to sign, and values
    at a few points modulo a large prime."""
    factors = _charpoly_factors(rep)
    mu = milnor_number(rep["monodromy"])
    out = []
    if rep["mu"] != mu:
        out.append(f"milnor number {rep['mu']}, degree of the factors {mu}")
    form, body = rep["charpoly"]
    if form == "factors":
        if body != factors:
            out.append(f"char poly factors {body} differ from (1 - t) * monodromy zeta")
        return out
    if len(body) - 1 != mu:
        out.append(f"char poly has degree {len(body) - 1}, mu is {mu}")
    sign = 1 if body[0] == body[-1] else -1
    if body != [sign * c for c in reversed(body)]:
        out.append("char poly is not palindromic up to sign")
    for x in SAMPLE_T:
        want = 1
        try:
            for n, e in factors.items():
                want = want * pow((1 - pow(x, n, PRIME)) % PRIME, e, PRIME) % PRIME
        except ValueError:      # 1 - x^n vanishes mod PRIME: no value to compare
            continue
        got = 0
        for c in reversed(body):
            got = (got * x + c) % PRIME
        if got != want:
            out.append(f"char poly at t = {x} is {got} mod p, the product gives {want}")
    return out


REPORT_CHECKS = (check_zeta_at_zero, check_stratified_sum, check_poles, check_eigenvalues,
               check_monodromy, check_charpoly)


def check_report(text: str, graph, *, faces=None, support=None, oracle=False):
    """All failures of one text report; ``faces`` and ``support`` are the
    construction of a polynomial input, ``oracle`` whether --oracle ran."""
    try:
        rep = parse_report(text)
    except (ValueError, ZeroDivisionError) as exc:      # ReportFormatError is a ValueError
        return [f"unreadable report: {exc}"]
    out = []
    for check in REPORT_CHECKS:
        out.extend(check(rep, graph))
    if faces is not None and rep["faces"] != [tuple(f) for f in faces]:
        out.append(f"faces {rep['faces']}, constructed {faces}")
    if support is not None and rep["mu"] != (k := kouchnirenko(support)):
        out.append(f"milnor number {rep['mu']}, Kouchnirenko gives {k}")
    if oracle and rep["oracle"] != "equal":
        out.append(f"oracle line {rep['oracle']!r}")
    return out


def check_fuzz(checks: dict):
    """check_instance's verdicts: the core checks present, all true."""
    out = [f"check {name} missing" for name in sorted(FUZZ_CHECKS - set(checks))]
    out += [f"check {name} false" for name, ok in checks.items() if ok is not True]
    return out


FUZZ_RECORDED = ("zeta_general", "definitional_zeta", "monodromy_zeta", "acampo_from_graph")


def _rational_function_value(z, s):
    return _zeta_value((z.scale, list(z.num), dict(z.den)), s)


def check_fuzz_values(calls, graph):
    """What check_instance compared, from its calls (name, args, result) to
    FUZZ_RECORDED: the closed-form zeta function and both definitional
    ones equal the stratified sum over ``graph`` at SAMPLE_S, the closed-form
    monodromy zeta function and both of A'Campo's equal the product over
    ``graph``, and the definitional sums ran on two graphs, the second
    refined by more divisors."""
    out = []
    by_name = {name: [] for name in FUZZ_RECORDED}
    for name, args, result in calls:
        by_name[name].append((args, result))
    for name, want in (("zeta_general", 1), ("definitional_zeta", 2),
                       ("monodromy_zeta", 1), ("acampo_from_graph", 2)):
        if len(by_name[name]) != want:
            out.append(f"{name} ran {len(by_name[name])} times, not {want}")
    sums = {s: stratified_zeta(graph, s) for s in SAMPLE_S}
    for name in ("zeta_general", "definitional_zeta"):
        for _, z in by_name[name]:
            out += [f"{name} gives Z({s}) = {got}, the stratified sum is {sums[s]}"
                    for s in SAMPLE_S if (got := _rational_function_value(z, s)) != sums[s]]
    want = acampo(graph)
    for name in ("monodromy_zeta", "acampo_from_graph"):
        out += [f"{name} gives {m.exponents()}, A'Campo's product is {want}"
                for _, m in by_name[name] if m.exponents() != want]
    graphs = [args[0] for args, _ in by_name["definitional_zeta"]]
    if len(graphs) == 2 and len(graphs[1].nodes) <= len(graphs[0].nodes):
        out.append("the refined graph has no more divisors than the minimal one")
    return out
