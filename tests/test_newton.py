import random
from fractions import Fraction
from math import gcd, lcm

import pytest

import poly_arith
from rational_euclid import monic_gcd
from reference_parser import parse_poly as reference_parse_poly
from test_golden import CASES
from topzeta import poly
from topzeta.cli import EXIT_DEGENERATE, main
from topzeta.lattice import PrimitiveVector
from topzeta.newton import (DegenerateCurveError, NewtonFace, ParseError, newton_faces,
                            nondegeneracy_check, parse_poly, poly_to_str,
                            to_face_specs)
from topzeta.resolution import build_graph_nondegenerate, definitional_zeta
from topzeta.zeta import poles, zeta_nondegenerate


# --- face oracle: normals by exhaustive minimization -------------------------

def face_oracle(p):
    """Compact faces found by scanning all primitive normals directly."""
    from math import gcd
    support = list(p)
    bound = max(max(a, b) for a, b in support) + 1
    found = {}
    for a in range(1, bound + 1):
        for b in range(1, bound + 1):
            if gcd(a, b) != 1:
                continue
            vals = [a * x + b * y for x, y in support]
            m = min(vals)
            pts = sorted(pt for pt, v in zip(support, vals) if v == m)
            if len(pts) >= 2:
                found[(a, b)] = (pts[0], pts[-1])
    return found


# --- parser ------------------------------------------------------------------

def test_parse_basic():
    assert parse_poly("y^2 - x^3") == {(0, 2): 1, (3, 0): -1}


def test_parse_combines_like_terms():
    with pytest.raises(ValueError, match="zero polynomial"):
        parse_poly("x*y + 2x*y - 3*x*y")


def test_parse_rejects_parentheses():
    with pytest.raises(ParseError):
        parse_poly("(x + y)^2")


def test_parse_rational_coefficients():
    assert parse_poly("1/2*x^2*y - 3y") == {(2, 1): Fraction(1, 2), (0, 1): -3}
    with pytest.raises(ParseError, match="zero denominator"):
        parse_poly("1/0*x")


def test_parse_implicit_products():
    assert parse_poly("2x^2y^3") == {(2, 3): 2}
    assert parse_poly("xy") == {(1, 1): 1}


@pytest.mark.parametrize("text, message", [
    ("", "empty input at index 0"),
    ("x +", "expected a term at index 2"),
    ("x + ", "expected a term at index 2"),
    ("x +\n\n", "expected a term at index 2"),
    ("x*", "unexpected character '*' at index 1"),
    ("2* + x", "unexpected character '*' at index 1"),
    ("x * \t- y", "unexpected character '*' at index 2"),
    ("x ++ y", "unexpected character '+' at index 3"),
    ("x^ + y", "expected digits at index 3"),
    ("1/ x", "expected digits at index 3"),
    ("1/0*x", "zero denominator at index 2"),
    ("x^2 + z", "unexpected character 'z' at index 6"),
    ("2 3x", "unexpected character '3' at index 2"),
    ("x^" + "9" * 5000, "cannot read the 5000-digit integer at index 2"),
], ids=["empty", "sign-at-the-end", "sign-then-a-space", "sign-then-newlines",
        "star-at-the-end", "star-before-a-sign", "star-then-space-before-a-sign", "two-signs", "no-exponent", "no-denominator",
        "zero-denominator", "letter-outside-the-grammar", "space-in-an-integer",
        "past-the-digit-limit"])
def test_parse_error_positions(text, message):
    with pytest.raises(ParseError) as err:
        parse_poly(text)
    assert str(err.value) == message
    assert err.value.position == int(message.rsplit(" ", 1)[1])


def test_parse_constant_term_rejected():
    with pytest.raises(ValueError, match="constant term"):
        parse_poly("1 + x")
    # a cancelling constant is fine
    assert parse_poly("1 + x - 1") == {(1, 0): 1}


def test_printer_roundtrip():
    for text in ("y^2 - x^3", "x^2 - 2*x*y + y^2", "1/2*x^5 + x^2*y^2 + 3/4*y^3"):
        p = parse_poly(text)
        printed = poly_to_str(p)
        assert parse_poly(printed) == p
        assert poly_to_str(parse_poly(printed)) == printed


PARSE_SEED = 29
PARSE_COUNT = 20_000            # random strings, and as many near-valid polynomials
WHITESPACE = " \t\n\x1c"
# the grammar's characters, whitespace, decimal digits that are not ASCII,
# and characters outside the grammar
ALPHABET = "xy0123456789+-*/^" + WHITESPACE + "\uff13\u0663" + "z(.X"
SUPERSCRIPT_TWO = "\u00b2"     # a digit, but not a decimal one


def _parse_outcome(parse, text):
    """The parsed map with each value's type, or the error's type and message."""
    try:
        return {key: (c, type(c)) for key, c in parse(text).items()}
    except ValueError as e:
        return type(e), str(e)


def _near_valid(rng):
    """A polynomial of the grammar with random spacing, now and then one whose
    terms cancel, with one or two characters inserted."""
    def digits():
        if rng.random() < 0.016:            # about Python's 4,300-digit limit of int()
            return "7" * rng.randint(4299, 4310)
        return "".join(rng.choice("0123456789\uff13\u0663") for _ in range(rng.randint(1, 2)))

    terms = []
    for _ in range(rng.randint(1, 3)):
        term = []
        if rng.random() < 0.5:
            term.append(digits())
            if rng.random() < 0.3:
                term += ["/", rng.choice(["0", digits(), digits()])]
            if rng.random() < 0.5:
                term.append("*")
        for var in "xy":
            if rng.random() < 0.7:
                term.append(var)
                if rng.random() < 0.6:
                    term += ["^", digits()]
                if var == "x" and rng.random() < 0.5:
                    term.append("*")
        terms.append([rng.choice("+-")] + term)
    if rng.random() < 0.2:
        terms += [["-" if t[0] == "+" else "+"] + t[1:] for t in terms]
    if rng.random() < 0.5:
        terms[0] = terms[0][1:]
    tokens = [token for term in terms for token in term]
    text = "".join(rng.choice(["", "", " ", rng.choice(WHITESPACE)]) + token for token in tokens)
    for _ in range(rng.randint(1, 2)):
        i = rng.randint(0, len(text))
        text = text[:i] + rng.choice(ALPHABET + SUPERSCRIPT_TWO) + text[i:]
    return text


def test_parser_matches_the_reference_scanner():
    """parse_poly reads every string as the character scanner it replaced
    does: the same map and value types, or the same error and message.
    Strings with a digit that is not decimal, as a superscript, are left
    out: the scanner took it for a digit and failed in int(), where the
    pattern does not match it."""
    rng = random.Random(PARSE_SEED)
    texts = ["".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 12)))
             for _ in range(PARSE_COUNT)]
    texts += [_near_valid(rng) for _ in range(PARSE_COUNT)]
    classes = {}
    for text in texts:
        if SUPERSCRIPT_TWO in text:
            continue
        outcome = _parse_outcome(parse_poly, text)
        assert outcome == _parse_outcome(reference_parse_poly, text), repr(text[:80])
        kind = "valid" if isinstance(outcome, dict) else " ".join(outcome[1].split()[:2])
        classes[kind] = classes.get(kind, 0) + 1
    assert set(classes) == {
        "valid", "empty input", "expected a", "unexpected character", "expected digits",
        "zero denominator", "cannot read", "zero polynomial", "nonzero constant"}
    assert min(classes.values()) >= 200, classes


# --- Newton polygon ----------------------------------------------------------

def test_faces_cusp():
    (face,) = newton_faces(parse_poly("y^2-x^3"))
    assert (face.normal.a, face.normal.b) == (2, 3)
    assert face.lattice_points == ((0, 2), (3, 0))
    assert face.face_poly == (1, -1)


def test_faces_node():
    (face,) = newton_faces(parse_poly("x^2-y^2"))
    assert (face.normal.a, face.normal.b) == (1, 1)
    assert face.lattice_points == ((0, 2), (1, 1), (2, 0))
    assert face.face_poly == (-1, 0, 1)


def test_faces_single_when_middle_point_is_interior():
    # (2,2) lies above the segment from (0,3) to (5,0): one face only
    faces = newton_faces(parse_poly("x^5+x^2*y^2+y^3"))
    assert [(f.normal.a, f.normal.b) for f in faces] == [(3, 5)]
    assert faces[0].lattice_points == ((0, 3), (5, 0))


def test_faces_two_face_polygon():
    faces = newton_faces(parse_poly("y^5+x^2*y^2+x^5"))
    assert [(f.normal.a, f.normal.b) for f in faces] == [(3, 2), (2, 3)]


def test_faces_match_exhaustive_normal_scan():
    for text in ("y^2-x^3", "x^2-y^2", "x^5+x^2*y^2+y^3", "y^5+x^2*y^2+x^5",
                 "y^3+x^2*y+x^5", "y^4+x*y^2+x^3", "x^7+x^4*y+x*y^3+y^6"):
        p = parse_poly(text)
        faces = newton_faces(p)
        oracle = face_oracle(p)
        got = {(f.normal.a, f.normal.b):
               (f.lattice_points[0], f.lattice_points[-1]) for f in faces}
        assert got == oracle, text


def test_faces_require_both_axes():
    with pytest.raises(ValueError, match="divisible by x or y"):
        newton_faces(parse_poly("x^2*y + x*y^2"))
    with pytest.raises(ValueError, match="divisible by x or y"):
        newton_faces(parse_poly("x^2 + x*y"))


def test_faces_ignore_terms_above_polygon():
    same = ["y^2-x^3", "y^2-x^3+x^100", "y^2-x^3+x^5*y^5"]
    reference = newton_faces(parse_poly(same[0]))
    for text in same[1:]:
        assert newton_faces(parse_poly(text)) == reference


def test_faces_invariant_under_scaling():
    p = parse_poly("y^5+x^2*y^2+x^5")
    scaled = {k: Fraction(-7, 3) * v for k, v in p.items()}
    assert [f.normal for f in newton_faces(scaled)] == \
        [f.normal for f in newton_faces(p)]
    assert [(f.normal, f.lattice_points) for f in newton_faces(scaled)] == \
        [(f.normal, f.lattice_points) for f in newton_faces(p)]


def test_face_poly_endpoints_nonzero():
    for text in ("y^2-x^3", "x^2-y^2", "y^5+x^2*y^2+x^5"):
        for f in newton_faces(parse_poly(text)):
            assert f.face_poly[0] != 0 and f.face_poly[-1] != 0


# --- nondegeneracy and specs ---------------------------------------------------

def test_nondegeneracy_examples():
    assert nondegeneracy_check(newton_faces(parse_poly("y^2-x^3"))) is None
    assert nondegeneracy_check(newton_faces(parse_poly("x^2-y^2"))) is None
    witness = nondegeneracy_check(newton_faces(parse_poly("x^2-2*x*y+y^2")))
    assert witness is not None and witness.gcd_degree == 1


def test_coefficients_stay_integers():
    """Integer input is parsed, and read off the faces, as int: Fraction
    comes only from an a/b literal."""
    assert all(type(c) is int for c in parse_poly("y^2 - x^3").values())
    texts = ["x^12 + y^12"] + [argv[1] for argv in CASES.values()
                               if argv[0] == "poly" and "/" not in argv[1]]
    assert len(texts) > 5
    for text in texts:
        for face in newton_faces(parse_poly(text)):
            assert all(type(c) is int for c in face.face_poly), text
    assert type(parse_poly("1/2*x^2*y")[(2, 1)]) is Fraction
    witness = nondegeneracy_check(newton_faces(parse_poly("x^2-2*x*y+y^2")))
    assert witness.gcd == (Fraction(-1), Fraction(1))
    assert all(type(c) is Fraction for c in witness.gcd)


def test_degenerate_exit_message(capsys):
    assert main(["poly", "y^3 - 3/1*x^2*y + 2*x^3"]) == EXIT_DEGENERATE
    assert capsys.readouterr().err == ("error: degenerate along the face with normal (1,1): "
                                       "gcd(G, G') has degree 1\n")


GCD_SEED = 23
GCD_COUNT = 2400


def _random_factor(rng):
    """A factor of degree 1..3 with nonzero constant term; a third of them
    have Fraction coefficients."""
    f = [rng.choice([-1, 1]) * rng.randint(1, 6)]
    f += [rng.randint(-6, 6) for _ in range(rng.randint(0, 2))]
    f.append(rng.choice([-1, 1]) * rng.randint(1, 4))
    if rng.random() < 1 / 3:
        f = [Fraction(c, rng.randint(1, 5)) for c in f]
    return f


def _random_face_poly(rng, i):
    """A face polynomial G (nonzero at both ends, degree >= 1); every
    fourth is sparse c0 + c t^n, or its square, with long runs of zeros."""
    if i % 4 == 3:
        n = rng.randint(20, 120)
        G = [rng.choice([-1, 1]) * rng.randint(1, 9)] + [0] * (n - 1) + [rng.randint(-9, 9) or 1]
        return poly_arith.mul(G, G) if rng.random() < 0.3 else G
    G = [rng.choice([-1, 1]) * Fraction(rng.randint(1, 7), rng.randint(1, 3))]
    for _ in range(rng.randint(1, 3)):
        G = poly_arith.mul(G, _random_factor(rng))
    if rng.random() < 0.5:                      # a repeated factor
        f = _random_factor(rng)
        for _ in range(rng.randint(2, 3)):
            G = poly_arith.mul(G, f)
    return [c.numerator if type(c) is Fraction and c.denominator == 1 else c for c in G]


def test_integer_gcd_matches_rational_euclid(monkeypatch):
    """gcd(G, G') over Z by primitive pseudo-remainders, and the witness
    read off it, against the Euclidean algorithm over Q."""
    scaled = []
    pseudo_rem = poly.pseudo_rem

    def recording_rem(f, g):
        scaled.append(len(f) >= len(g) and g[-1] != 1)
        return pseudo_rem(f, g)

    monkeypatch.setattr(poly, "pseudo_rem", recording_rem)
    rng = random.Random(GCD_SEED)
    shapes = dict(repeated=0, fraction=0, negative_lead=0, scaled_remainder=0, sparse=0)
    for i in range(GCD_COUNT):
        G = _random_face_poly(rng, i)
        ref = monic_gcd(G, poly.derivative(G))
        den = lcm(*(c.denominator for c in G))
        Z = [int(c * den) for c in G]
        scaled.clear()
        g = poly.primitive_gcd(Z, poly.derivative(Z))
        # the primitive associate of the monic reference
        ref_den = lcm(*(c.denominator for c in ref))
        ints = [int(c * ref_den) for c in ref]
        assert g == [c // gcd(*ints) for c in ints], G
        assert len(g) == len(ref) and [Fraction(c, g[-1]) for c in g] == ref, G
        face = NewtonFace(PrimitiveVector(1, 1), tuple((j, len(G) - 1 - j) for j in range(len(G))),
                          tuple(G))
        witness = nondegeneracy_check([face])
        if len(ref) > 1:
            assert witness is not None and witness.gcd == tuple(ref), G
        else:
            assert witness is None, G
        shapes["repeated"] += len(ref) > 1
        shapes["fraction"] += any(type(c) is Fraction for c in G)
        shapes["negative_lead"] += G[-1] < 0
        shapes["scaled_remainder"] += any(scaled[1:])   # divisor a remainder, not G''
        shapes["sparse"] += G.count(0) >= 19
    print(shapes)
    assert min(shapes.values()) >= 200, shapes


def test_to_face_specs():
    assert to_face_specs(newton_faces(parse_poly("y^2-x^3"))) == [(2, 3, 1)]
    assert to_face_specs(newton_faces(parse_poly("x^2-y^2"))) == [(1, 1, 2)]
    assert to_face_specs(newton_faces(parse_poly("y^5+x^2*y^2+x^5"))) == \
        [(3, 2, 1), (2, 3, 1)]
    with pytest.raises(DegenerateCurveError):
        to_face_specs(newton_faces(parse_poly("x^2-2*x*y+y^2")))


def test_pipeline_closed_form_equals_oracle():
    for text in ("y^2-x^3", "x^2-y^2", "y^5+x^2*y^2+x^5", "y^3+x^2*y+x^5"):
        specs = to_face_specs(newton_faces(parse_poly(text)))
        z = zeta_nondegenerate(specs)
        assert definitional_zeta(build_graph_nondegenerate(specs)) == z


def test_order_two_pole_through_polynomial_pipeline():
    specs = to_face_specs(newton_faces(parse_poly("y^5+x^2*y^2+x^5")))
    z = zeta_nondegenerate(specs)
    assert (Fraction(-1, 2), 2) in poles(z)


def test_node_pipeline_golden():
    specs = to_face_specs(newton_faces(parse_poly("x^2-y^2")))
    z = zeta_nondegenerate(specs)
    assert (z.scale, z.num, z.den) == (Fraction(1), (1,), (((1, 1), 2),))
