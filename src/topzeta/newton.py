"""Bivariate polynomial frontend: parsing, Newton polygon, nondegeneracy.

Input polynomials are sparse maps from exponent pairs to nonzero
coefficients: an ``int``, or a ``Fraction`` only where an ``a/b`` literal
made one.  The accepted grammar is deliberately tiny:

    poly     = [+|-] term ((+|-) term)*
    term     = [rational [*]] [x[^int] [*]] [y[^int]], not empty
    rational = int | int/int

where int is a run of decimal digits, a * stands before a factor of its
term, whitespace may stand between tokens but not inside an int, and
there are no parentheses.  The curve must
vanish at the origin (no constant term) and must not be divisible by x
or y: monomial factors have to be divided out by the caller.

The compact faces of the Newton polygon are extracted with an exact
integer lower-hull; each face carries its primitive inner normal (a, b),
the lattice points along the face in steps of (b, -a) from the high-y
end, and the face polynomial G read off those points.  Nondegeneracy is
squarefreeness of every G, decided over Z: gcd(G, G') of G cleared of
denominators, by primitive pseudo-remainders, is by Gauss's lemma the gcd
over Q up to a factor, and certifies simple roots over C as well.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import poly
from .lattice import PrimitiveVector

# Most lattice steps along one face, and along all faces together.  A face's
# points, its face polynomial and the gcd that checks it cost time linear in
# its steps, so a face that passes the limit, alone or with the faces before
# it, is refused before its points are made.
MAX_FACE_LENGTH = 100_000


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} at index {position}")
        self.position = position


class DegenerateCurveError(ValueError):
    def __init__(self, witness):
        face = witness.face
        super().__init__(
            f"degenerate along the face with normal {face.normal}: "
            f"gcd(G, G') has degree {witness.gcd_degree}")
        self.witness = witness


# One term: its sign, which the first term may leave out, and its tokens,
# with whitespace between them, up to the sign of the next term.  The digits
# after '/' and '^' may be missing, so that their absence is reported where
# they should stand; a '*' before the end of the term is left unmatched, so
# that it is reported as the character that ends the term.
_TERM = re.compile(r"""
    \s* (?P<sign>[+-]?) \s*
    (?: (?P<num>\d+) \s* (?: / \s* (?P<den>\d*) \s* )? (?: \* (?! \s* (?:[+-]|\Z) ) \s* )? )?
    (?: (?P<x>x) \s* (?: \^ \s* (?P<ex>\d*) \s* )? (?: \* (?! \s* (?:[+-]|\Z) ) \s* )? )?
    (?: (?P<y>y) \s* (?: \^ \s* (?P<ey>\d*) \s* )? )?
""", re.VERBOSE)


def _read_int(m, group):
    digits = m[group]
    if not digits:
        raise ParseError("expected digits", m.start(group))
    try:
        return int(digits)
    except ValueError:      # past Python's digit limit
        raise ParseError(f"cannot read the {len(digits)}-digit integer", m.start(group)) from None


def parse_poly(text: str) -> dict:
    """Parse to a sparse map (exponent pair) -> nonzero int, or Fraction for a/b."""
    if not text.strip():
        raise ParseError("empty input", 0)
    terms = {}
    i, n = 0, len(text)
    while i < n:
        m = _TERM.match(text, i)
        sign, num, den, x, ex, y, ey = m.groups()
        i = m.end()
        if num is None and x is None and y is None:
            if i < n:
                raise ParseError(f"unexpected character {text[i]!r}", i)
            raise ParseError("expected a term", m.start("sign"))
        coef = 1 if num is None else _read_int(m, "num")
        if den is not None:
            d = _read_int(m, "den")
            if d == 0:
                raise ParseError("zero denominator", m.start("den"))
            coef = Fraction(coef, d)
        key = (0 if x is None else 1 if ex is None else _read_int(m, "ex"),
               0 if y is None else 1 if ey is None else _read_int(m, "ey"))
        if i < n and text[i] not in "+-":
            raise ParseError(f"unexpected character {text[i]!r}", i)
        terms[key] = terms.get(key, 0) + (-coef if sign == "-" else coef)
        if terms[key] == 0:
            del terms[key]
    if not terms:
        raise ValueError("zero polynomial")
    if (0, 0) in terms:
        raise ValueError("nonzero constant term: the curve must pass through the origin")
    return terms


def poly_to_str(p: dict) -> str:
    """Canonical printer: graded-lex descending, explicit '^', '*' joints."""
    def key(item):
        (a, b), _ = item
        return (a + b, a)

    parts = []
    for (a, b), c in sorted(p.items(), key=key, reverse=True):
        mag = abs(c)
        factors = []
        if mag != 1 or (a, b) == (0, 0):
            factors.append(str(mag))
        if a:
            factors.append("x" if a == 1 else f"x^{a}")
        if b:
            factors.append("y" if b == 1 else f"y^{b}")
        body = "*".join(factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


@dataclass(frozen=True)
class NewtonFace:
    normal: PrimitiveVector
    lattice_points: tuple[tuple[int, int], ...]   # high-y end first
    face_poly: tuple[int | Fraction, ...]         # G, constant term first


@dataclass(frozen=True)
class DegenerateWitness:
    face: NewtonFace
    gcd: tuple

    @property
    def gcd_degree(self) -> int:
        return len(self.gcd) - 1


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def newton_faces(p: dict) -> list[NewtonFace]:
    """Compact faces of the Newton polygon, slope-increasing normals."""
    if not p:
        raise ValueError("zero polynomial")
    support = sorted(p)
    if not any(b == 0 for _, b in support) or not any(a == 0 for a, _ in support):
        raise ValueError("polynomial is divisible by x or y; divide the monomial out first")
    hull = []
    for pt in support:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)
    chain = []
    for pt in hull:
        chain.append(pt)
        if pt[1] == 0:
            break
    faces = []
    total = 0
    for v1, v2 in zip(chain, chain[1:]):
        dx = v2[0] - v1[0]
        dy = v1[1] - v2[1]
        g = gcd(dx, dy)
        normal = PrimitiveVector(dy // g, dx // g)
        total += g
        if total > MAX_FACE_LENGTH:
            length = (f"has lattice length {g}" if total == g
                      else f"brings the total lattice length to {total}")
            raise ValueError(f"the face with normal {normal} {length}, "
                             f"past the limit of {MAX_FACE_LENGTH}")
        points = tuple((v1[0] + j * normal.b, v1[1] - j * normal.a)
                       for j in range(g + 1))
        coeffs = tuple(p.get(pt, 0) for pt in points)
        assert coeffs[0] != 0 and coeffs[-1] != 0
        faces.append(NewtonFace(normal, points, coeffs))
    for f1, f2 in zip(faces, faces[1:]):
        assert f1.normal < f2.normal
    return faces


def nondegeneracy_check(faces) -> DegenerateWitness | None:
    """None when every face polynomial is squarefree; otherwise the first
    offending face together with the monic gcd(G, G') over Q."""
    for face in faces:
        den = lcm(*(c.denominator for c in face.face_poly))
        G = [c.numerator * (den // c.denominator) for c in face.face_poly]
        g = poly.primitive_gcd(G, poly.derivative(G))
        if len(g) > 1:
            return DegenerateWitness(face, tuple(Fraction(c, g[-1]) for c in g))
    return None


def to_face_specs(faces) -> list[tuple[int, int, int]]:
    """(a, b, r) per face with r = deg G, the input of annotate_faces."""
    witness = nondegeneracy_check(faces)
    if witness is not None:
        raise DegenerateCurveError(witness)
    return [(f.normal.a, f.normal.b, len(f.face_poly) - 1) for f in faces]
