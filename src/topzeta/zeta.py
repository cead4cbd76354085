"""Exact rational functions in one variable s and the topological zeta forms.

A :class:`RationalFunction` is stored fully canonically as

    scale * num(s) / prod (N*s + nu)^exp

where ``scale`` is a rational number, ``num`` is a primitive integer
polynomial with positive leading coefficient, and the denominator is a
slope-sorted multiset of primitive linear factors ``(N, nu)`` with
``N >= 1``, none of which divides the numerator.  Canonical means equal
functions compare equal structurally, which is what the differential
tests against the resolution-graph oracle rely on.

The closed form ``zeta_general`` sums the per-bamboo contributions of an
annotated tree, with one leaf term ``r / ((N s + nu)(s + 1))`` per face
carrying ``r`` smooth branches.  A Newton-nondegenerate face list is the
one-bamboo tree of ``equitree.annotate_faces``; ``zeta_nondegenerate``
only names that composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from . import poly
from .equitree import AnnotatedTree, Leaf, annotate_faces


@dataclass(frozen=True)
class RationalFunction:
    scale: Fraction
    num: tuple[int, ...]
    den: tuple[tuple[tuple[int, int], int], ...]   # ((N, nu), exponent)

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        e1, e2 = dict(self.den), dict(other.den)
        common = {f: max(e1.get(f, 0), e2.get(f, 0)) for f in {*e1, *e2}}
        m1 = _expand_factors(common, e1)
        m2 = _expand_factors(common, e2)
        p1, q1 = self.scale.numerator, self.scale.denominator
        p2, q2 = other.scale.numerator, other.scale.denominator
        q = lcm(q1, q2)
        num = poly.add(
            poly.scale(poly.mul(list(self.num), m1), p1 * (q // q1)),
            poly.scale(poly.mul(list(other.num), m2), p2 * (q // q2)),
        )
        return _normalize(Fraction(1, q), num, common)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero():
            return self
        return RationalFunction(-self.scale, self.num, self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return ZERO
        den = dict(self.den)
        for f, e in other.den:
            den[f] = den.get(f, 0) + e
        return _normalize(self.scale * other.scale,
                          poly.mul(list(self.num), list(other.num)), den)

    __rmul__ = __mul__

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        if self.scale == -1 and self.num != (1,):
            parts.append("-")
        elif self.scale != 1:
            parts.append(f"{self.scale}")
        if self.num != (1,) or not parts:
            s = poly_str(self.num, "s")
            parts.append(f"({s})" if len(self.num) > 1 else s)
        head = " * ".join(p for p in parts if p != "-")
        if parts and parts[0] == "-":
            head = "-" + head
        if not self.den:
            return head
        facs = []
        for (n, v), e in self.den:
            base = f"({poly_str((v, n), 's')})"
            facs.append(base + (f"^{e}" if e > 1 else ""))
        return f"{head} / ({' * '.join(facs)})" if len(facs) > 1 else f"{head} / {facs[0]}"

    def to_json_dict(self) -> dict:
        return {
            "scale": _frac_str(self.scale),
            "numerator": list(self.num),
            "denominator": [{"N": n, "nu": v, "exp": e} for (n, v), e in self.den],
        }


ZERO = RationalFunction(Fraction(0), (), ())


def _coerce(value):
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (int, Fraction)):
        return rf(value)
    return NotImplemented


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def poly_str(coeffs, var):
    """Human form of a coefficient list, highest power first."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = _frac_str(Fraction(mag))
        else:
            head = "" if mag == 1 else f"{_frac_str(Fraction(mag))}*"
            body = f"{head}{var}" + (f"^{i}" if i > 1 else "")
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(terms) if terms else "0"


def _expand_factors(target, have):
    out = [1]
    for f, e in target.items():
        missing = e - have.get(f, 0)
        for _ in range(missing):
            out = poly.mul(out, [f[1], f[0]])
    return out


def rf(coef=1, num=(1,), den=()) -> RationalFunction:
    """Build a normalized rational function from raw parts.

    ``den`` entries are linear factors ``(N, nu)`` or ``((N, nu), exp)``.
    """
    factors = {}
    for item in den:
        if len(item) == 2 and isinstance(item[0], tuple):
            f, e = item
        else:
            f, e = tuple(item), 1
        if f == (0, 0):
            raise ValueError("(0, 0) is not a linear factor")
        factors[f] = factors.get(f, 0) + e
    coef = Fraction(coef)
    return _normalize(coef, list(num), factors)


def _normalize(scale: Fraction, num, factors) -> RationalFunction:
    num = poly.trim(num)
    if not num or scale == 0:
        return ZERO
    # clear rational coefficients into the scale
    denoms = [c.denominator for c in num if isinstance(c, Fraction)]
    if denoms:
        q = 1
        for d in denoms:
            q = lcm(q, d)
        num = [int(c * q) for c in num]
        scale /= q
    # primitive factors; constants move into the scale
    merged = {}
    for (n, v), e in factors.items():
        if e == 0:
            continue
        if e < 0:
            raise ValueError("denominator exponents must be positive")
        g = gcd(n, v)
        scale /= Fraction(g) ** e
        n, v = n // g, v // g
        if n == 0:
            continue    # the factor was the constant g, already absorbed
        merged[(n, v)] = merged.get((n, v), 0) + e
    # primitive numerator with positive leading coefficient
    content = 0
    for c in num:
        content = gcd(content, c)
    if num[-1] < 0:
        content = -content
    scale *= content
    num = [c // content for c in num]
    # cancel factors dividing the numerator (synthetic division at -nu/N)
    for f in list(merged):
        n, v = f
        while merged[f] > 0 and _root_vanishes(num, n, v):
            num = poly.div_exact(num, [v, n])
            merged[f] -= 1
        if merged[f] == 0:
            del merged[f]
    den = tuple(sorted(merged.items()))
    return RationalFunction(scale, tuple(num), den)


def _root_vanishes(num, n, v):
    # num(-v/n) == 0, cleared of denominators
    d = len(num) - 1
    acc = 0
    for j, c in enumerate(num):
        acc += c * (-v) ** j * n ** (d - j)
    return acc == 0


def rf_sum(terms) -> RationalFunction:
    """Balanced sum; much cheaper than a left fold on long term lists."""
    items = list(terms)
    if not items:
        return ZERO
    while len(items) > 1:
        items = [items[i] + items[i + 1] if i + 1 < len(items) else items[i]
                 for i in range(0, len(items), 2)]
    return items[0]


class Pole(NamedTuple):
    value: Fraction
    order: int


class Candidate(NamedTuple):
    value: Fraction
    path: tuple | None      # bamboo path, None for the universal candidate -1
    face: int | None


def poles(z: RationalFunction) -> list[Pole]:
    """Denominator roots with their orders, sorted by value.

    The canonical form has no factor dividing the numerator, so the order
    of the pole at -nu/N is exactly the stored exponent.
    """
    out = [Pole(Fraction(-v, n), e) for (n, v), e in z.den]
    out.sort(key=lambda p: p.value)
    return out


def candidate_poles(tree: AnnotatedTree) -> list[Candidate]:
    """Every -nu/N over the principal faces, with provenance, plus the
    universal candidate -1.  Coinciding values are kept separately."""
    out = [
        Candidate(Fraction(-f.nu, f.mult), b.path, i)
        for b in tree.bamboos
        for i, f in enumerate(b.faces)
    ]
    out.append(Candidate(Fraction(-1), None, None))
    return out


def is_order_two_candidate(tree: AnnotatedTree, path, face: int) -> bool:
    """True when the chain determinant vanishes at this face, which is the
    exact condition for its candidate to be a double pole."""
    return tree.bamboo(path).faces[face].chain_det == 0


def zeta_nondegenerate(faces) -> RationalFunction:
    """Local topological zeta function from Newton face data (a, b, r)."""
    return zeta_general(annotate_faces(faces))


def zeta_general(tree: AnnotatedTree) -> RationalFunction:
    """Local topological zeta function of an annotated tree.

    Per bamboo: the attachment term b_1 / ((base)(first face)), the chain
    of determinant terms closed off against the frame (0, 1), and minus
    r_i over each face; plus, per face with leaves, one term against
    (s + 1) weighted by its leaf count.
    """
    terms = []
    for bam in tree.bamboos:
        fs = bam.faces
        k = len(fs)
        terms.append(rf(fs[0].b, (1,),
                        [(bam.base_mult, bam.base_nu), (fs[0].mult, fs[0].nu)]))
        for i in range(k):
            if i + 1 < k:
                d = fs[i].a * fs[i + 1].b - fs[i].b * fs[i + 1].a
                nxt = (fs[i + 1].mult, fs[i + 1].nu)
            else:
                d = fs[i].a
                nxt = (0, 1)
            terms.append(rf(d, (1,), [(fs[i].mult, fs[i].nu), nxt]))
            terms.append(rf(-len(fs[i].classes), (1,), [(fs[i].mult, fs[i].nu)]))
        for f in fs:
            n_leaves = sum(isinstance(cls, Leaf) for cls in f.classes)
            if n_leaves:
                terms.append(rf(n_leaves, (1,), [(f.mult, f.nu), (1, 1)]))
    return rf_sum(terms)
