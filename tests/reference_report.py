"""The report assembly that ``topzeta`` used before it was made linear,
kept as it was: the reference that the linear code is tested against.

- ``canonical`` is ``zeta._canonical`` as it multiplied polynomials by
  the generic ``poly.mul``, ``f^e`` and a Horner sum per factor;
- ``poles`` is ``zeta.poles`` as it sorted the poles by their
  ``Fraction`` values;
- ``pole_entries`` is ``cli._pole_entries`` as it compared every pole
  with every candidate as ``Fraction``s.
"""

from fractions import Fraction
from math import gcd

from topzeta import poly
from topzeta.zeta import Pole


def canonical(parts, den):
    """``(scale, num)`` of ``parts`` with denominator ``den``.  ``num / D``
    starts at ``0 / 1`` and takes in one factor ``f`` of pole order ``e``
    at a time as ``(num f^e + D sum_k c_k f^(e - k)) / (D f^e)``; the
    numerator is then cleared of its content."""
    residues, denominator = parts
    if not residues:
        return Fraction(0), ()
    residues = dict(residues)
    num, full = [], [1]
    for (n, v), e in den:
        power, inner = [1], []
        for k in range(1, e + 1):       # f^e, and Horner in f over c_1 .. c_e
            power = poly.mul(power, [v, n])
            c = residues.get(((n, v), k), 0)
            inner = poly.add(poly.mul(inner, [v, n]), [c])
        num = poly.add(poly.mul(num, power), poly.mul(inner, full))
        full = poly.mul(full, power)
    content = gcd(*num) if num[-1] > 0 else -gcd(*num)
    return Fraction(content, denominator), tuple(c // content for c in num)


def poles(z):
    """Denominator roots with their orders, sorted by value."""
    out = [Pole(Fraction(-v, n), e) for (n, v), e in z.den]
    out.sort(key=lambda p: p.value)
    return out


def pole_entries(ps, candidates):
    """The report's pole entries: each pole with every candidate of its
    value, in candidate order."""
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
