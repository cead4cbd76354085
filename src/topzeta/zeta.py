"""Exact rational functions in one variable s and the topological zeta forms.

Every zeta function here is a sum of terms ``c * num(s) / prod (N*s + nu)``
(the closed form's per-face terms, the oracle's strata).  ``rf_sum`` adds
them in partial fractions: a polynomial part plus a residue map
``((N, nu), k) -> c`` over primitive linear factors with ``N >= 1``, zero
entries dropped.  Two primitives build that form.  Dividing by a linear
factor ``g`` is synthetic division on the polynomial part, a power raised
on a residue at ``g`` itself, and on any other ``f = N s + nu`` the split

    1 / (f g) = (N / f - M / g) / d,   g = M s + mu,   d = N mu - M nu,

applied once per power of ``f``.  Partial fractions are unique, so the
sum needs no cancellation step: a pole is a factor with a nonzero
residue, and its order is the highest power whose residue is nonzero.
The sum runs in integers.  A term is kept over one integer denominator
``D``, at first its coefficient's denominator times its factors'
contents, and is multiplied up before each division so that every quotient
is an exact ``//``.  Terms with equal ``D`` are added in one group, and
the groups once, over the lcm of their ``D``.

Every term of the closed form and of the oracle's strata is a constant
``c`` over one linear factor or two.  Over one primitive factor ``f``,
or two distinct ones ``f g``, it is split in one step, without a
division: ``c`` is the residue at ``f``, or ``c n / d`` at ``f`` and
``-c m / d`` at ``g``, the sign of ``d`` moved into ``c`` and ``|d|``
into ``D``.  These are the residues the division gives, and partial
fractions are unique, so the sum's parts do not depend on which way a
term went.  A polynomial numerator or a repeated primitive factor
(``d = 0``, on the chain of a double pole) is divided as above.

Partial fractions are the stored form, ``RationalFunction.parts``: the
polynomial part and the sorted residues as integers over one positive
denominator, all divided by their common gcd.  That makes them unique, so
equality and hashing compare them, and ``poles`` reads the orders off
them.  The printed form

    scale * num(s) / prod (N*s + nu)^exp

where ``scale`` is a rational number, ``num`` is a primitive integer
polynomial with positive leading coefficient, and the denominator lists
those factors, sorted by ``(N, nu)``, with their pole orders, is derived
on first read: ``den`` from the orders alone, ``scale`` and ``num`` by
one canonicalization in integers.  Any common denominator gives that
form, since ``num`` is primitive and ``scale`` reduced.  A function built
from the printed form, as a report's JSON is read back, gets its parts
only when first compared.

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


@dataclass(frozen=True, eq=False)
class RationalFunction:
    """A rational function in s, in the forms of the module docstring.

    ``rf_sum`` builds it from ``parts = (poly, residues, D)``: the
    polynomial part, one ``(((N, nu), k), c)`` per nonzero residue
    ``c / (N s + nu)^k`` in sorted order, and their denominator ``D``.
    Either form is derived from the other when first read.
    """

    scale: Fraction
    num: tuple[int, ...]
    den: tuple[tuple[tuple[int, int], int], ...]   # ((N, nu), exponent)

    def __getattr__(self, name):
        # reached only for a form not held yet, which is stored through
        # __dict__ because the instance is frozen
        fields = self.__dict__
        if name == "parts":
            fields[name] = rf(self.scale, self.num, self.den).parts
        elif name == "den":     # residues are sorted: a factor's last power is its order
            fields[name] = tuple({f: k for (f, k), _ in self.parts[1]}.items())
        elif name in ("scale", "num"):
            fields["scale"], fields["num"] = _canonical(self.parts, self.den)
        else:
            raise AttributeError(name)
        return fields[name]

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __str__(self):
        if not self.num:
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
            base = f"({_linear_str(n, v)})"
            facs.append(base + (f"^{e}" if e > 1 else ""))
        return f"{head} / ({' * '.join(facs)})" if len(facs) > 1 else f"{head} / {facs[0]}"

    def to_json_dict(self) -> dict:
        return {
            "scale": str(self.scale),
            "numerator": list(self.num),
            "denominator": [{"N": n, "nu": v, "exp": e} for (n, v), e in self.den],
        }


ZERO = RationalFunction(Fraction(0), (), ())


def _linear_str(n, v):
    """``poly_str((v, n), "s")`` of a factor ``n s + v`` with ``n >= 1``."""
    head = "s" if n == 1 else f"{n}*s"
    return head if not v else f"{head} + {v}" if v > 0 else f"{head} - {-v}"


class _TermHeads(dict):
    """Sign and magnitude of a term by its coefficient: " + 3*", " - "."""

    def __missing__(self, c):
        mag = abs(c)
        head = self[c] = (" + " if c > 0 else " - ") + ("" if mag == 1 else f"{mag}*")
        return head


def poly_str(coeffs, var):
    """Human form of a coefficient list, highest power first."""
    heads = _TermHeads()
    terms = [f"{heads[c]}{var}^{i}"
             for i, c in zip(range(len(coeffs) - 1, 1, -1), reversed(coeffs)) if c]
    if len(coeffs) > 1 and coeffs[1]:
        terms.append(heads[coeffs[1]] + var)
    if coeffs and coeffs[0]:
        c = coeffs[0]
        terms.append(f"{' + ' if c > 0 else ' - '}{abs(c)}")
    if not terms:
        return "0"
    first = terms[0]
    terms[0] = first[3:] if first[1] == "+" else "-" + first[3:]
    return "".join(terms)


def rf(coef=1, num=(1,), den=()) -> RationalFunction:
    """``coef * num(s) / prod den`` as a one-term sum.

    ``den`` entries are linear factors ``(N, nu)`` or ``((N, nu), exp)``.
    """
    return rf_sum([(coef, num, den)])


def rf_sum(terms) -> RationalFunction:
    """Sum of terms ``(coef, num, den)``, each in the format of ``rf``,
    added in partial fractions, which the result holds as its ``parts``."""
    groups = {}     # denominator -> [polynomial part, residues] over it
    for coef, num, den in terms:
        coef = coef if isinstance(coef, int) else Fraction(coef)
        a, denom, factors = coef.numerator, coef.denominator, []
        for item in den:
            (n, v), e = item if isinstance(item[0], tuple) else (item, 1)
            if (n, v) == (0, 0):
                raise ValueError("(0, 0) is not a linear factor")
            if e < 0:
                raise ValueError("denominator exponents must be positive")
            # the content and sign of the factor, or all of it when N = 0,
            # move into the denominator, which may be negative
            g = gcd(n, v) if n > 0 else -gcd(n, v) if n else v
            denom *= g ** e
            if n:
                factors += [(n // g, v // g)] * e
        if len(num) == 1 and (len(factors) == 1 or
                              len(factors) == 2 and factors[0] != factors[1]):
            # c / f, or c / (f g) = (n / f - m / g) c / d, split in one step
            a *= num[0]
            f = factors[0]
            if len(factors) == 2:
                (n, v), g = f, factors[1]
                m, mu = g
                d = n * mu - m * v
                if d < 0:
                    a, d = -a, -d
                denom *= d
                res = groups.setdefault(denom, [[], {}])[1]
                res[g, 1] = res.get((g, 1), 0) - a * m
                a *= n
            else:
                res = groups.setdefault(denom, [[], {}])[1]
            res[f, 1] = res.get((f, 1), 0) + a
            continue
        p, res = [a * c for c in num], {}
        for f in factors:
            p, res, denom = _divide(p, res, denom, f)
        group = groups.setdefault(denom, [[], {}])
        if p:
            group[0] = poly.add(group[0], p)
        for key, c in res.items():
            group[1][key] = group[1].get(key, 0) + c
    common = lcm(*groups)
    poly_part, residues = [], {}
    for denom, (p, res) in groups.items():
        k = common // denom
        if p:
            poly_part = poly.add(poly_part, [c * k for c in p])
        for key, c in res.items():
            residues[key] = residues.get(key, 0) + c * k
    residues = sorted(item for item in residues.items() if item[1])
    content = gcd(common, *poly_part, *(c for _, c in residues))
    z = object.__new__(RationalFunction)
    z.__dict__["parts"] = (tuple(c // content for c in poly_part),
                           tuple((key, c // content) for key, c in residues), common // content)
    return z


def _divide(p, res, denom, g):
    """``(p(s) + sum res[f, k] / f^k) / denom`` divided by the primitive
    factor ``g = m s + mu``.  Its parts and ``denom`` are first multiplied
    by the lcm of ``m^(len(p) - 1)`` and the ``d^k`` below: ``//`` is exact."""
    m, mu = g
    scale = m ** (len(p) - 1) if len(p) > 1 else 1
    for (n, v), k in res:
        if (n, v) != g:
            scale = lcm(scale, (n * mu - m * v) ** k)
    if scale != 1:
        p = [c * scale for c in p]
        res = {key: c * scale for key, c in res.items()}
    # synthetic division from the top: p = g q + r
    q, out = [0] * (len(p) - 1), {}
    r = p[-1] if p else 0
    for i in range(len(p) - 2, -1, -1):
        q[i] = r // m
        r = p[i] - mu * q[i]
    if r:
        out[g, 1] = r
    for (f, k), c in res.items():
        if f == g:
            out[g, k + 1] = c
            continue
        # c / (f^k g) = (n / d) c / f^k - (m / d) c / (f^(k-1) g), unrolled
        n, v = f
        d = n * mu - m * v
        for j in range(k, 0, -1):
            c //= d
            out[f, j] = out.get((f, j), 0) + c * n
            c *= -m
        out[g, 1] = out.get((g, 1), 0) + c
    return q, out, denom * scale


def _canonical(parts, den):
    """``(scale, num)`` of ``parts`` with denominator ``den``.  ``num / D``
    starts at ``p / 1`` and takes in one factor ``f`` of pole order ``e``
    at a time as ``(num f^e + D sum_k c_k f^(e - k)) / (D f^e)``; the
    numerator is then cleared of its content."""
    poly_part, residues, denominator = parts
    if not poly_part and not residues:
        return Fraction(0), ()
    residues = dict(residues)
    num, full = poly_part, [1]
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


class Pole(NamedTuple):
    value: Fraction
    order: int


class Candidate(NamedTuple):
    value: Fraction
    path: tuple | None      # bamboo path, None for the universal candidate -1
    face: int | None


def poles(z: RationalFunction) -> list[Pole]:
    """Denominator roots with their orders, sorted by value.

    The exponent of a factor in ``den`` is the highest power with a
    nonzero residue, so it is exactly the order of the pole at -nu/N.
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
        terms.append((fs[0].b, (1,),
                      [(bam.base_mult, bam.base_nu), (fs[0].mult, fs[0].nu)]))
        for i in range(k):
            if i + 1 < k:
                d = fs[i].a * fs[i + 1].b - fs[i].b * fs[i + 1].a
                nxt = (fs[i + 1].mult, fs[i + 1].nu)
            else:
                d = fs[i].a
                nxt = (0, 1)
            terms.append((d, (1,), [(fs[i].mult, fs[i].nu), nxt]))
            terms.append((-len(fs[i].classes), (1,), [(fs[i].mult, fs[i].nu)]))
        for f in fs:
            n_leaves = sum(isinstance(cls, Leaf) for cls in f.classes)
            if n_leaves:
                terms.append((n_leaves, (1,), [(f.mult, f.nu), (1, 1)]))
    return rf_sum(terms)
