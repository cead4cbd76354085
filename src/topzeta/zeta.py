"""Exact rational functions in one variable s and the topological zeta forms.

On a surface every stratum ``E_I°`` of a resolution meets at most two
divisors, so every term of Denef--Loeser's formula

    Z_top(s) = sum chi(E_I°) prod_(i in I) 1 / (N_i s + nu_i)

is a rational constant over one linear factor or two, and so is every
term of the closed form read off the toric-modification graph.
``rf_sum`` adds such stratum terms ``(c, (f,))`` and ``(c, (f, g))``,
with ``f, g = (N, nu)``, in partial fractions: a residue map
``((N, nu), k) -> c`` over primitive linear factors with ``N >= 1``,
zero entries dropped.  Each term is split in one step, and each distinct
factor once per sum.  A factor's content and sign move into the term's
integer denominator ``D``, at first the coefficient's denominator, and a
factor with ``N = 0`` moves there whole.  What is left is one primitive
factor ``f``, where ``c`` is the residue at ``f``; or two,
``f = N s + nu`` and ``g = M s + mu``, split by

    1 / (f g) = (N / f - M / g) / d,   d = N mu - M nu,

with ``d`` moved into ``D``, which may be negative; or, when
``f = g`` (``d = 0``, on the chain of a double pole), the residue ``c``
at ``f^2``.  Partial fractions are unique, so the sum needs no
cancellation step: a pole is a factor with a nonzero residue, and its
order is the highest power whose residue is nonzero.  The sum runs in
integers: terms with equal ``D`` are added in one group, and the groups
once, over the lcm of their ``D``.

Partial fractions are the stored form, ``RationalFunction.parts``: the
sorted residues as integers over one positive denominator, all divided
by their common gcd.  That makes them unique, so equality compares them,
and ``poles`` reads the orders off them.  The printed form

    scale * num(s) / prod (N*s + nu)^exp

where ``scale`` is a rational number, ``num`` is a primitive integer
polynomial with positive leading coefficient, and the denominator lists
those factors, sorted by ``(N, nu)``, with their pole orders, is derived
on first read: ``den`` from the orders alone, ``scale`` and ``num`` by
one canonicalization in integers, which takes in one linear factor at a
time, each power of it in one pass over the coefficient list.  Any
common denominator gives that form, since ``num`` is primitive and
``scale`` reduced.  ``poles`` sorts the factors of ``den`` by the integer
``-nu (L / N)``, ``L`` the lcm of their N, which is the pole's value
times ``L``: no two ``Fraction``s are compared.  A function built
from the printed form, as a report's JSON is read back, has no parts; it
compares by its printed form.

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

from .equitree import AnnotatedTree, Leaf, annotate_faces


@dataclass(frozen=True, eq=False)
class RationalFunction:
    """A rational function in s, in the forms of the module docstring.

    ``rf_sum`` builds it from ``parts = (residues, D)``: one
    ``(((N, nu), k), c)`` per nonzero residue ``c / (N s + nu)^k`` in
    sorted order, and their denominator ``D``; the printed form is
    derived from them when first read.  One built from ``(scale, num,
    den)`` has the printed form only.  Two functions with parts compare
    by them, any other pair by the printed form; both ways, equal
    functions have equal ``den``, which is what ``hash`` reads.
    """

    scale: Fraction
    num: tuple[int, ...]
    den: tuple[tuple[tuple[int, int], int], ...]   # ((N, nu), exponent)

    def __getattr__(self, name):
        # reached only for a printed field of a function built from parts,
        # stored through __dict__ because the instance is frozen
        fields = self.__dict__
        if "parts" not in fields:
            raise AttributeError(name)
        if name == "den":       # residues are sorted: a factor's last power is its order
            fields[name] = tuple({f: k for (f, k), _ in self.parts[0]}.items())
        elif name in ("scale", "num"):
            fields["scale"], fields["num"] = _canonical(self.parts, self.den)
        else:
            raise AttributeError(name)
        return fields[name]

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if "parts" in self.__dict__ and "parts" in other.__dict__:
            return self.parts == other.parts
        return (self.scale, self.num, self.den) == (other.scale, other.num, other.den)

    def __hash__(self):
        return hash(self.den)

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
            base = f"({poly_str((v, n), 's')})"
            facs.append(base + (f"^{e}" if e > 1 else ""))
        return f"{head} / ({' * '.join(facs)})" if len(facs) > 1 else f"{head} / {facs[0]}"

    def to_json_dict(self) -> dict:
        return {
            "scale": str(self.scale),
            "numerator": list(self.num),
            "denominator": [{"N": n, "nu": v, "exp": e} for (n, v), e in self.den],
        }


ZERO = RationalFunction(Fraction(0), (), ())


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


class _FactorSplits(dict):
    """A factor ``(N, nu)`` split once: the content and sign that move
    into a term's denominator, and the primitive factor, or all of the
    factor and None when ``N = 0``; the denominator may be negative."""

    def __missing__(self, f):
        n, v = f
        if n == 0 == v:
            raise ValueError("(0, 0) is not a linear factor")
        g = gcd(n, v) if n > 0 else -gcd(n, v) if n else v
        split = self[f] = g, (n // g, v // g) if n else None
        return split


def rf_sum(terms) -> RationalFunction:
    """Sum of stratum terms ``(c, den)``: a rational ``c`` over the one or
    two linear factors ``(N, nu)`` of ``den``, at least one of them with
    ``N != 0``, added in partial fractions, which the result holds as its
    ``parts``.  A factor is a hashable pair, a tuple, not a list.  Any
    other term raises ``ValueError``."""
    groups = {}     # denominator -> residues over it
    split = _FactorSplits()     # each distinct factor is split once per sum
    for coef, den in terms:
        if isinstance(coef, int):
            a, denom = coef, 1
        else:
            coef = Fraction(coef)
            a, denom = coef.numerator, coef.denominator
        if len(den) == 2:
            g, f = split[den[0]]
            h, p = split[den[1]]
            denom *= g * h
            if f is None:
                f, p = p, None
        elif len(den) == 1:
            g, f = split[den[0]]
            denom *= g
            p = None
        elif den:
            raise ValueError("a stratum term has one or two factors")
        else:
            f = None
        if f is None:
            raise ValueError("a stratum term needs a factor with N != 0")
        if p is not None and p != f:
            # c / (f p) = (n / f - m / p) c / d, d = n mu - m v
            (n, v), (m, mu) = f, p
            res = groups.setdefault(denom * (n * mu - m * v), {})
            res[p, 1] = res.get((p, 1), 0) - a * m
            a *= n
            key = f, 1
        else:   # c / f, or c / f^2 on the chain of a double pole
            res = groups.setdefault(denom, {})
            key = f, 1 if p is None else 2
        res[key] = res.get(key, 0) + a
    common = lcm(*groups)
    residues = {}
    for denom, res in groups.items():
        k = common // denom
        for key, c in res.items():
            residues[key] = residues.get(key, 0) + c * k
    residues = sorted(item for item in residues.items() if item[1])
    content = gcd(common, *(c for _, c in residues))
    z = object.__new__(RationalFunction)
    z.__dict__["parts"] = (tuple((key, c // content) for key, c in residues), common // content)
    return z


def _canonical(parts, den):
    """``(scale, num)`` of ``parts`` with denominator ``den``.  ``num / D``
    starts at ``0 / 1`` and takes in one factor ``f = N s + nu`` of pole
    order ``e`` at a time as ``(num f^e + D sum_k c_k f^(e - k)) / (D f^e)``:
    by Horner, ``num -> num f + c_k full`` for k = 1 .. e, ``full`` the
    product of the factors taken in before, then ``full -> full f^e``.
    Each step is one pass over the coefficient list, and ``num`` stays
    shorter than ``full``; the numerator is then cleared of its content."""
    residues, denominator = parts
    if not residues:
        return Fraction(0), ()
    residues = dict(residues)
    num, full = [], [1]
    for f, e in den:
        n, v = f
        for k in range(e):      # full padded to the length of num f
            c = residues.get((f, k + 1), 0)
            num = [v * a + n * b + c * d
                   for a, b, d in zip(num + [0], [0] + num, full + [0] * k)]
        for _ in range(e):
            full = [v * a + n * b for a, b in zip(full + [0], [0] + full)]
    while not num[-1]:
        num.pop()
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
    The factors are sorted by the integer ``-nu (L / N)``, with ``L`` the
    lcm of the N: the pole's value times ``L``.
    """
    common = lcm(*(n for (n, _), _ in z.den))
    den = sorted(z.den, key=lambda item: -item[0][1] * (common // item[0][0]))
    return [Pole(Fraction(-v, n), e) for (n, v), e in den]


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
        terms.append((fs[0].b, [(bam.base_mult, bam.base_nu), (fs[0].mult, fs[0].nu)]))
        for i in range(k):
            if i + 1 < k:
                d = fs[i].a * fs[i + 1].b - fs[i].b * fs[i + 1].a
                nxt = (fs[i + 1].mult, fs[i + 1].nu)
            else:
                d = fs[i].a
                nxt = (0, 1)
            terms.append((d, [(fs[i].mult, fs[i].nu), nxt]))
            terms.append((-len(fs[i].classes), [(fs[i].mult, fs[i].nu)]))
        for f in fs:
            n_leaves = sum(isinstance(cls, Leaf) for cls in f.classes)
            if n_leaves:
                terms.append((n_leaves, [(f.mult, f.nu), (1, 1)]))
    return rf_sum(terms)
