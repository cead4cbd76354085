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
times ``L``: no two ``Fraction``s are compared.  ``rational_str``
prints the form from ``scale`` as text, ``str(Fraction)``, which is how
a report's JSON holds it, so the text report prints from the JSON and
rebuilds no function; it writes each denominator factor ``N*s + nu``
itself.  ``poly_str``, which prints the numerator and the report's
characteristic polynomial of up to 10^6 + 1 coefficients, makes its
text with one ``%`` operation per block of ``TEXT_BLOCK`` powers: one
format per distinct coefficient, such as ``" - 3*t^%d"``, made once,
the formats of the block's nonzero coefficients joined, highest power
first, and the join applied to the tuple of their exponents.  The block
texts are joined once, so beyond its output it holds one block's
formats and exponents, not those of every power.  The block is fixed,
not worked out from the input: the text does not depend on it, and a
block of 2^12 powers holds a few hundred kilobytes and costs a few
microseconds, so no size needs tuning.  Given the powers that may hold
a nonzero coefficient, highest first, it reads those alone: the text
report passes the characteristic polynomial's
``monodromy.candidate_powers``, the powers ``kg + j``,
``0 <= j <= e_1``, of its stride g, which for ``x^n + y^n`` are
``2 (n - 1)`` of its ``(n - 1)^2 + 1`` coefficients.  The
constructor ``RationalFunction(scale, num, den)`` stays for
``dataclasses.replace``, with which the benchmark's self-test makes a
wrong function; one built that way has no parts, so it cannot be
compared or hashed.

The closed form ``zeta_general`` sums, over the bamboos of an annotated
tree, one determinant term per cone of the bamboo's fan, one term per
face, and one leaf term ``r / ((N s + nu)(s + 1))`` per face carrying
``r`` smooth branches.  A Newton-nondegenerate face list is the
one-bamboo tree of ``equitree.annotate_faces``; ``zeta_nondegenerate``
only names that composition.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import NamedTuple

from .equitree import AnnotatedTree, Leaf, annotate_faces

TEXT_BLOCK = 2 ** 12     # powers that poly_str and cli.json_report turn into text per step


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


@dataclass(frozen=True, eq=False)
class RationalFunction:
    """A rational function in s, in the forms of the module docstring.

    ``rf_sum`` builds it from ``parts = (residues, D)``: one
    ``(((N, nu), k), c)`` per nonzero residue ``c / (N s + nu)^k`` in
    sorted order, and their denominator ``D``; the printed form is
    derived from them when first read, and ``str`` prints it with
    ``rational_str``.  Equality and ``hash`` read ``parts`` alone.  The
    constructor ``RationalFunction(scale, num, den)`` stays so that the
    benchmark's self-test can make a wrong function with
    ``dataclasses.replace``; a function built that way has no parts: it
    prints, serializes and has poles, but comparing or hashing it raises
    ``AttributeError``.
    """

    scale: Fraction
    num: tuple[int, ...]
    den: tuple[tuple[tuple[int, int], int], ...]   # ((N, nu), exponent)

    def __getattr__(self, name):
        # reached for a printed field of a function built from parts,
        # stored through __dict__ because the instance is frozen, and for
        # the parts of one built from printed fields, which has none
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
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    @_unlimited_digits()
    def __str__(self):
        return rational_str(str(self.scale), self.num, self.den)

    def to_json_dict(self) -> dict:
        return {
            "scale": str(self.scale),
            "numerator": list(self.num),
            "denominator": [{"N": n, "nu": v, "exp": e} for (n, v), e in self.den],
        }


def rational_str(scale: str, num, den) -> str:
    """The printed form ``scale * num(s) / prod (N*s + nu)^exp``, from
    ``scale`` as text, ``str(Fraction)``, the numerator's coefficients
    and ``den`` as ``((N, nu), exp)`` pairs, ``N >= 1``; a factor 1 is
    not printed."""
    if not num:
        return "0"
    body = poly_str(num, "s")
    if len(num) > 1:
        body = f"({body})"
    if scale == "1":
        head = body
    elif body == "1":
        head = scale
    elif scale == "-1":
        head = "-" + body
    else:
        head = f"{scale} * {body}"
    facs = [f"({_linear_str(n, v)})" + (f"^{e}" if e > 1 else "") for (n, v), e in den]
    if not facs:
        return head
    return f"{head} / {facs[0]}" if len(facs) == 1 else f"{head} / ({' * '.join(facs)})"


def _linear_str(n, v):
    """``N*s + nu`` as ``poly_str((nu, N), "s")`` prints it, for N >= 1."""
    head = "s" if n == 1 else f"{n}*s"
    return f"{head} + {v}" if v > 0 else f"{head} - {-v}" if v else head


class _TermFormats(dict):
    """The format of a term by its coefficient: " + 3*t^%d", " - t^%d"."""

    def __init__(self, var):
        super().__init__()
        self.var = var

    def __missing__(self, c):
        mag = abs(c)
        head = (" + " if c > 0 else " - ") + ("" if mag == 1 else f"{mag}*")
        fmt = self[c] = f"{head}{self.var}^%d"
        return fmt


def poly_str(coeffs, var, powers=None):
    """Human form of a coefficient list, highest power first: per block of
    ``TEXT_BLOCK`` powers, one format per nonzero coefficient, joined and
    applied to their exponents at once; the block texts are joined once.
    ``powers`` lists, highest first, every power that may hold a nonzero
    coefficient, as ``monodromy.candidate_powers`` does; only those from
    2 up are read.  None reads every power."""
    formats = _TermFormats(var)
    dense = powers is None
    if dense:
        powers = range(len(coeffs) - 1, 1, -1)
    texts = []
    for i in range(0, len(powers), TEXT_BLOCK):
        block = powers[i:i + TEXT_BLOCK]
        if dense:       # the coefficients of the block's powers, highest first
            high = coeffs[block.start:block.stop:-1]
        else:           # powers 1 and 0 come last, past the end of high
            high = [coeffs[p] for p in block if p > 1]
        text = "".join(map(formats.__getitem__, filter(None, high)))
        if text:
            texts.append(text % tuple(compress(block, high)))
    if len(coeffs) > 1 and coeffs[1]:
        texts.append(formats[coeffs[1]][:-3])
    if coeffs and coeffs[0]:
        c = coeffs[0]
        texts.append(f"{' + ' if c > 0 else ' - '}{abs(c)}")
    if not texts:
        return "0"
    head = texts[0]
    texts[0] = head[3:] if head[1] == "+" else "-" + head[3:]
    return "".join(texts)


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

    Each bamboo is the fan ``(1, 0) < P_1 < ... < P_k < (0, 1)``, its
    rays ``P_i = (a_i, b_i)`` its faces, each with the factor
    ``(N, nu) = (mult, nu)``.  The first ray carries the bamboo's base
    ``(base_mult, base_nu)`` and the last the factor ``(0, 1)``.  Each
    cone ``u < v`` adds ``det(u, v)`` over the factors of u and v; each
    face adds minus its number of branch classes over its own factor,
    and its leaf count over its factor and ``(1, 1)``, the factor of
    ``s + 1``.
    """
    terms = []
    for bam in tree.bamboos:
        a, b, fu = 1, 0, (bam.base_mult, bam.base_nu)
        for f in bam.faces:
            fv = (f.mult, f.nu)
            terms.append((a * f.b - b * f.a, (fu, fv)))
            terms.append((-len(f.classes), (fv,)))
            n_leaves = sum(isinstance(cls, Leaf) for cls in f.classes)
            if n_leaves:
                terms.append((n_leaves, (fv, (1, 1))))
            a, b, fu = f.a, f.b, fv
        terms.append((a, (fu, (0, 1))))     # det(P_k, (0, 1)) = a_k
    return rf_sum(terms)
