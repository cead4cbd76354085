"""Monodromy zeta functions as products of cyclotomic-style factors.

A :class:`CycloProduct` encodes prod_n (1 - t^n)^{e_n} as a finite map
from exponents to nonzero integer multiplicities.  The monodromy zeta
function of a tree collapses to such a product: one factor
``(1 - t^N)^r`` per principal face, divided by ``(1 - t^{alpha_k})``
per bamboo and by the global ``(1 - t^{beta_0})`` of the root bamboo.
Both divisor exponents are the exact quotients ``N(P_k)/a_k`` and
``N(P_1)/b_1`` whose integrality the annotation step asserts.

Multiplying by ``(1 - t)`` yields the characteristic polynomial of the
monodromy on first cohomology; its degree is the Milnor number.  Root
multiplicities are computed arithmetically: a primitive d-th root of
unity has multiplicity  sum of e_n over d | n,  which is well defined
because the coefficients are real.  Eigenvalue queries therefore never
touch floating point.

The characteristic polynomial is palindromic up to sign: each factor
``1 - t^n`` is anti-palindromic, ``t^n (1 - t^-n) = -(1 - t^n)``, so
``c[mu - j] = (-1)^(sum e) c[j]``.  Only ``c[0..h]`` with
``h = min(mu // 2 + 1, mu)`` are computed, as the power series modulo
``t^(h + 1)``; the rest is that list mirrored, and ``c[h]``, one past
the half, must already equal its mirror image.  The factors
``(1 - t^n)`` with n > 1 go in with positive exponents first, in
ascending n, then with negative ones; a factor with n > h is 1 modulo
``t^(h + 1)`` and is skipped, though its n still enters the stride g
below.  The positive powers go first into a sparse map from exponent to
coefficient, where multiplying by ``1 - t^n`` costs one step per term of
the map; the product of a tree's factors has mostly empty support below
h, 73 to 2,888 terms on four of the five largest trees of one benchmark
corpus, where h is 61,930 to 283,403.  Before each power the map's size
is compared with the length ``(h - n) // g`` of the dense pass that
power would make; once three times the size is larger, or at the first
division, the map is written into the dense list ``c[0..h]``, and every
power left runs there.  The choice reads only those two lengths, so it
follows the input: the positive powers of a large tree nearly all run
sparse, and those of ``x^n + y^n`` go dense after about n/6.  The
factor 3 is no option: it weighs a dictionary step against a slot of a
slice pass, costs that the interpreter sets, not the input, and the
expansion times of the benchmark's trees and Fermat curves are flat for
factors from 3 to 10 and grow below 3.  A dense multiplication is a shifted subtraction.  A
division is a running sum, either along each residue class mod n (n/g
classes) or one block of n coefficients after another (h/n blocks),
whichever takes fewer Python-level steps.  Each runs at stride g, the
gcd of the exponents applied so far, since the series is zero off the
multiples of g.  ``(1 - t)^e`` goes in at the first factor that would
bring g to 1, or last.  Truncation to ``t^(h + 1)`` is a ring map, so
the order of the steps does not matter, and the truncated series is the
polynomial's own low part: the root multiplicities, all nonnegative,
show the product is of degree ``mu``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import add, neg, sub
from typing import NamedTuple

from .equitree import AnnotatedTree
from .zeta import RationalFunction, poles

DEFAULT_EXPANSION_CAP = 10 ** 6


@dataclass(frozen=True)
class CycloProduct:
    factors: tuple[tuple[int, int], ...]    # (n, e) sorted by n, e != 0

    @staticmethod
    def from_exponents(mapping) -> "CycloProduct":
        return CycloProduct(tuple(sorted(
            (n, e) for n, e in mapping.items() if e != 0)))

    def exponents(self) -> dict[int, int]:
        return dict(self.factors)

    def __mul__(self, other: "CycloProduct") -> "CycloProduct":
        exps = self.exponents()
        for n, e in other.factors:
            exps[n] = exps.get(n, 0) + e
        return CycloProduct.from_exponents(exps)

    def __str__(self):
        if not self.factors:
            return "1"
        parts = []
        for n, e in self.factors:
            base = f"(1 - t^{n})" if n > 1 else "(1 - t)"
            parts.append(base + (f"^{e}" if e != 1 else ""))
        return " * ".join(parts)

    def to_json_list(self) -> list:
        return [{"n": n, "e": e} for n, e in self.factors]


@dataclass(frozen=True)
class CharPoly:
    cyclo: CycloProduct
    coeffs: tuple[int, ...] | None    # expansion, present when mu fits the cap
    mu: int                           # degree = sum of n * e_n

    def to_json_dict(self) -> dict:
        return {
            "factors": self.cyclo.to_json_list(),
            "coeffs": list(self.coeffs) if self.coeffs is not None else None,
            "mu": self.mu,
        }


def monodromy_zeta(tree: AnnotatedTree) -> CycloProduct:
    """Closed-form monodromy zeta function of an annotated tree."""
    exps = {}

    def bump(n, e):
        exps[n] = exps.get(n, 0) + e

    root = tree.root
    if root.faces[0].mult != root.faces[0].b * root.beta0:
        raise ArithmeticError("first-face multiplicity not divisible by b")
    bump(root.beta0, -1)
    for bam in tree.bamboos:
        last = bam.faces[-1]
        if last.mult != last.a * last.alpha:
            raise ArithmeticError("last-face multiplicity not divisible by a")
        for f in bam.faces:
            bump(f.mult, len(f.classes))
        bump(last.alpha, -1)
    return CycloProduct.from_exponents(exps)


def acampo_from_graph(graph) -> CycloProduct:
    """Oracle route: product of (1 - t^N)^(-chi) over compact divisors."""
    exps = {}
    for node in graph.nodes:
        if node.kind == "exceptional" and node.chi:
            exps[node.mult] = exps.get(node.mult, 0) - node.chi
    return CycloProduct.from_exponents(exps)


def characteristic_poly(z: CycloProduct, *, max_degree=DEFAULT_EXPANSION_CAP) -> CharPoly:
    """Characteristic polynomial of the monodromy on H^1: (1 - t) * z.

    Raises ArithmeticError("not a polynomial: ...") when some primitive
    root order would get negative multiplicity.  The coefficient expansion
    is computed only when the degree fits under ``max_degree``; the
    cyclotomic form and root multiplicities are always available.
    """
    cyclo = z * CycloProduct(((1, 1),))
    mu = sum(n * e for n, e in cyclo.factors)
    # The multiplicity at d depends only on which exponents d divides, and
    # the gcd of those exponents divides exactly the same ones; it is
    # negative only if d divides an exponent of a negative power.  So the
    # gcds of the sets of exponents that hold such an exponent cover every
    # root order that can fail, the smallest one included.
    orders = {n for n, e in cyclo.factors if e < 0}
    for n, _ in cyclo.factors:
        orders |= {gcd(n, d) for d in orders}
    for d in sorted(orders):
        m = root_multiplicity(cyclo, d)
        if m < 0:
            raise ArithmeticError(
                f"not a polynomial: multiplicity {m} at root order {d}")
    assert mu >= 0
    coeffs = None
    if mu <= max_degree:
        # c[0..h] as a series modulo t^(h + 1), then the mirror image
        h = min(mu // 2 + 1, mu)
        sign = (-1) ** sum(e for _, e in cyclo.factors)
        # multiplications in ascending n, then divisions; (1 - t) goes in
        # where the gcd of the exponents applied would first reach 1
        steps = sorted(((n, e) for n, e in cyclo.factors if n > 1),
                       key=lambda step: step[1] < 0)
        at = next((i for i, g in enumerate(accumulate((n for n, _ in steps), gcd))
                   if g == 1), len(steps))
        steps.insert(at, (1, cyclo.exponents().get(1, 0)))
        # one (n, stride, +1 or -1) per power of a factor (1 - t^n)
        powers = []
        g = 0
        for n, e in steps:
            g = gcd(g, n)
            if n <= h:          # 1 - t^n is 1 modulo t^(h + 1) otherwise
                powers += [(n, g, 1 if e > 0 else -1)] * abs(e)
        # positive powers into a sparse map, exponent -> coefficient, while
        # it holds at most a third as many terms as the power's dense pass
        # has slots
        terms = {0: 1}
        done = 0
        for n, g, e in powers:
            if e < 0 or 3 * len(terms) > (h - n) // g:
                break
            for k, c in [(k + n, -c) for k, c in terms.items() if k <= h - n]:
                terms[k] = terms.get(k, 0) + c
            done += 1
        f = [0] * (h + 1)
        for k, c in terms.items():
            f[k] = c
        top = max(terms)
        for n, g, e in powers[done:]:
            top = min(top + n, h) if e > 0 else h
            if e > 0:
                f[n:top + 1:g] = map(sub, f[n:top + 1:g], f[:top + 1 - n:g])
            elif h // n < n // g:   # fewer blocks of n than residue classes
                for k in range(n, h + 1, n):
                    f[k:k + n:g] = map(add, f[k:k + n:g], f[k - n:k:g])
            else:
                for r in range(0, n, g):
                    f[r::n] = accumulate(f[r::n])
        assert f[h] == sign * f[mu - h]
        if mu > h:
            tail = f[mu - h - 1::-1]
            f += tail if sign == 1 else map(neg, tail)
        coeffs = tuple(f)
    return CharPoly(cyclo, coeffs, mu)


def root_multiplicity(cyclo: CycloProduct, d: int) -> int:
    """Multiplicity of a primitive d-th root of unity as a root."""
    return sum(e for n, e in cyclo.factors if n % d == 0)


@dataclass(frozen=True)
class EigenvalueWitness:
    ok: bool
    root_order: int                       # d with exp(2 pi i theta) primitive d-th
    multiplicity: int | None              # in the H^1 characteristic polynomial
    contributions: tuple[tuple[int, int], ...]


def eigenvalue_witness(delta_cyclo: CycloProduct, theta) -> EigenvalueWitness:
    """Decide whether exp(2 pi i theta) is a monodromy eigenvalue.

    Order one means the eigenvalue 1, always present on degree-zero
    cohomology; otherwise the primitive-root multiplicity in the H^1
    characteristic polynomial must be positive.
    """
    d = (theta if isinstance(theta, Fraction) else Fraction(theta)).denominator
    if d == 1:
        return EigenvalueWitness(True, 1, None, ())
    contrib = tuple((n, e) for n, e in delta_cyclo.factors if n % d == 0)
    m = sum(e for _, e in contrib)
    return EigenvalueWitness(m >= 1, d, m, contrib)


class PoleCheck(NamedTuple):
    value: Fraction
    order: int
    witness: EigenvalueWitness


def conjecture_report(zeta: RationalFunction, delta_cyclo: CycloProduct) -> tuple[PoleCheck, ...]:
    """One check per pole of ``zeta``: the conjecture holds if all are ok."""
    return tuple(
        PoleCheck(p.value, p.order, eigenvalue_witness(delta_cyclo, p.value))
        for p in poles(zeta)
    )
