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
below.  The positive factors go first into a sparse map from exponent
to coefficient, each whole: ``(1 - t^n)^e`` adds to the map its
shifts by ``t^(nk)`` times ``(-1)^k C(e, k)``, k <= min(e, h // n),
one step per term of the map and k.  The product of a tree's factors
has mostly empty support below h, 73 to 2,888 terms on four of the
five largest trees of one benchmark corpus, where h is 61,930 to
283,403.  Before each factor the map's size is compared with the
length ``(h - n) // g`` of a dense pass of that factor; once three
times the size is larger, or at the first division, the map is written
into the dense list ``c[0..h]``, and every factor left runs there, one
power at a time.  The choice reads only those two lengths, so it
follows the input: the positive factors of a large tree nearly all run
sparse, and so does all of ``x^n + y^n`` for n >= 10, whose
``(1 - t^n)^(n - 2)`` has about n/2 terms below h.  When no factor is
left for the dense list, the whole list ``c[0..mu]`` is written from
the map and its mirror image, with no pass over ``c[0..h]``.  The
factor 3 is no option: it weighs a dictionary step against a slot of a
slice pass, costs that the interpreter sets, not the input, and the
expansion times of the benchmark's trees are flat for factors from 2
to 6 and grow at 1 and 10.  A dense multiplication is a shifted
subtraction.  A division is a running sum, either along each residue
class mod n (n/g classes) or one block of n coefficients after another
(h/n blocks), whichever takes fewer Python-level steps.  Each runs at
stride g, the gcd of the exponents applied so far, since the series is
zero off the multiples of g.  ``(1 - t)^e`` goes in at the first factor
that would bring g to 1, or last.  Truncation to ``t^(h + 1)`` is a
ring map, so the order of the steps does not matter, and the truncated
series is the polynomial's own low part: the root multiplicities, all
nonnegative, show the product is of degree ``mu``.

The support of the polynomial follows from the same stride.  With g the
gcd of the exponents n > 1 and ``e_1`` the exponent of ``1 - t``, it is
``(1 - t)^e_1 P(t^g)``, where ``P(u) = prod (1 - u^(n/g))^e_n`` over
n > 1 is a power series in u.  When ``e_1 >= 0`` the first factor is a
polynomial of degree ``e_1``, so the coefficient of ``t^m`` is a sum over
``m = kg + j``, ``0 <= j <= e_1``, of ``(-1)^j C(e_1, j)`` times that of
``u^k`` in P: it is zero at every other power.  And ``mu = e_1 + sum n
e_n`` is ``e_1`` modulo g.  ``candidate_powers`` lists those powers when
they are not all of them, that is when ``g > e_1 + 1``; then they number
about ``(e_1 + 1) mu / g``.  For ``x^n + y^n``, ``(1 - t)(1 - t^n)^(n -
2)``, that is ``2 (n - 1)`` of ``(n - 1)^2 + 1``.  The text report
prints the polynomial from those powers alone.
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
        # one (n, stride, e) per factor (1 - t^n)^e, n <= h and e != 0
        factors = []
        g = 0
        for n, e in steps:
            g = gcd(g, n)
            if n <= h and e:    # 1 - t^n is 1 modulo t^(h + 1) otherwise
                factors.append((n, g, e))
        # positive factors into a sparse map, exponent -> coefficient, while
        # it holds at most a third as many terms as a dense pass of the
        # factor has slots; each goes in whole, as its binomial terms
        terms = {0: 1}
        done = 0
        for n, g, e in factors:
            if e < 0 or 3 * len(terms) > (h - n) // g:
                break
            exps, coefs = list(terms), list(terms.values())
            b = 1
            for k in range(1, min(e, h // n) + 1):
                s, b = n * k, -b * (e - k + 1) // k     # (-1)^k C(e, k)
                for j, c in zip(exps, coefs):
                    if j <= h - s:
                        terms[j + s] = terms.get(j + s, 0) + b * c
            done += 1
        exps = coefs = None
        # with no factor left for the dense passes, the list is written
        # whole, c[0..mu], and mirrored from the map; else the map is freed
        sparse = done == len(factors)
        f = [0] * ((mu if sparse else h) + 1)
        for k, c in terms.items():
            f[k] = c
        top = max(terms)
        terms = terms if sparse else None
        for n, g, e in factors[done:]:      # one power at a time
            for _ in range(abs(e)):
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
        if sparse:
            for k, c in terms.items():
                if mu - k > h:
                    f[mu - k] = sign * c
        elif mu > h:    # the slice is freed before the tuple is made
            f += f[mu - h - 1::-1] if sign == 1 else map(neg, f[mu - h - 1::-1])
        coeffs = tuple(f)
    return CharPoly(cyclo, coeffs, mu)


def candidate_powers(cyclo: CycloProduct) -> list[int] | None:
    """The powers of t that may hold a nonzero coefficient of the
    polynomial ``cyclo``, highest first: every ``kg + j <= mu`` with
    ``0 <= j <= e_1``, where g is the gcd of the exponents n > 1 and
    ``e_1`` that of ``1 - t``.  None, for all powers, when ``e_1 < 0`` or
    ``g <= e_1 + 1``, where those are all the powers."""
    e1 = cyclo.exponents().get(1, 0)
    g = gcd(*(n for n, _ in cyclo.factors if n > 1))
    if e1 < 0 or g <= e1 + 1:
        return None
    mu = sum(n * e for n, e in cyclo.factors)    # mu - e1 is a multiple of g
    return [k + j for k in range(mu - e1, -1, -g) for j in range(e1, -1, -1)]


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
