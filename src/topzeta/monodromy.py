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

The characteristic polynomial's coefficients are its power series modulo
``t^(mu + 1)``, one list of ``mu + 1`` integers: a factor ``(1 - t^n)``
multiplies it as a shifted subtraction, and divides it as a running sum
along each residue class mod n.  Truncation is exact because the root
multiplicities, all nonnegative, have shown the product to be a
polynomial of degree ``mu``; no intermediate product grows past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import sub
from typing import NamedTuple

from .equitree import AnnotatedTree
from .zeta import RationalFunction, poles, zeta_general

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

    def is_one(self) -> bool:
        return not self.factors

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
    # the gcd of those exponents divides exactly the same ones: checking the
    # gcds of all nonempty sets of exponents covers every root order.
    orders = set()
    for n, _ in cyclo.factors:
        orders |= {gcd(n, d) for d in orders} | {n}
    for d in sorted(orders):
        m = root_multiplicity(cyclo, d)
        if m < 0:
            raise ArithmeticError(
                f"not a polynomial: multiplicity {m} at root order {d}")
    assert mu >= 0
    coeffs = None
    if mu <= max_degree:
        f = [1] + [0] * mu
        top = 0
        for n, e in cyclo.factors:
            for _ in range(e):
                top = min(top + n, mu)
                f[n:top + 1] = map(sub, f[n:top + 1], f[:top + 1 - n])
        for n, e in cyclo.factors:
            for _ in range(-e):
                for r in range(min(n, mu + 1)):
                    f[r::n] = accumulate(f[r::n])
        assert f[mu] == (-1) ** sum(e for _, e in cyclo.factors)
        coeffs = tuple(f)
    return CharPoly(cyclo, coeffs, mu)


def root_multiplicity(delta, d: int) -> int:
    """Multiplicity of a primitive d-th root of unity as a root.

    Accepts a CharPoly or a bare CycloProduct.
    """
    cyclo = delta.cyclo if isinstance(delta, CharPoly) else delta
    return sum(e for n, e in cyclo.factors if n % d == 0)


@dataclass(frozen=True)
class EigenvalueWitness:
    ok: bool
    root_order: int                       # d with exp(2 pi i theta) primitive d-th
    multiplicity: int | None              # in the H^1 characteristic polynomial
    contributions: tuple[tuple[int, int], ...]
    via: str                              # "H0" or "H1"


def eigenvalue_witness(delta_cyclo: CycloProduct, theta) -> EigenvalueWitness:
    """Decide whether exp(2 pi i theta) is a monodromy eigenvalue.

    Order one means the eigenvalue 1, always present on degree-zero
    cohomology; otherwise the primitive-root multiplicity in the H^1
    characteristic polynomial must be positive.
    """
    d = Fraction(theta).denominator
    if d == 1:
        return EigenvalueWitness(True, 1, None, (), "H0")
    contrib = tuple((n, e) for n, e in delta_cyclo.factors if n % d == 0)
    m = sum(e for _, e in contrib)
    return EigenvalueWitness(m >= 1, d, m, contrib, "H1")


def is_eigenvalue(tree: AnnotatedTree, theta) -> EigenvalueWitness:
    delta = characteristic_poly(monodromy_zeta(tree), max_degree=0)
    return eigenvalue_witness(delta.cyclo, theta)


class PoleCheck(NamedTuple):
    value: Fraction
    order: int
    witness: EigenvalueWitness


@dataclass(frozen=True)
class ConjectureReport:
    verdict: str                      # "holds" | "fails"
    checks: tuple[PoleCheck, ...]

    def holds(self) -> bool:
        return self.verdict == "holds"


def conjecture_report(zeta: RationalFunction, delta_cyclo: CycloProduct) -> ConjectureReport:
    checks = tuple(
        PoleCheck(p.value, p.order, eigenvalue_witness(delta_cyclo, p.value))
        for p in poles(zeta)
    )
    verdict = "holds" if all(c.witness.ok for c in checks) else "fails"
    return ConjectureReport(verdict, checks)


def verify_conjecture(tree: AnnotatedTree, *, zeta: RationalFunction | None = None) -> ConjectureReport:
    """Check that every pole of the zeta function exponentiates to a
    monodromy eigenvalue.  Any "fails" verdict signals a defect, not
    mathematics: the statement is a theorem for plane curves."""
    if zeta is None:
        zeta = zeta_general(tree)
    delta = characteristic_poly(monodromy_zeta(tree), max_degree=0)
    return conjecture_report(zeta, delta.cyclo)
