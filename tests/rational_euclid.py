"""Exact division and the Euclidean gcd over the rationals, the reference
that the integer arithmetic of ``topzeta.poly`` is tested against.  The
package decided squarefreeness with ``monic_gcd`` before it moved to
primitive pseudo-remainders over Z; both functions are kept here as they
were."""

from fractions import Fraction

from topzeta.poly import trim


def divmod_frac(f, g):
    """Quotient and remainder over the rationals."""
    g = trim(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in trim(f)]
    if len(rem) < len(g):
        return [], rem
    inv = Fraction(1) / Fraction(g[-1])
    quo = [Fraction(0)] * (len(rem) - len(g) + 1)
    for i in range(len(rem) - len(g), -1, -1):
        c = rem[i + len(g) - 1] * inv
        if c:
            quo[i] = c
            for j, b in enumerate(g):
                rem[i + j] -= c * b
    return trim(quo), trim(rem)


def monic_gcd(f, g):
    """Monic gcd over the rationals by the Euclidean algorithm."""
    a = [Fraction(c) for c in trim(f)]
    b = [Fraction(c) for c in trim(g)]
    while b:
        _, r = divmod_frac(a, b)
        a, b = b, r
    if not a:
        return []
    inv = Fraction(1) / a[-1]
    return [c * inv for c in a]
