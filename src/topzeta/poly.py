"""Dense univariate polynomial helpers on plain coefficient lists.

Coefficients are listed from the constant term upward; the empty list is
the zero polynomial.  Entries may be ``int`` or ``fractions.Fraction``,
mixed freely; everything is exact.
"""

from __future__ import annotations

from fractions import Fraction


def trim(coeffs):
    """Drop trailing zero coefficients."""
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return list(coeffs[:n])


def add(f, g):
    out = [0] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] += c
    for i, c in enumerate(g):
        out[i] += c
    return trim(out)


def mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return trim(out)


def derivative(f):
    return trim([i * c for i, c in enumerate(f)][1:])


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
