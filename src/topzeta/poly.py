"""Dense univariate polynomial helpers on plain coefficient lists.

Coefficients are listed from the constant term upward; the empty list is
the zero polynomial.  ``add``, ``mul`` and ``derivative`` take ``int`` or
``fractions.Fraction`` entries, mixed freely; the gcd works on ``int``
lists alone, by pseudo-remainders that never leave Z.  Everything is exact.
"""

from __future__ import annotations

from math import gcd


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


def pseudo_rem(f, g):
    """The remainder of f by g over Q times a nonzero integer, for integer
    lists: before each nonzero quotient term the remainder is scaled by
    g's leading coefficient, so every step stays in Z."""
    rem = list(f)
    n, lead = len(g) - 1, g[-1]
    low = [(j, b) for j, b in enumerate(g[:-1]) if b]
    while len(rem) > n:
        c = rem.pop()
        if c:
            if lead != 1:
                rem = [lead * r for r in rem]
            k = len(rem) - n
            for j, b in low:
                rem[k + j] -= c * b
    return trim(rem)


def primitive_gcd(f, g):
    """gcd of integer lists f and g != 0, primitive with a positive leading
    coefficient, by primitive pseudo-remainders: each divisor is divided by
    its content, until a remainder is zero.  By Gauss's lemma it is the gcd
    over Q up to a rational factor, so it has the same degree."""
    while g:
        d = gcd(*g) if g[-1] > 0 else -gcd(*g)
        g = [c // d for c in g]
        f, g = g, pseudo_rem(f, g)
    return f
