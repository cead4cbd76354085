"""The generic sum and product of coefficient lists that ``topzeta.poly``
held while ``zeta`` canonicalized by them, kept as they were for the
references and tests that multiply polynomials.  Entries are ``int`` or
``fractions.Fraction``, mixed freely."""

from topzeta.poly import trim


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
