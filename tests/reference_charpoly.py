"""The expansion that ``topzeta.monodromy.characteristic_poly`` made before
it took the positive powers into a sparse map, kept as it was: the
reference that the sparse phase is tested against.  Every power runs
over the dense list ``c[0..h]``, a multiplication as a shifted slice
subtraction, a division as a running sum, each at the stride of the
exponents applied so far."""

from itertools import accumulate
from math import gcd
from operator import add, neg, sub


def expansion(cyclo) -> tuple:
    """The coefficients of the polynomial ``prod (1 - t^n)^e`` of
    ``cyclo``, a ``CycloProduct`` whose root multiplicities are all
    nonnegative, from the constant term up."""
    mu = sum(n * e for n, e in cyclo.factors)
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
    f = [1] + [0] * h
    top = g = 0
    for n, e in steps:
        g = gcd(g, n)
        if n > h:           # 1 - t^n is 1 modulo t^(h + 1)
            continue
        for _ in range(e):
            top = min(top + n, h)
            f[n:top + 1:g] = map(sub, f[n:top + 1:g], f[:top + 1 - n:g])
        for _ in range(-e):
            top = h
            if h // n < n // g:     # fewer blocks of n than residue classes
                for k in range(n, h + 1, n):
                    f[k:k + n:g] = map(add, f[k:k + n:g], f[k - n:k:g])
            else:
                for r in range(0, n, g):
                    f[r::n] = accumulate(f[r::n])
    assert f[h] == sign * f[mu - h]
    if mu > h:
        tail = f[mu - h - 1::-1]
        f += tail if sign == 1 else map(neg, tail)
    return tuple(f)
