"""Random Newton face lists and trees for the tests, drawn like ``topzeta
fuzz``'s trees."""

import random
from fractions import Fraction
from math import gcd

from topzeta.cli import (FUZZ_MAX_CLASSES, FUZZ_MAX_DEPTH, FUZZ_MAX_K,
                         _random_coprime_pairs)
from topzeta.equitree import Bamboo, Face, LEAF


def random_face_specs(rng: random.Random):
    """Random nondegenerate face list with both entries at least two.

    Faces with a = 1 or b = 1 describe smooth-ish branches whose
    candidate may cancel from the zeta function, so the pole-realization
    corpus stays inside the all-entries >= 2 regime.
    """
    k = rng.randint(1, FUZZ_MAX_K)
    return [(a, b, rng.randint(1, FUZZ_MAX_CLASSES))
            for a, b in _random_coprime_pairs(rng, k)]


def random_unit_pairs(rng: random.Random):
    """1 to 3 coprime pairs with entries 1..9 in slope order, so that pairs
    with a = 1 or b = 1 occur."""
    while True:
        pairs = set()
        for _ in range(rng.randint(1, 3)):
            a, b = rng.randint(1, 9), rng.randint(1, 9)
            if gcd(a, b) == 1:
                pairs.add((a, b))
        if pairs:
            return sorted(pairs, key=lambda p: Fraction(p[1], p[0]))


def random_unit_tree(rng: random.Random, depth: int = 1) -> Bamboo:
    """Random tree with entries 1..9 at every depth, shaped like
    ``cli.random_tree``'s."""
    faces = []
    for a, b in random_unit_pairs(rng):
        classes = []
        for _ in range(rng.randint(1, FUZZ_MAX_CLASSES)):
            if depth >= FUZZ_MAX_DEPTH or rng.randrange(2) == 0:
                classes.append(LEAF)
            else:
                classes.append(random_unit_tree(rng, depth + 1))
        faces.append(Face(a, b, tuple(classes)))
    return Bamboo(tuple(faces))
