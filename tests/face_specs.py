"""Random Newton face lists for the tests, drawn like ``topzeta fuzz``'s trees."""

import random

from topzeta.cli import FUZZ_MAX_CLASSES, FUZZ_MAX_K, _random_coprime_pairs


def random_face_specs(rng: random.Random):
    """Random nondegenerate face list with both entries at least two.

    Faces with a = 1 or b = 1 describe smooth-ish branches whose
    candidate may cancel from the zeta function, so the pole-realization
    corpus stays inside the all-entries >= 2 regime.
    """
    k = rng.randint(1, FUZZ_MAX_K)
    return [(a, b, rng.randint(1, FUZZ_MAX_CLASSES))
            for a, b in _random_coprime_pairs(rng, k)]
