"""Seeded inputs for the four workloads.

Every generator is a pure function of its seed and writes plain data:
trees as the JSON objects `topzeta tree` reads, polynomials as the
strings `topzeta poly` reads.  Nothing here imports topzeta, so a change
to the program never changes a corpus.

Corpora are sized and stratified so that the cost of one round (one
pass over the corpus) moves little from seed to seed: instance costs are
heavy-tailed, so a plain random sample would make the round time depend
on the seed more than on the program.  Each corpus is picked from a
larger seeded pool by a cost model computed here, without topzeta.
"""

from __future__ import annotations

import random
from array import array
from fractions import Fraction
from math import gcd, isqrt, log

from oracle import acampo, kouchnirenko, milnor_number, tree_graph

# The acceptance distribution: FuzzConfig defaults of `topzeta fuzz`.
MAX_DEPTH = 3
MAX_FACES = 3
MAX_AB = 9
MAX_CLASSES = 3

EXPANSION_CAP = 10 ** 6      # default cap of `topzeta tree`: expanded iff mu <= cap
SLOT_BITS = 32               # bits per coefficient in charpoly_nonzeros
# Time per coefficient printed over time per coefficient touched by the
# expansion, fitted by calibrate.py under CPython 3.11 (see there).
PRINT_WEIGHT = 15

# Corpus sizes: trees drawn per pool, trees picked, draws tried per pick.
TREE_POOL, TREE_PLAIN, TREE_TRIES = 600, 24, 16
FUZZ_POOL = 600
POLY_FERMAT, POLY_PRODUCTS, POLY_TRIES = 50, 50, 400
CHAIN_TRIES = 20


def _coprime_pairs(rng, k, max_ab, min_ab=2):
    pairs = set()
    while len(pairs) < k:
        a = rng.randint(min_ab, max_ab)
        b = rng.randint(min_ab, max_ab)
        if gcd(a, b) == 1:
            pairs.add((a, b))
    return sorted(pairs, key=lambda p: Fraction(p[1], p[0]))


def random_tree(rng: random.Random, depth: int = 1) -> dict:
    """A tree of the acceptance distribution: depth <= 3, <= 3 faces per
    bamboo, entries <= 9, <= 3 classes per face, leaf with probability 1/2."""
    faces = []
    for a, b in _coprime_pairs(rng, rng.randint(1, MAX_FACES), MAX_AB):
        classes = []
        for _ in range(rng.randint(1, MAX_CLASSES)):
            if depth >= MAX_DEPTH or rng.random() < 0.5:
                classes.append("leaf")
            else:
                classes.append(random_tree(rng, depth + 1))
        faces.append({"a": a, "b": b, "classes": classes})
    return {"faces": faces}


def _quantile_pick(items, key, k):
    """k items at the midpoint quantiles (i + 1/2)/k of ``key``."""
    ranked = sorted(items, key=key)
    return [ranked[int((i + 0.5) * len(ranked) / k)] for i in range(k)]


def _with_one_minus_t(monodromy):
    factors = dict(monodromy)
    factors[1] = factors.get(1, 0) + 1
    return sorted((n, e) for n, e in factors.items() if e)


def expansion_work(monodromy) -> int:
    """Coefficients touched by a dense expansion of (1 - t) * prod (1 - t^n)^e
    that multiplies by every factor with e > 0 first, then divides."""
    deg = work = 0
    factors = _with_one_minus_t(monodromy)
    for n, e in factors:
        for _ in range(max(e, 0)):
            deg += n
            work += deg
    for n, e in factors:
        for _ in range(max(-e, 0)):
            work += deg
            deg -= n
    return work


def charpoly_nonzeros(monodromy) -> int:
    """Nonzero coefficients of (1 - t) * prod (1 - t^n)^e, a polynomial of
    degree mu that is palindromic up to sign, so its first half decides.

    The half is computed as a power series by Kronecker substitution
    t = 2^32 in the integers modulo 2^(32 (mu // 2 + 1)): multiplying by
    1 - t^n is a shift and a subtraction, dividing by it a product of
    1 + t^(n 2^k).  Arithmetic modulo a power of two is exact for the
    series, so every 32-bit slot holds its coefficient exactly while all
    coefficients lie below 2^31 in magnitude (the largest in the pools of
    seeds 1 and 2 is 37572).
    """
    factors = _with_one_minus_t(monodromy)
    mu = sum(n * e for n, e in factors)
    half = mu // 2 + 1
    mask = (1 << (SLOT_BITS * half)) - 1
    x = 1
    for n, e in factors:
        for _ in range(max(e, 0)):
            x = (x - (x << (SLOT_BITS * n))) & mask
    for n, e in factors:
        for _ in range(max(-e, 0)):
            step = n
            while step < half:
                x = (x + (x << (SLOT_BITS * step))) & mask
                step *= 2
    # bias every slot by 2^31 so that a slot of a zero coefficient reads 2^31
    bias = 1 << (SLOT_BITS - 1)
    x = (x + int.from_bytes(bias.to_bytes(4, "little") * half, "little")) & mask
    slots = array("I", x.to_bytes(4 * half, "little"))
    zeros = slots.count(bias)
    middle = slots[-1] != bias if mu % 2 == 0 else False
    return 2 * (half - zeros - middle) + middle


def divisor_trials(monodromy) -> int:
    """Trial divisions a divisor check by trial division makes: isqrt(n)
    for each exponent n."""
    return sum(isqrt(n) for n in monodromy)


def report_cost(monodromy, density=None) -> float:
    """Cost model of `topzeta tree` on a tree with an expanded
    characteristic polynomial, in coefficient operations: the expansion,
    the printing of its nonzero coefficients and the divisor check.
    With ``density`` the share of nonzero coefficients is assumed
    instead of counted."""
    mu = milnor_number(monodromy)
    if density is not None:
        nonzeros = density * (mu + 1)
    else:
        nonzeros = charpoly_nonzeros(monodromy) if mu > 20000 else mu + 1
    return divisor_trials(monodromy) + expansion_work(monodromy) + PRINT_WEIGHT * nonzeros


# Quantiles (i + 1/2)/12 of report_cost over the 1275 expanded trees among
# 4000 trees of the acceptance distribution, i = 0..11, except that
# strata 7 to 9 are one stratum, sampled by three trees at its median
# quantile 8.5/12; calibrate.py computes them.  The 90th percentile of a
# round's instance times falls in that stratum, so it rests on three
# trees rather than on the one the model misjudges most.  The dearest
# target is half the cost of a round.
EXPANDED_TARGETS = (187, 564, 1227, 3052, 7193, 31194, 241109,
                    2428447, 2428447, 2428447, 9405300, 18044115)


def tree_report_corpus(seed: int):
    """Trees for `topzeta tree`: a third with an expanded characteristic
    polynomial (mu <= 10^6), as in the acceptance distribution.

    The cost of an expanded tree spans five decades, and mu alone
    predicts it within a factor of two only (the number of nonzero
    coefficients, which the text report prints, is 1% to over 90% of
    mu), so quantile picks by mu made the round time vary twofold from
    seed to seed.  Each expanded tree is therefore a pool tree whose
    modelled cost is within 5% of one of EXPANDED_TARGETS, or the nearest
    of the TREE_TRIES candidates tried; the others are picked by quantile
    of the number of divisors of their resolution graph, whose logarithm
    correlates with their time by 0.96 (their divisor trials: 0.91) over
    160 trees of the pools of seeds 1 and 2.
    """
    rng = random.Random(f"tree-report/{seed}")
    expanded, rest = [], []
    for _ in range(TREE_POOL):
        t = random_tree(rng)
        g = tree_graph(t)
        monodromy = acampo(g)
        if milnor_number(monodromy) <= EXPANSION_CAP:
            expanded.append((t, monodromy))
        else:
            rest.append((t, len(g.nodes)))
    picked = [t for t, _ in _quantile_pick(rest, lambda r: r[1], TREE_PLAIN)]
    low = [report_cost(m, density=0) for _, m in expanded]
    high = [report_cost(m, density=1) for _, m in expanded]
    cost, taken = {}, set()
    for target in EXPANDED_TARGETS:
        # candidates whose cost can be near the target, likeliest first
        near = sorted((i for i in range(len(expanded)) if i not in taken
                       and low[i] <= target * 1.05 and high[i] >= target / 1.05),
                      key=lambda i: abs(log((low[i] + 0.3 * (high[i] - low[i])) / target)))
        for i in near[:TREE_TRIES]:
            cost.setdefault(i, report_cost(expanded[i][1]))
            if abs(log(cost[i] / target)) < 0.05:
                break
        best = min((i for i in cost if i not in taken), key=lambda i: abs(log(cost[i] / target)))
        picked.append(expanded[best][0])
        taken.add(best)
    rng.shuffle(picked)
    return picked


def graph_size(tree) -> int:
    """Nodes plus edges of the tree's resolution graph, what the oracle
    sums over; its logarithm correlates with the time of check_instance
    by 0.99 over 200 trees of the acceptance distribution."""
    g = tree_graph(tree)
    return len(g.nodes) + len(g.edges)


# Quantiles (i + 1/2)/120 of graph_size over the 4000 trees of the
# calibration pool (rng seeds `calibrate/0` to `calibrate/3`), i = 0..119;
# calibrate.py computes them.
FUZZ_TARGETS = (
    9, 9, 11, 11, 11, 13, 13, 13, 15, 17, 17, 19, 21, 23, 25, 27, 29, 33, 35, 39,
    43, 47, 51, 53, 57, 59, 61, 65, 67, 71, 73, 75, 77, 81, 83, 85, 89, 91, 93, 95,
    97, 99, 103, 105, 107, 109, 113, 115, 117, 121, 123, 125, 127, 129, 131, 135, 137, 139, 143, 145,
    147, 151, 153, 155, 157, 161, 163, 167, 169, 171, 175, 179, 181, 185, 189, 191, 195, 197, 201, 203,
    207, 209, 213, 217, 219, 223, 227, 231, 235, 239, 243, 249, 253, 257, 261, 267, 269, 275, 281, 287,
    293, 297, 303, 311, 317, 325, 331, 339, 349, 359, 369, 381, 391, 403, 421, 435, 455, 475, 511, 559)


def fuzz_oracle_corpus(seed: int):
    """Trees for `check_instance`, one per entry of FUZZ_TARGETS: the first
    pool tree of that graph size, or the nearest.  Quantile picks from the
    pool moved the median size, and with it instance_ms_p50, by 6% from
    seed to seed; fixed targets leave the seed only the choice among
    trees of the same size.  Each tree carries the ray seed `topzeta
    fuzz` would derive for it."""
    rng = random.Random(f"fuzz-oracle/{seed}")
    pool = [random_tree(rng) for _ in range(FUZZ_POOL)]
    sizes = [graph_size(t) for t in pool]
    free = set(range(FUZZ_POOL))
    picked = []
    for target in FUZZ_TARGETS:
        best = min(free, key=lambda i: (abs(log(sizes[i] / target)), i))
        picked.append(pool[best])
        free.remove(best)
    rng.shuffle(picked)
    return [(t, seed * 1_000_003 + i) for i, t in enumerate(picked)]


def product_poly(factors) -> dict:
    """Expand prod (y^a - c x^b) into a sparse map (i, j) -> coefficient
    of x^i y^j."""
    p = {(0, 0): 1}
    for a, b, c in factors:
        q = {}
        for (i, j), v in p.items():
            q[(i, j + a)] = q.get((i, j + a), 0) + v
            q[(i + b, j)] = q.get((i + b, j), 0) - c * v
        p = {k: v for k, v in q.items() if v}
    return p


def poly_expr(p: dict) -> str:
    """A string in the grammar `topzeta poly` accepts."""
    parts = []
    for (i, j), v in sorted(p.items(), reverse=True):
        mono = "*".join(s for s in (f"x^{i}" if i else "", f"y^{j}" if j else "") if s)
        parts.append(f"{'-' if v < 0 else '+'} {abs(v)}*{mono}")
    return " ".join(parts).lstrip("+ ")


def face_list_milnor(faces) -> int:
    """Kouchnirenko's number of the Newton polygon with these faces (a, b, r)
    in slope order: from (0, sum r a) each face steps by (r b, -r a)."""
    x, y = 0, sum(r * a for a, _, r in faces)
    vertices = [(x, y)]
    for a, b, r in faces:
        x, y = x + r * b, y - r * a
        vertices.append((x, y))
    return kouchnirenko(vertices)


def poly_wide_corpus(seed: int):
    """Polynomials for `topzeta poly` as (expression, face list (a, b, r) it
    was built to have, support).

    - x^n + y^n with one n from each band [2 + 4k, 6 + 4k), so n spans
      2..201 on every seed: one face (1, 1) of length n.
    - products of distinct quasi-homogeneous factors y^a - c x^b on two
      to four slopes, one to four factors on each: one face (a, b, r) per
      slope, r the number of its factors, nondegenerate because the c on
      one slope are distinct.  Product k is the first of POLY_TRIES seeded
      draws whose Milnor number is within 10% of 60 * 80^(k/49), or the
      nearest, so the products span mu = 60..4800 on every seed.
    """
    rng = random.Random(f"poly-wide/{seed}")
    out = []
    for k in range(POLY_FERMAT):
        n = 2 + 4 * k + rng.randrange(4)
        out.append((f"x^{n} + y^{n}", [(1, 1, n)], [(n, 0), (0, n)]))
    for k in range(POLY_PRODUCTS):
        target = 60 * 80 ** (k / (POLY_PRODUCTS - 1))
        best = None
        for _ in range(POLY_TRIES):
            faces = [(a, b, rng.randint(1, 4))
                     for a, b in _coprime_pairs(rng, rng.randint(2, 4), 9, min_ab=1)]
            miss = abs(log(face_list_milnor(faces) / target))
            if best is None or miss < best[0]:
                best = (miss, faces)
            if miss < 0.1:
                break
        faces = best[1]
        factors = [(a, b, c) for a, b, r in faces for c in rng.sample(range(1, 10), r)]
        p = product_poly(factors)
        out.append((poly_expr(p), faces, sorted(p)))
    rng.shuffle(out)
    return out


def nested_chain(depth: int, extra) -> dict:
    """A (2, 3) face nested ``depth`` deep; the levels in ``extra`` (0 is
    the innermost) carry an extra leaf beside the sub-bamboo."""
    node = "leaf"
    for level in range(depth):
        node = {"faces": [{"a": 2, "b": 3,
                           "classes": ["leaf", node] if level in extra else [node]}]}
    return node


def seeded_chain(depth: int, rng: random.Random) -> dict:
    """A chain with extra leaves on half its levels, chosen by the seed.

    Where the leaves sit moves the divisor check's work by a quarter
    either way, so the chain is the first of CHAIN_TRIES seeded placements
    within 3% of the work of leaves on every other level, or the nearest.
    """
    def trials(extra):
        return divisor_trials(acampo(tree_graph(nested_chain(depth, extra))))

    target = trials(set(range(0, depth, 2)))
    best = None
    for _ in range(CHAIN_TRIES):
        extra = set(rng.sample(range(depth), depth // 2))
        miss = abs(log(trials(extra) / target))
        if best is None or miss < best[0]:
            best = (miss, extra)
        if miss < 0.03:
            break
    return nested_chain(depth, best[1])


def deep_large_corpus(seed: int):
    """Trees for `topzeta tree --oracle`: two nested (2, 3) chains of each
    depth 10..18, whose Milnor number is past the expansion cap, and
    one-face trees (3, b), b prime to 3 in [1000 + 125 k, 1015 + 125 k)
    for k < 16.  Two of each keep the median instance, which falls
    among them, from hanging on one tree."""
    rng = random.Random(f"deep-large/{seed}")
    out = [seeded_chain(d, rng) for d in range(10, 19) for _ in range(2)]
    for k in range(16):
        b = 1000 + 125 * k + rng.randrange(15)
        b += b % 3 == 0
        out.append({"faces": [{"a": 3, "b": b, "classes": ["leaf"] * rng.randint(1, 2)}]})
    rng.shuffle(out)
    return out


CORPORA = {
    "tree-report": tree_report_corpus,
    "fuzz-oracle": fuzz_oracle_corpus,
    "poly-wide": poly_wide_corpus,
    "deep-large": deep_large_corpus,
}

if __name__ == "__main__":
    # python3 corpora.py <workload> <seed>: the corpus as JSON on stdout.
    # run.py builds corpora in a child process, so that the memory of the
    # pools stays out of the peak resident memory of the measured process.
    import json
    import sys

    json.dump(CORPORA[sys.argv[1]](int(sys.argv[2])), sys.stdout)
