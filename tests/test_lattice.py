import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_lattice import minimal_regular_refinement as reference_refinement
from topzeta.lattice import (MAX_DIVISORS, PrimitiveVector, Subdivision,
                             TooManyRays, X_FRAME, Y_FRAME,
                             admissible_subdivision, det, insert_rays,
                             minimal_regular_refinement)


def pv(a, b):
    return PrimitiveVector(a, b)


# --- independent oracle: hull boundary by exhaustive lattice enumeration ----

def hull_refinement(u, v, bound):
    """Interior hull generators of cone(u, v), by brute force.

    Enumerates every lattice point of the cone with coordinates <= bound,
    takes the lower hull in the linear coordinates (det(u, p), p.x + p.y),
    and expands each hull edge into its lattice points in primitive steps:
    the boundary points between u and v, endpoints dropped, are the
    minimal set of insertions making the cone regular.
    """
    pts = []
    for x in range(bound + 1):
        for y in range(bound + 1):
            if (x, y) == (0, 0):
                continue
            if u.a * y - u.b * x >= 0 and x * v.b - y * v.a >= 0:
                pts.append((u.a * y - u.b * x, x + y, (x, y)))
    pts.sort()
    hull = []
    for p in pts:
        while len(hull) >= 2:
            x1, y1, _ = hull[-2]
            x2, y2, _ = hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    vertices = []
    for _, _, p in hull:
        vertices.append(p)
        if p == (v.a, v.b):
            break
    assert vertices[0] == (u.a, u.b) and vertices[-1] == (v.a, v.b)
    chain = [vertices[0]]
    for (x1, y1), (x2, y2) in zip(vertices, vertices[1:]):
        g = gcd(abs(x2 - x1), abs(y2 - y1))
        sx, sy = (x2 - x1) // g, (y2 - y1) // g
        chain.extend((x1 + j * sx, y1 + j * sy) for j in range(1, g + 1))
    return [pv(*p) for p in chain[1:-1]]


# --- det / slope order -------------------------------------------------------

def test_det_examples():
    assert det(pv(1, 0), pv(0, 1)) == 1
    assert det(pv(2, 3), pv(3, 5)) == 1
    assert det(pv(1, 0), pv(2, 3)) == 3


def test_det_antisymmetric():
    assert det(pv(2, 3), pv(3, 5)) == -det(pv(3, 5), pv(2, 3))


def test_slope_less_examples():
    assert pv(1, 0) < pv(0, 1)
    assert not pv(2, 3) < pv(3, 2)
    assert not pv(2, 3) < pv(2, 3)


def test_primitive_vector_validation():
    with pytest.raises(ValueError):
        pv(2, 4)
    with pytest.raises(ValueError):
        pv(0, 0)
    with pytest.raises(ValueError):
        pv(-1, 2)


# --- refinement --------------------------------------------------------------

def test_refinement_examples():
    assert minimal_regular_refinement(pv(1, 0), pv(0, 1)) == []
    assert minimal_regular_refinement(pv(1, 0), pv(2, 3)) == [pv(1, 1)]
    assert minimal_regular_refinement(pv(2, 3), pv(0, 1)) == [pv(1, 2)]


def test_refinement_rejects_degenerate_cone():
    with pytest.raises(ValueError):
        minimal_regular_refinement(pv(2, 3), pv(2, 3))
    with pytest.raises(ValueError):
        minimal_regular_refinement(pv(2, 3), pv(1, 1))


def test_refinement_empty_iff_det_one():
    for u, v in [(pv(1, 0), pv(5, 1)), (pv(1, 1), pv(4, 5)), (pv(2, 5), pv(1, 3))]:
        ref = minimal_regular_refinement(u, v)
        assert (ref == []) == (det(u, v) == 1)


def test_refinement_matches_hull_oracle_seeded():
    # 200 random coprime pairs against the exhaustive hull
    rng = random.Random(2024)
    seen = 0
    while seen < 200:
        a, b = rng.randint(1, 50), rng.randint(1, 50)
        if gcd(a, b) != 1:
            continue
        seen += 1
        got = minimal_regular_refinement(pv(1, 0), pv(a, b))
        expected = hull_refinement(pv(1, 0), pv(a, b), a + b)
        assert got == expected, (a, b)
        chain = [pv(1, 0), *got, pv(a, b)]
        assert all(det(p, q) == 1 for p, q in zip(chain, chain[1:]))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 15), st.integers(1, 15), st.integers(1, 15), st.integers(1, 15))
def test_refinement_matches_hull_oracle_generic(a, b, c, d):
    if gcd(a, b) != 1 or gcd(c, d) != 1:
        return
    u, v = pv(a, b), pv(c, d)
    if det(u, v) <= 0:
        u, v = v, u
    if det(u, v) <= 0:
        return
    got = minimal_regular_refinement(u, v)
    bound = max(u.a, u.b, v.a, v.b) + 1
    assert got == hull_refinement(u, v, bound)


def linear_search_refinement(u, v):
    """The hull neighbours found by trying p = 1 .. d-1 in turn."""
    out = []
    d = det(u, v)
    while d > 1:
        p = next(p for p in range(1, d)
                 if (p * u.a + v.a) % d == 0 and (p * u.b + v.b) % d == 0)
        u = pv((p * u.a + v.a) // d, (p * u.b + v.b) // d)
        out.append(u)
        d = det(u, v)
    return out


def test_refinement_matches_linear_search_exhaustive():
    # every cone u < v of primitive vectors with coordinates up to 12,
    # frames included
    rays = [pv(a, b) for a in range(13) for b in range(13)
            if (a, b) != (0, 0) and gcd(a, b) == 1]
    cones = 0
    for u in rays:
        for v in rays:
            if det(u, v) > 0:
                assert minimal_regular_refinement(u, v) == linear_search_refinement(u, v), (u, v)
                cones += 1
    assert cones > 4000


# --- admissible subdivisions -------------------------------------------------

def check_subdivision(sub, principal):
    chain = [X_FRAME, *sub.vectors, Y_FRAME]
    assert all(det(p, q) == 1 for p, q in zip(chain, chain[1:]))
    for p in principal:
        assert p in sub.vectors
    assert sub.vectors[0].b == 1 and sub.vectors[-1].a == 1


def test_admissible_subdivision_examples():
    sub = admissible_subdivision([pv(2, 3)])
    assert sub.vectors == (pv(1, 1), pv(2, 3), pv(1, 2))
    assert admissible_subdivision([pv(1, 1)]).vectors == (pv(1, 1),)
    sub = admissible_subdivision([pv(3, 2), pv(2, 3)])
    assert sub.vectors == (pv(2, 1), pv(3, 2), pv(1, 1), pv(2, 3), pv(1, 2))


def test_admissible_subdivision_invariants_random():
    rng = random.Random(5)
    for _ in range(50):
        rays = set()
        while len(rays) < rng.randint(1, 4):
            a, b = rng.randint(1, 12), rng.randint(1, 12)
            if gcd(a, b) == 1:
                rays.add((a, b))
        principal = sorted((pv(a, b) for a, b in rays),
                           key=lambda p: Fraction(p.b, p.a))
        sub = admissible_subdivision(principal)
        check_subdivision(sub, principal)


def test_admissible_subdivision_rejects_bad_input():
    with pytest.raises(ValueError):
        admissible_subdivision([pv(2, 3), pv(3, 2)])   # slope order
    with pytest.raises(ValueError):
        admissible_subdivision([pv(1, 0)])             # boundary ray


def test_separation_from_principal_when_entries_large():
    # b >= 2 forces a strict first vector, a >= 2 a strict last one
    sub = admissible_subdivision([pv(2, 3)])
    assert sub.vectors[0] != pv(2, 3) and sub.vectors[-1] != pv(2, 3)


def test_admissible_subdivision_large_b_in_time():
    start = time.perf_counter()
    sub = admissible_subdivision([pv(3, 100003)])
    assert time.perf_counter() - start < 2.0
    check_subdivision(sub, [pv(3, 100003)])


def test_subdivision_refused_past_max_divisors():
    # (2, b) needs (b + 3) / 2 rays: b = 2 MAX - 3 is the largest that fits
    b = 2 * MAX_DIVISORS - 3
    assert len(admissible_subdivision([pv(2, b)]).vectors) == MAX_DIVISORS
    with pytest.raises(TooManyRays) as exc:
        admissible_subdivision([pv(2, b + 2)])
    assert exc.value.ray == Y_FRAME     # the last ray made closes the frame cone
    start = time.perf_counter()
    with pytest.raises(TooManyRays) as exc:
        admissible_subdivision([pv(3, 4), pv(2, 10 ** 400 + 1)])
    assert time.perf_counter() - start < 2.0
    assert exc.value.ray == pv(2, 10 ** 400 + 1)
    base = admissible_subdivision([pv(1, MAX_DIVISORS - 1)])
    with pytest.raises(TooManyRays):
        insert_rays(base, [pv(1, MAX_DIVISORS + 1)])


# --- insert_rays -------------------------------------------------------------

def test_insert_rays_examples():
    base = Subdivision((pv(1, 1),))
    finer = insert_rays(base, [pv(2, 1)])
    assert finer.vectors == (pv(2, 1), pv(1, 1))

    node = admissible_subdivision([pv(2, 3)])
    finer = insert_rays(node, [pv(3, 4)])
    assert pv(3, 4) in finer.vectors
    for p in node.vectors:
        assert p in finer.vectors
    check_subdivision(finer, node.vectors)

    with pytest.raises(ValueError):
        insert_rays(base, [pv(1, 1)])

    # (1, 1) is an ancestor of (2, 3): given with it, in either order, it
    # is not a repeat
    for extra in ([pv(2, 3), pv(1, 1)], [pv(1, 1), pv(2, 3)]):
        assert insert_rays(Subdivision(()), extra).vectors == (pv(1, 1), pv(2, 3), pv(1, 2))


def test_insert_rays_re_regularizes():
    # (7,9) splits the cone between (1,1) and (2,3) into gaps of det 2 and 3
    base = admissible_subdivision([pv(2, 3)])
    finer = insert_rays(base, [pv(7, 9)])
    check_subdivision(finer, base.vectors)
    assert pv(7, 9) in finer.vectors


def ray_in_cone(rays, j, rng):
    """A random primitive ray strictly inside the cone rays[j], rays[j+1]
    of a regular subdivision, frames included."""
    u, v = rays[j], rays[j + 1]
    p, q = rng.randint(1, 9), rng.randint(1, 9)
    g = gcd(p, q)
    return pv((p * u.a + q * v.a) // g, (p * u.b + q * v.b) // g)


def test_insert_rays_matches_the_full_re_regularization():
    # insert_rays fills only the cones that hold the new rays; the result
    # must be the regularization of the sorted union from frame to frame.
    # 1-4 rays per call, drawn from random cones, the frame cones among
    # them, and often one an ancestor of another
    rng = random.Random(14)
    low_frame = high_frame = nested = 0
    for cap in (5, 20, 200, 3000):
        for _ in range(100):
            rays = set()
            while len(rays) < rng.randint(1, 5):
                a, b = rng.randint(1, cap), rng.randint(1, cap)
                if gcd(a, b) == 1:
                    rays.add(pv(a, b))
            sub = admissible_subdivision(sorted(rays))
            chain = [X_FRAME, *sub.vectors, Y_FRAME]
            cones = [rng.choice((0, len(chain) - 2, rng.randrange(len(chain) - 1)))
                     for _ in range(rng.randint(1, 4))]
            low_frame += 0 in cones
            high_frame += len(chain) - 2 in cones
            extra = list({ray_in_cone(chain, j, rng): None for j in cones})
            union = sorted({*sub.vectors, *extra})
            want = tuple(minimal_regular_refinement(X_FRAME, *union, Y_FRAME))
            assert insert_rays(sub, extra).vectors == want, (sub, extra)
            nested += any(w in insert_rays(sub, [x]).vectors
                          for w in extra for x in extra if w != x)
            with pytest.raises(ValueError, match="already present"):
                insert_rays(sub, [*extra, rng.choice(sub.vectors)])
            with pytest.raises(ValueError, match="already present"):
                insert_rays(sub, [*extra, rng.choice(extra)])
    assert low_frame > 100 and high_frame > 100 and nested > 20


def test_subdivision_regularity_enforced():
    with pytest.raises(ValueError):
        Subdivision((pv(2, 3),))   # det((1,0),(2,3)) = 3


# --- the minimal regular subdivision is the Stern-Brocot closure ------------

def stern_brocot_closure(rays):
    """Every Stern-Brocot ancestor of the given rays, themselves included and
    frames excluded, in slope order: each ray is found by mediant descent
    from the frames, and every mediant on the way is kept."""
    closure = set()
    for w in rays:
        lo, hi = (1, 0), (0, 1)
        while True:
            m = (lo[0] + hi[0], lo[1] + hi[1])
            closure.add(m)
            side = m[0] * w.b - m[1] * w.a
            if side == 0:
                break
            if side > 0:
                lo = m
            else:
                hi = m
    return tuple(pv(a, b) for a, b in sorted(closure, key=lambda m: Fraction(m[1], m[0])))


def test_subdivisions_are_the_stern_brocot_closure():
    # 1-6 rays per set, coordinates up to 5, 20, 200 or 3000, a = 1 and
    # b = 1 allowed; each subdivision also gets one more ray inserted
    rng = random.Random(8)
    inserted = 0
    for cap in (5, 20, 200, 3000):
        for _ in range(100):
            rays = set()
            while len(rays) < rng.randint(1, 6):
                a, b = rng.randint(1, cap), rng.randint(1, cap)
                if gcd(a, b) == 1:
                    rays.add((a, b))
            principal = sorted((pv(a, b) for a, b in rays),
                               key=lambda p: Fraction(p.b, p.a))
            sub = admissible_subdivision(principal)
            assert sub.vectors == stern_brocot_closure(principal), principal
            a, b = rng.randint(1, cap), rng.randint(1, cap)
            if gcd(a, b) == 1 and pv(a, b) not in sub.vectors:
                w = pv(a, b)
                assert insert_rays(sub, [w]).vectors == \
                    stern_brocot_closure([*sub.vectors, w]), (principal, w)
                inserted += 1
    assert inserted > 150


# --- the Hirzebruch-Jung fill against the two-walk filler it replaced -------

def same_fill(rays):
    """The rays both fillers return, or the type, message and ray of the
    ValueError both raise, asserted equal."""
    def run(fill):
        try:
            return fill(*rays)
        except ValueError as e:
            return type(e), str(e), getattr(e, "ray", None)
    got = run(minimal_regular_refinement)
    assert got == run(reference_refinement), rays
    return got


def test_fill_matches_the_two_walk_reference():
    # 1-6 rays in slope order, coordinates up to 10, 10^3, 10^6 or 10^12,
    # half of the lists between the frames, each list also reversed; and
    # two lists past MAX_DIVISORS, each with a cone u < u + n w,
    # det(u, w) = 1, of n - 1 rays: alone, and between the frames
    rng = random.Random(20)
    filled = refused = too_many = 0
    for cap, lists in ((10, 400), (10 ** 3, 400), (10 ** 6, 200), (10 ** 12, 100)):
        for _ in range(lists):
            rays = set()
            while len(rays) < rng.randint(1, 6):
                a, b = rng.randint(1, cap), rng.randint(1, cap)
                if gcd(a, b) == 1:
                    rays.add(pv(a, b))
            rays = sorted(rays)
            if rng.random() < 0.5:
                rays = [X_FRAME, *rays, Y_FRAME]
            filled += isinstance(same_fill(rays), list)
            refused += isinstance(same_fill(rays[::-1]), tuple)
    for n, framed in ((MAX_DIVISORS + 2, False), (MAX_DIVISORS, True)):
        while True:
            a, b = rng.randint(1, 1000), rng.randint(1, 1000)
            if gcd(a, b) == 1:
                break
        w_a = pow(-b, -1, a)
        w_b = (1 + b * w_a) // a                # det(u, w) = 1
        u, v = pv(a, b), pv(a + n * w_a, b + n * w_b)
        got = same_fill([X_FRAME, u, v, Y_FRAME] if framed else [u, v])
        too_many += got == (TooManyRays, str(TooManyRays(v)), v)
    assert filled > 1000 and refused > 900 and too_many == 2, (filled, refused, too_many)
