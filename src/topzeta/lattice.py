"""Primitive lattice vectors in the positive quadrant and regular subdivisions.

A vector ``(a, b)`` of nonnegative integers with ``gcd(a, b) = 1`` generates
a ray of the quadrant.  Rays are ordered by slope: ``P < Q`` exactly when
``det(P, Q) > 0``, a strict total order on distinct primitive vectors of the
closed quadrant.  A subdivision is a slope-increasing tuple of rays strictly
between the frame rays ``(1, 0)`` and ``(0, 1)`` such that every pair of
neighbours, frames included, spans a cone of determinant one (the cone is
then generated by a lattice basis, so the corresponding toric chart is
smooth).

The refinement routine inserts, between two rays ``U < V``, exactly the
primitive generators lying on the compact boundary of the convex hull of the
nonzero lattice points of the cone they span.  This is the unique minimal
way to reach determinant one everywhere, and it is the construction the
rest of the package treats as canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import gcd

# The most exceptional divisors one resolution graph may have, and so the
# most rays of one subdivision: a cone (1, 0), (a, b) needs about b / a, so
# subdivisions are refused, as their rays are made, past this bound.  It is
# above the largest input the tests and the benchmark build (a (3, 100003)
# face: 33,335 rays); a (2, b) face passes it from b = 199,999 on.
MAX_DIVISORS = 100_000


@dataclass(frozen=True)
class PrimitiveVector:
    """An integer vector (a, b) with a, b >= 0 and gcd(a, b) = 1."""

    a: int
    b: int

    def __post_init__(self):
        if not (isinstance(self.a, int) and isinstance(self.b, int)):
            raise TypeError("coordinates must be integers")
        if self.a < 0 or self.b < 0:
            raise ValueError(f"({self.a}, {self.b}) leaves the positive quadrant")
        if (self.a, self.b) == (0, 0):
            raise ValueError("the zero vector generates no ray")
        if gcd(self.a, self.b) != 1:
            raise ValueError(f"({self.a}, {self.b}) is not primitive")

    def __lt__(self, other: "PrimitiveVector") -> bool:
        return det(self, other) > 0

    def __repr__(self):
        return f"({self.a},{self.b})"


X_FRAME = PrimitiveVector(1, 0)
Y_FRAME = PrimitiveVector(0, 1)


def det(p: PrimitiveVector, q: PrimitiveVector) -> int:
    """Determinant of the 2x2 matrix with columns p and q."""
    return p.a * q.b - p.b * q.a


def slope_less(p: PrimitiveVector, q: PrimitiveVector) -> bool:
    """Strict slope order: true iff det(p, q) > 0."""
    return det(p, q) > 0


@dataclass(frozen=True)
class Subdivision:
    """Regular subdivision of the quadrant, frames (1,0) and (0,1) implicit.

    Invariant: consecutive determinants along (1,0), vectors..., (0,1) are
    all one, which also forces the vectors to be strictly slope-increasing.
    """

    vectors: tuple[PrimitiveVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "vectors", tuple(self.vectors))
        chain = (X_FRAME, *self.vectors, Y_FRAME)
        for u, v in zip(chain, chain[1:]):
            if det(u, v) != 1:
                raise ValueError(f"subdivision is not regular at {u}, {v}")


class TooManyRays(ValueError):
    """A subdivision passed MAX_DIVISORS rays filling the cone ``ray`` closes."""
    def __init__(self, ray: PrimitiveVector):
        super().__init__(f"a regular subdivision needs more than {MAX_DIVISORS} rays")
        self.ray = ray


def minimal_regular_refinement(u: PrimitiveVector, v: PrimitiveVector):
    """Hull generators strictly between u and v.

    Returns the slope-increasing list W_1 < ... < W_r with all consecutive
    determinants along u, W_1, ..., W_r, v equal to one; empty exactly when
    det(u, v) = 1.  Each step inserts the hull neighbour of u: among the
    lattice points W of the open cone with det(u, W) = 1, the one with the
    least det(W, v).  Writing W = (p*u + v)/d for d = det(u, v), that W is
    picked by the unique p in 1..d-1 making the division integral.  As
    det(u, v) = 0 mod d and u is primitive, v = c*u mod d, and Bezout
    coefficients x*u.a + y*u.b = 1 read off c = x*v.a + y*v.b, so p = -c.
    """
    return list(_hull_generators(u, v))


def _hull_generators(u, v):
    """The generators of minimal_regular_refinement, one at a time."""
    d = det(u, v)
    if d <= 0:
        raise ValueError(f"rays {u}, {v} do not span a cone: det = {d}")
    while d > 1:
        x, y = _bezout(u.a, u.b)
        p = -(x * v.a + y * v.b) % d
        if (p * u.a + v.a) % d or (p * u.b + v.b) % d:
            raise AssertionError("no integral hull neighbour; u not primitive?")
        u = PrimitiveVector((p * u.a + v.a) // d, (p * u.b + v.b) // d)
        yield u
        d = det(u, v)


def _bezout(a, b):
    """(x, y) with x*a + y*b = gcd(a, b), by the extended Euclidean algorithm."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return x0, y0


def admissible_subdivision(principal) -> Subdivision:
    """Minimal regular subdivision containing every given ray.

    The rays must be strictly slope-increasing with both coordinates
    positive.  Neighbouring gaps, frame gaps included, are filled with
    minimal_regular_refinement.
    """
    principal = list(principal)
    for p in principal:
        if p.a < 1 or p.b < 1:
            raise ValueError(f"ray {p} lies on the boundary of the quadrant")
    for p, q in zip(principal, principal[1:]):
        if not slope_less(p, q):
            raise ValueError(f"rays out of slope order: {p} before {q}")
    return _regularize([X_FRAME, *principal, Y_FRAME])


def insert_rays(sub: Subdivision, extra) -> Subdivision:
    """Refine a subdivision so it also contains the given rays.

    Every extra ray must lie strictly inside one of the cones of ``sub``;
    a ray equal to an existing one is rejected.  Gaps opened by the new
    rays are re-regularized with minimal_regular_refinement.
    """
    rays = [X_FRAME, *sub.vectors, Y_FRAME]
    for w in extra:
        for idx, r in enumerate(rays):
            d = det(r, w)
            if d == 0:
                raise ValueError(f"ray {w} already present")
            if d < 0:
                rays.insert(idx, w)
                break
        else:
            rays.append(w)
    return _regularize(rays)


def _regularize(rays) -> Subdivision:
    """The subdivision through the slope-increasing ``rays``, frames
    included, with every gap filled by its hull generators; raises
    TooManyRays before it holds more than MAX_DIVISORS of them."""
    vectors = []
    for u, v in zip(rays, rays[1:]):
        room = MAX_DIVISORS + 1 - len(vectors)
        vectors.extend(islice(_hull_generators(u, v), room))
        if v is not Y_FRAME:
            vectors.append(v)
        if len(vectors) > MAX_DIVISORS:
            raise TooManyRays(v)
    return Subdivision(tuple(vectors))
