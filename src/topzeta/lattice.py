"""Primitive lattice vectors in the positive quadrant and regular subdivisions.

A vector ``(a, b)`` of nonnegative integers with ``gcd(a, b) = 1`` generates
a ray of the quadrant.  Rays are ordered by slope: ``P < Q`` exactly when
``det(P, Q) > 0``, a strict total order on distinct primitive vectors of the
closed quadrant.  A subdivision is a slope-increasing tuple of rays strictly
between the frame rays ``(1, 0)`` and ``(0, 1)`` such that every pair of
neighbours, frames included, spans a cone of determinant one (the cone is
then generated by a lattice basis, so the corresponding toric chart is
smooth).

The minimal regular subdivision of a cone ``u < v`` of determinant ``d`` is
its Hirzebruch-Jung chain ``u = W_0 < W_1 < ... < W_r < W_(r+1) = v`` (Oda,
*Convex Bodies and Algebraic Geometry* (1988) 1.6): ``W_1`` is the vector
with ``det(u, W_1) = 1`` and ``0 <= det(W_1, v) < d``, and ``W_(i+1) =
c_i W_i - W_(i-1)``, where ``x_i = det(W_i, v)`` falls as ``x_(i+1) = c_i x_i
- x_(i-1)`` with ``c_i = ceil(x_(i-1) / x_i)``, until it reaches 0 at ``v``.
Neighbours have determinant one, and the chain is the set of lattice points
on the compact boundary of the convex hull of the cone's nonzero lattice
points, which every regular subdivision of the cone contains.  Through
given rays the chains make their Stern-Brocot closure, the rays with all
their ancestors, where a ray ``w`` off the frames has the parents
``l < w < r``, ``l + r = w``, ``det(l, w) = det(w, r) = 1``; ``insert_rays``
relies on it.  ``minimal_regular_refinement`` fills the cones;
``admissible_subdivision``, ``insert_rays`` and the refined graphs of
``resolution.build_graph`` use it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
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


def _ray(a: int, b: int) -> PrimitiveVector:
    """The ray ``(a, b)`` of a Hirzebruch-Jung chain, made without the
    checks of ``PrimitiveVector``: it has determinant one with its
    neighbour, so it is primitive, and it lies in the cone being filled,
    so both of its coordinates are nonnegative."""
    w = object.__new__(PrimitiveVector)
    object.__setattr__(w, "a", a)
    object.__setattr__(w, "b", b)
    return w


def det(p: PrimitiveVector, q: PrimitiveVector) -> int:
    """Determinant of the 2x2 matrix with columns p and q."""
    return p.a * q.b - p.b * q.a


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
            if u.a * v.b - u.b * v.a != 1:
                raise ValueError(f"subdivision is not regular at {u}, {v}")


class TooManyRays(ValueError):
    """A subdivision passed MAX_DIVISORS rays filling the cone ``ray`` closes."""
    def __init__(self, ray: PrimitiveVector):
        super().__init__(f"a regular subdivision needs more than {MAX_DIVISORS} rays")
        self.ray = ray


def admissible_subdivision(principal) -> Subdivision:
    """Minimal regular subdivision containing every given ray.

    The rays must be strictly slope-increasing with both coordinates
    positive; minimal_regular_refinement fills the gaps between
    neighbours, frame gaps included, and its ``det <= 0`` check refuses
    any other list: a ray on the boundary is a frame, of determinant zero
    with its frame neighbour.
    """
    return Subdivision(minimal_regular_refinement(X_FRAME, *principal, Y_FRAME))


def insert_rays(sub: Subdivision, extra) -> Subdivision:
    """Refine a subdivision so it also contains the given rays.

    Every extra ray must lie strictly inside one of the cones of ``sub``;
    a ray equal to an existing one, or given twice, is rejected.  Only the
    cone that holds a new ray changes: its closure with the ray fills it.
    Rays are placed by increasing ``a + b``, so none is an ancestor of
    one placed before it.  Raises TooManyRays with the first ray past
    MAX_DIVISORS of the whole subdivision.
    """
    rays = [X_FRAME, *sub.vectors, Y_FRAME]
    for w in sorted(extra, key=lambda w: w.a + w.b):
        i = bisect_left(rays, w)
        if rays[i] == w:
            raise ValueError(f"ray {w} already present")
        rays[i:i] = minimal_regular_refinement(rays[i - 1], w, rays[i])
        if len(rays) - 2 > MAX_DIVISORS:
            raise TooManyRays(rays[MAX_DIVISORS + 1])
    return Subdivision(rays[1:-1])


def minimal_regular_refinement(*rays) -> list:
    """The closure rays strictly between the first and the last of the
    slope-increasing ``rays``, the middle ones kept: for u < v alone, the
    W_1 < ... < W_r with all determinants along u, W_1, ..., W_r, v one,
    none exactly when det(u, v) = 1.  Raises TooManyRays(v) past
    MAX_DIVISORS rays, v the end of the cone being filled.

    Each cone u < v of determinant d is one Hirzebruch-Jung walk (see
    the module docstring) from W_1 = r - q u, where det(u, r) = 1 and q
    is the quotient of det(r, v) by d.
    """
    out = []
    for u, v in zip(rays, rays[1:]):
        d = u.a * v.b - u.b * v.a
        if d <= 0:
            raise ValueError(f"rays {u}, {v} do not span a cone: det = {d}")
        a = pow(-u.b, -1, u.a)
        b = (1 + u.b * a) // u.a
        q, x = divmod(a * v.b - b * v.a, d)
        pa, pb, a, b, y = u.a, u.b, a - q * u.a, b - q * u.b, d     # W_0, W_1, x_0
        while x:
            out.append(_ray(a, b))
            if len(out) > MAX_DIVISORS:
                raise TooManyRays(v)
            c = -(-y // x)
            pa, pb, a, b = a, b, c * a - pa, c * b - pb
            x, y = c * x - y, x
        if v is not rays[-1]:
            out.append(v)
        if len(out) > MAX_DIVISORS:
            raise TooManyRays(v)
    return out
