"""The cone filler that ``topzeta.lattice.minimal_regular_refinement`` used
before it walked each cone by the Hirzebruch-Jung recurrence, kept as it
was: the reference that the recurrence is tested against.  It builds the
rays of a cone u < v from two walks of Stern-Brocot parents, u's right
parents, then v's left parents, stored reversed, with one modular
inverse per ray."""

from topzeta.lattice import MAX_DIVISORS, PrimitiveVector, TooManyRays


def _parent(a: int, b: int) -> PrimitiveVector:
    """The Stern-Brocot parent ``(a, b)`` of a ray, made without the checks
    of ``PrimitiveVector``: it has determinant one with the ray, so it is
    primitive, and both of its coordinates are nonnegative."""
    w = object.__new__(PrimitiveVector)
    object.__setattr__(w, "a", a)
    object.__setattr__(w, "b", b)
    return w


def minimal_regular_refinement(*rays) -> list:
    """The closure rays strictly between the first and the last of the
    slope-increasing ``rays``, the middle ones kept: for u < v alone, the
    W_1 < ... < W_r with all determinants along u, W_1, ..., W_r, v one,
    none exactly when det(u, v) = 1.  Raises TooManyRays(v) past
    MAX_DIVISORS rays, v the end of the cone being filled.

    A cone u < v gets u's right parents while they are below v, which ends
    at the common ancestor, then v's left parents, reversed, down to a
    neighbour of the last ray taken.  Every closure ray between those two
    is an ancestor of v, so no left parent needs a test against u.  Each
    walk stops once d, the determinant of the pair it is at, is one.
    """
    out = []
    for u, v in zip(rays, rays[1:]):
        d = u.a * v.b - u.b * v.a
        if d <= 0:
            raise ValueError(f"rays {u}, {v} do not span a cone: det = {d}")
        while d > 1:
            a = pow(-u.b, -1, u.a)          # u's right parent (a, b)
            b = (1 + u.b * a) // u.a
            e = a * v.b - b * v.a
            if e <= 0:                      # not below v
                break
            u, d = _parent(a, b), e
            out.append(u)
            if len(out) > MAX_DIVISORS:
                raise TooManyRays(v)
        if d > 1:
            top, hi = len(out), v
            while d > 1:
                b = pow(-hi.a, -1, hi.b)        # hi's left parent
                hi = _parent((1 + hi.a * b) // hi.b, b)
                out.append(hi)
                if len(out) > MAX_DIVISORS:
                    raise TooManyRays(v)
                d = u.a * b - u.b * hi.a
            out[top:] = reversed(out[top:])
        if v is not rays[-1]:
            out.append(v)
        if len(out) > MAX_DIVISORS:
            raise TooManyRays(v)
    return out
