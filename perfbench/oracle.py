"""Independent computations the benchmark checks topzeta's reports against.

Nothing here imports topzeta.  The resolution graph is built another way
than the program builds it: each bamboo's chain is the Stern-Brocot
closure of its principal rays (every ancestor of every ray), not the
minimal hull refinement, and the multiplicity of the divisor of a ray
(c, d) is the support function of the Newton polygon of the strict
transform in that chart, c * N0 + min(c x + d y) over its vertices,
where (N0, nu0) is the pair of the divisor the chart hangs off ((0, 1)
at the root) and nu = c * nu0 + d.  The topological zeta function and
the monodromy zeta function do not depend on the resolution
(Denef-Loeser, J. AMS 5 (1992); A'Campo, Comment. Math. Helv. 50
(1975)), so this graph must give the same functions as the program's.
"""

from __future__ import annotations

from fractions import Fraction


class Graph:
    """Divisors as (N, nu, exceptional) and intersection points as edges."""

    def __init__(self):
        self.nodes = []
        self.edges = []

    def add(self, mult, nu, exceptional=True):
        self.nodes.append((mult, nu, exceptional))
        return len(self.nodes) - 1

    def chi(self):
        """Euler characteristic 2 - degree of each open exceptional stratum
        (None for branch nodes)."""
        deg = [0] * len(self.nodes)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return [2 - d if exc else None for d, (_, _, exc) in zip(deg, self.nodes)]


def stern_brocot_rays(principal):
    """All Stern-Brocot ancestors of the given primitive rays (a, b),
    themselves included, in increasing slope b/a.  Neighbours, and the
    frames (1, 0) and (0, 1) at both ends, span cones of determinant one."""
    rays = set()
    for a, b in principal:
        la, lb, ra, rb = 1, 0, 0, 1
        while True:
            ma, mb = la + ra, lb + rb
            rays.add((ma, mb))
            d = ma * b - mb * a
            if d == 0:
                break
            if d > 0:
                la, lb = ma, mb
            else:
                ra, rb = ma, mb
    return sorted(rays, key=lambda r: Fraction(r[1], r[0]))


def _chain(g, principal, support, base, attach):
    """Emit one bamboo's chain; returns the node of each principal ray."""
    ids = {}
    prev = attach
    for c, d in stern_brocot_rays(principal):
        mult = c * base[0] + min(c * x + d * y for x, y in support)
        i = g.add(mult, c * base[1] + d)
        if prev is not None:
            g.edges.append((prev, i))
        ids[(c, d)] = prev = i
    return [ids[p] for p in principal]


def class_multiplicity(cls) -> int:
    if cls == "leaf":
        return 1
    return sum(f["a"] * sum(class_multiplicity(c) for c in f["classes"])
               for f in cls["faces"])


def _tree_bamboo(g, bamboo, base, attach):
    faces = bamboo["faces"]
    mults = [sum(class_multiplicity(c) for c in f["classes"]) for f in faces]
    x, y = 0, sum(f["a"] * m for f, m in zip(faces, mults))
    vertices = [(x, y)]
    for f, m in zip(faces, mults):
        x, y = x + f["b"] * m, y - f["a"] * m
        vertices.append((x, y))
    pids = _chain(g, [(f["a"], f["b"]) for f in faces], vertices, base, attach)
    for f, p in zip(faces, pids):
        for cls in f["classes"]:
            if cls == "leaf":
                g.edges.append((p, g.add(1, 1, False)))
            else:
                _tree_bamboo(g, cls, g.nodes[p][:2], p)


def tree_graph(tree: dict) -> Graph:
    """Resolution graph of a tree given as the JSON object `topzeta tree` reads."""
    g = Graph()
    _tree_bamboo(g, tree, (0, 1), None)
    return g


def poly_graph(faces, support) -> Graph:
    """Resolution graph of a nondegenerate polynomial from its face list
    (a, b, r) and its support: one chain, r branches on each face."""
    g = Graph()
    pids = _chain(g, [(a, b) for a, b, _ in faces], list(support), (0, 1), None)
    for (_, _, r), p in zip(faces, pids):
        for _ in range(r):
            g.edges.append((p, g.add(1, 1, False)))
    return g


def stratified_zeta(g: Graph, s: Fraction) -> Fraction:
    """sum chi(E)/(N s + nu) over exceptional E plus 1/((N s + nu)(N' s + nu'))
    over intersection points, at the rational number s."""
    lin = [m * s + nu for m, nu, _ in g.nodes]
    total = Fraction(0)
    for x, c in zip(lin, g.chi()):
        if c:
            total += c / x
    for u, v in g.edges:
        total += 1 / (lin[u] * lin[v])
    return total


def acampo(g: Graph) -> dict:
    """Monodromy zeta function prod (1 - t^N)^(-chi) as {N: exponent}."""
    exps = {}
    for (m, _, _), c in zip(g.nodes, g.chi()):
        if c:
            exps[m] = exps.get(m, 0) - c
    return {n: e for n, e in exps.items() if e}


def milnor_number(monodromy: dict) -> int:
    """Degree of (1 - t) * prod (1 - t^n)^e."""
    return 1 + sum(n * e for n, e in monodromy.items())


def kouchnirenko(support) -> int:
    """Newton number 2V - a - b + 1 of a convenient support (Kouchnirenko,
    Invent. Math. 32 (1976)): V is the area under the Newton polygon, a
    and b are where it meets the axes."""
    a = min(i for i, j in support if j == 0)
    b = min(j for i, j in support if i == 0)
    hull = []
    for pt in sorted(p for p in support if 0 < p[0] < a or p in ((0, b), (a, 0))):
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (pt[1] - hull[-2][1])
                                  - (hull[-1][1] - hull[-2][1]) * (pt[0] - hull[-2][0])) <= 0:
            hull.pop()
        hull.append(pt)
    twice_area = sum((x2 - x1) * (y1 + y2) for (x1, y1), (x2, y2) in zip(hull, hull[1:]))
    return twice_area - a - b + 1
