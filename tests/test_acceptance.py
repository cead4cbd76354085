"""Acceptance suite: one test per criterion, exact values throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion.  A face's ``(a, b)`` is the Newton pair of the curve in the
chart of the toric modification before it, with ``a, b >= 1`` at every
depth.  The tree corpus is 500 seeded random trees (depth <= 3, up to 3
faces per bamboo, entries 2..9) plus the golden instances; the unit-entry
tree corpus is 200 more with entries 1..9 at every depth.  The face corpus
is 200 seeded random nondegenerate face lists with all entries at least
two, plus the constructed double-pole instance.  The checks that need no
resolution graph (Z(0) = 1, Kouchnirenko's Milnor number) also run on
2000 seeded face lists with entries 1..9, and so does the one that reads
the poles and their orders off the graph's rupture divisors.  Criterion
14 reads mu and every principal N off the contact orders of the Puiseux
roots, with neither the multiplicity recursion nor the graph; criterion
15 builds the monodromy zeta function from the same contacts, and checks
Zariski's formula on 2000 seeded branches with a in 2..9 and 2000 with
a in 1..9.  Criterion 17 reads the largest pole, -lct, off the point
where the diagonal meets the Newton polygon of every face list, and off
the first Puiseux pair of seeded branches.  A last test rewrites trees
into non-minimal encodings of the same germ.
"""

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

import pytest

from face_specs import random_face_specs, random_unit_pairs, random_unit_tree
from topzeta.cli import analyze_poly, random_tree
from topzeta.equitree import Bamboo, Face, LEAF, Leaf, annotate, annotate_faces
from topzeta.monodromy import (acampo_from_graph, characteristic_poly,
                               conjecture_report, monodromy_zeta,
                               root_multiplicity)
from topzeta.resolution import (build_graph, build_graph_nondegenerate,
                                chain_determinant_check, definitional_zeta)
from topzeta.zeta import candidate_poles, poles, zeta_general, zeta_nondegenerate

TREE_SEED = 7
TREE_COUNT = 500
FACE_SEED = 11
FACE_COUNT = 200
UNIT_FACE_SEED = 5
UNIT_FACE_COUNT = 2000
UNIT_TREE_SEED = 13
UNIT_TREE_COUNT = 200
REWRITE_SEED = 17
LCT_BRANCH_SEED = 23
LCT_BRANCH_COUNT = 400
BRANCH_SEED = 19
BRANCH_COUNT = 2000
RAY_INSTANCES = 100
EXPANSION_CAP = 2500
FULL_EXPANSION_CAP = 300

CUSP = Bamboo((Face(2, 3, (LEAF,)),))
TWO_PAIR = Bamboo((Face(2, 3, (Bamboo((Face(2, 7, (LEAF,)),)),)),))
ORDER_TWO_SPECS = [(3, 2, 1), (2, 3, 1)]
CANCELLED_SPECS = [(2, 3, 1), (1, 2, 1)]


@dataclass
class TreeInstance:
    spec: Bamboo
    annotated: object
    zeta: object
    graph: object
    zeta_oracle: object
    zmon: object
    zmon_oracle: object


@dataclass
class FaceInstance:
    specs: list
    zeta: object
    graph: object
    zmon: object


def tree_instance(spec):
    annotated = annotate(spec)
    graph = build_graph(annotated)
    return TreeInstance(
        spec=spec,
        annotated=annotated,
        zeta=zeta_general(annotated),
        graph=graph,
        zeta_oracle=definitional_zeta(graph),
        zmon=monodromy_zeta(annotated),
        zmon_oracle=acampo_from_graph(graph),
    )


@pytest.fixture(scope="module")
def tree_corpus():
    rng = random.Random(TREE_SEED)
    specs = [random_tree(rng) for _ in range(TREE_COUNT)]
    return [tree_instance(spec) for spec in specs + [CUSP, TWO_PAIR]]


@pytest.fixture(scope="module")
def unit_tree_corpus():
    """Random trees with a, b in 1..9 at every depth, so that a face with
    a = 1 or b = 1 occurs below the root too."""
    rng = random.Random(UNIT_TREE_SEED)
    return [tree_instance(random_unit_tree(rng)) for _ in range(UNIT_TREE_COUNT)]


@pytest.fixture(scope="module")
def face_corpus():
    rng = random.Random(FACE_SEED)
    lists = [random_face_specs(rng) for _ in range(FACE_COUNT)]
    lists.append(ORDER_TWO_SPECS)
    out = []
    for specs in lists:
        graph = build_graph_nondegenerate(specs)
        out.append(FaceInstance(
            specs=specs,
            zeta=zeta_nondegenerate(specs),
            graph=graph,
            zmon=acampo_from_graph(graph),
        ))
    return out


@pytest.fixture(scope="module")
def unit_face_lists():
    """Random face lists with a, b in 1..9, so that faces with a = 1 or
    b = 1 (smooth faces, whose candidate may cancel) occur."""
    rng = random.Random(UNIT_FACE_SEED)
    return [[(a, b, rng.randint(1, 3)) for a, b in random_unit_pairs(rng)]
            for _ in range(UNIT_FACE_COUNT)]


def value_at_zero(z):
    value = z.scale * (z.num[0] if z.num else 0)
    for (_, nu), e in z.den:
        value /= Fraction(nu) ** e
    return value


def kouchnirenko(specs):
    """2V - A - B + 1 for the Newton polygon with faces (a, b, r) in slope
    order: from (0, B) each face steps by (r b, -r a) down to (A, 0), and
    V is the area between the polygon and the axes."""
    x = twice_area = 0
    y = top = sum(r * a for a, _, r in specs)
    for a, b, r in specs:
        twice_area += r * b * (2 * y - r * a)
        x, y = x + r * b, y - r * a
    return twice_area - x - top + 1


def rupture_poles(graph):
    """{value: order} for -1 and the -nu/N of every exceptional curve that
    meets at least three other components, branches included: the poles of
    a plane curve's local topological zeta function (Veys, Manuscripta
    Math. 87 (1995)), read off the graph with no zeta sum.  A pole x has
    order two when two such nodes, or branches (whose -nu/N is -1), lie in
    one connected part of the subgraph of nodes with -nu/N = x."""
    degree = Counter(i for edge in graph.edges for i in edge)
    ratio = [Fraction(-n.nu, n.mult) for n in graph.nodes]
    part = list(range(len(graph.nodes)))          # union-find over equal-ratio edges

    def find(i):
        while part[i] != i:
            part[i] = i = part[part[i]]
        return i

    for u, v in graph.edges:
        if ratio[u] == ratio[v]:
            part[find(u)] = find(v)
    special = [i for i, n in enumerate(graph.nodes)
               if n.kind == "branch" or degree[i] >= 3]
    per_part = Counter(find(i) for i in special)
    orders = {Fraction(-1): 1}
    for i in special:
        orders[ratio[i]] = max(orders.get(ratio[i], 1), min(per_part[find(i)], 2))
    return orders


def root_count(cls):
    """Puiseux roots of a branch class per determination of the levels
    above it: 1 for a leaf, the sum of a times its classes' counts over the
    faces of a sub-bamboo."""
    if isinstance(cls, Leaf):
        return 1
    return sum(f.a * sum(root_count(c) for c in f.classes) for f in cls.faces)


def contact_oracle(tree):
    """Milnor number, {(bamboo path, face index): N} and {bamboo path:
    N_top} of a tree, from the contact orders of its Puiseux roots alone.

    A leaf whose path has the pairs (a_1, b_1) ... (a_k, b_k) has A_k =
    a_1 ... a_k roots, whose level-m terms have the exponents E_m = E_(m-1)
    + b_m / (a_m A_(m-1)).  Two roots that first differ at level l have
    contact E_(l-1) + min(b/a, b'/a') / A_(l-1) when they lie on different
    faces there, and E_l when they lie on one face, in different classes or
    as different conjugates.  The sum over ordered pairs of distinct roots
    is mu + n - 1, n the number of roots (Teissier); a face's N is the sum
    of contacts between the roots of a curvette, a new class on that face,
    and those of the curve (Halphen-Zeuthen).  The walk takes one group of
    roots that agree through the levels above a bamboo at a time: E and P =
    A_(l-1) are the group's exponent and the number of such groups, and
    ``outside`` the contacts of one of its roots with every root outside.
    A bamboo's N_top is the contact sum of a curvette beyond its last face,
    whose slope is above every face's.
    """
    mults, tops = {}, {}

    def walk(bamboo, path, E, P, outside):
        slopes = [Fraction(f.b, f.a * P) for f in bamboo.faces]
        counts = [[root_count(c) for c in f.classes] for f in bamboo.faces]
        group = [f.a * sum(rs) for f, rs in zip(bamboo.faces, counts)]
        tops[path] = P * (outside + sum(g * (E + s) for g, s in zip(group, slopes)))
        pairs = 0
        for i, f in enumerate(bamboo.faces):
            across = sum(g * (E + min(slopes[i], slopes[j]))
                         for j, g in enumerate(group) if j != i)
            here = E + slopes[i]
            pairs += group[i] * across + (group[i] ** 2 - f.a * sum(r * r for r in counts[i])) * here
            mults[(path, i)] = P * f.a * (outside + across + group[i] * here)
            for l, (cls, r) in enumerate(zip(f.classes, counts[i])):
                if isinstance(cls, Bamboo):
                    pairs += f.a * walk(cls, path + ((i, l),), here, P * f.a,
                                        outside + across + (group[i] - r) * here)
        return pairs

    pairs = walk(tree, (), Fraction(0), 1, Fraction(0))
    return pairs - root_count(tree) + 1, mults, tops


def zariski_zeta(levels):
    """{n: e} of prod (1 - t^n)^e by Zariski's formula for the branch whose
    Newton pairs, level by level, are ``levels``: prod_(i>=1) (1 -
    t^(n_i bb_i)) / prod_(i>=0) (1 - t^bb_i), with n_i = a_i, the
    characteristic beta_0 = a_1 ... a_g and beta_i = E_i beta_0, and the
    semigroup generators bb_0 = beta_0, bb_1 = beta_1 and bb_(i+1) = n_i bb_i
    + beta_(i+1) - beta_i.  A level with a = 1 is no characteristic pair:
    its two factors cancel, and the next bb is as if it were not there."""
    beta0 = prod(a for a, _ in levels)
    betas, E, A = [], Fraction(0), 1
    for a, b in levels:
        E += Fraction(b, a * A)
        A *= a
        betas.append(int(E * beta0))
    bars = [beta0, betas[0]]
    for i in range(1, len(levels)):
        bars.append(levels[i - 1][0] * bars[i] + betas[i] - betas[i - 1])
    zeta = Counter()
    for bar in bars:
        zeta[bar] -= 1
    for (a, _), bar in zip(levels, bars[1:]):
        zeta[a * bar] += 1
    return {n: e for n, e in zeta.items() if e}


def times_one_minus(c, n):
    """The coefficients of c(t) * (1 - t^n)."""
    return [x - (c[i - n] if i >= n else 0) for i, x in enumerate(c + [0] * n)]


def full_expansion(factors):
    """The coefficients of prod (1 - t^n)^e over its whole degree, with no
    mirroring: the factors with e > 0 multiplied out, then each one with
    e < 0 divided off, a division that must be exact."""
    c = [1]
    for n, e in factors:
        for _ in range(max(e, 0)):
            c = times_one_minus(c, n)
    for n, e in factors:
        for _ in range(max(-e, 0)):
            q = c[:len(c) - n]
            for i in range(n, len(q)):
                q[i] += q[i - n]
            assert times_one_minus(q, n) == c, (factors, n)
            c = q
    return c


def diagonal_point(specs):
    """t where the diagonal meets the Newton polygon with faces (a, b, r)
    in slope order: the face from (x, y) to (x + r b, y - r a) with
    x <= y at its start and past it at its end meets it at x + (y - x)
    b / (a + b)."""
    x, y = 0, sum(r * a for a, _, r in specs)
    for a, b, r in specs:
        if x + r * b >= y - r * a:
            return x + Fraction((y - x) * b, a + b)
        x, y = x + r * b, y - r * a
    raise AssertionError(f"the diagonal misses the polygon of {specs}")


def leaf_rewrites(tree, new):
    """Every tree made from ``tree`` by putting ``new`` in place of one leaf."""
    out = []
    for i, f in enumerate(tree.faces):
        for l, cls in enumerate(f.classes):
            for sub in [new] if isinstance(cls, Leaf) else leaf_rewrites(cls, new):
                face = Face(f.a, f.b, f.classes[:l] + (sub,) + f.classes[l + 1:])
                out.append(Bamboo(tree.faces[:i] + (face,) + tree.faces[i + 1:]))
    return out


def test_criterion_01_cusp_golden():
    annotated = annotate(CUSP)
    z = zeta_general(annotated)
    assert (z.scale, z.num, z.den) == (Fraction(1), (5, 4), (((1, 1), 1), ((6, 5), 1)))
    assert poles(z) == [(Fraction(-1), 1), (Fraction(-5, 6), 1)]
    zm = monodromy_zeta(annotated)
    assert zm.exponents() == {6: 1, 2: -1, 3: -1}
    delta = characteristic_poly(zm)
    assert delta.coeffs == (1, -1, 1) and delta.mu == 2
    assert all(c.witness.ok for c in conjecture_report(z, delta.cyclo))
    print("criterion  1 PASS  cusp golden values")


def test_criterion_02_node_golden():
    report, code = analyze_poly("x^2-y^2")
    assert code == 0
    assert report["zeta"] == {"scale": "1", "numerator": [1],
                              "denominator": [{"N": 1, "nu": 1, "exp": 2}]}
    assert report["poles"] == [{"value": "-1", "order": 2,
                                "sources": [{"bamboo": [], "face": 0}, "universal"]}]
    assert report["delta"]["coeffs"] == [1, -1]
    assert report["conjecture"]["verdict"] == "holds"
    print("criterion  2 PASS  node golden values")


def test_criterion_03_closed_form_equals_oracle(tree_corpus, unit_tree_corpus):
    for inst in tree_corpus + unit_tree_corpus:
        assert inst.zeta == inst.zeta_oracle
        assert inst.zmon == inst.zmon_oracle
    print(f"criterion  3 PASS  closed form = oracle on "
          f"{len(tree_corpus) + len(unit_tree_corpus)} trees")


def test_criterion_04_subdivision_independence(tree_corpus):
    for idx, inst in enumerate(tree_corpus[:RAY_INSTANCES]):
        refined = build_graph(inst.annotated, extra_rays=3, seed=1000 + idx)
        assert definitional_zeta(refined) == inst.zeta_oracle
        assert acampo_from_graph(refined) == inst.zmon_oracle
        assert chain_determinant_check(refined) is None
        lines = [n for n in refined.nodes if n.kind == "exceptional"]
        assert sum(n.chi for n in lines) + len(refined.edges) == len(lines) + 1
    print(f"criterion  4 PASS  ray insertion invariance on {RAY_INSTANCES} instances")


def test_criterion_05_pole_containment(tree_corpus):
    for inst in tree_corpus:
        allowed = {c.value for c in candidate_poles(inst.annotated)}
        allowed.add(Fraction(-1))
        assert {p.value for p in poles(inst.zeta)} <= allowed
        # s * Z(s) stays bounded at infinity
        assert len(inst.zeta.num) - 1 < sum(e for _, e in inst.zeta.den)
    print(f"criterion  5 PASS  poles within candidates on {len(tree_corpus)} trees")


def test_criterion_06_nondegenerate_pole_realization(face_corpus):
    for inst in face_corpus:
        candidates = {Fraction(-f.nu, f.mult) for f in annotate_faces(inst.specs).root.faces}
        realized = {p.value for p in poles(inst.zeta)}
        assert candidates <= realized, inst.specs
    print(f"criterion  6 PASS  every candidate realized on {len(face_corpus)} face lists")


def test_criterion_07_order_two_characterization(face_corpus):
    order_two_seen = 0
    for inst in face_corpus:
        specs = inst.specs
        weights = [(f.mult, f.nu) for f in annotate_faces(specs).root.faces]
        flagged = set()
        for i in range(len(specs)):
            # independent chain determinant: suffix of r*a minus prefix of r*b
            d = sum(r * a for a, b, r in specs[i + 1:]) - \
                sum(r * b for a, b, r in specs[:i + 1])
            if d == 0:
                flagged.add(Fraction(-weights[i][1], weights[i][0]))
        doubled = {p.value for p in poles(inst.zeta)
                   if p.order == 2 and p.value != Fraction(-1)}
        assert doubled == flagged, specs
        order_two_seen += len(doubled)
    constructed = zeta_nondegenerate(ORDER_TWO_SPECS)
    assert (Fraction(-1, 2), 2) in poles(constructed)
    assert order_two_seen >= 1
    print(f"criterion  7 PASS  double poles exactly at vanishing chain "
          f"determinants ({order_two_seen} seen)")


def test_criterion_08_monodromy_conjecture(tree_corpus, face_corpus):
    for inst in tree_corpus:
        delta = characteristic_poly(inst.zmon, max_degree=0)
        assert all(c.witness.ok for c in conjecture_report(inst.zeta, delta.cyclo))
    for inst in face_corpus:
        delta = characteristic_poly(inst.zmon, max_degree=0)
        assert all(c.witness.ok for c in conjecture_report(inst.zeta, delta.cyclo))
    total = len(tree_corpus) + len(face_corpus)
    print(f"criterion  8 PASS  conjecture holds on all {total} instances")


def test_criterion_09_structural_checks(tree_corpus, face_corpus):
    expanded = wide = strided = full = 0
    for inst in tree_corpus + face_corpus:
        zmon = inst.zmon
        delta = characteristic_poly(zmon, max_degree=EXPANSION_CAP)
        assert delta.mu == sum(n * e for n, e in delta.cyclo.factors) >= 0
        for n, _ in delta.cyclo.factors:
            d = 1
            while d * d <= n:
                if n % d == 0:
                    assert root_multiplicity(delta.cyclo, d) >= 0
                    assert root_multiplicity(delta.cyclo, n // d) >= 0
                d += 1
        if delta.coeffs is not None:
            expanded += 1
            c, mu = delta.coeffs, delta.mu
            assert len(c) == mu + 1
            if mu <= FULL_EXPANSION_CAP:
                assert list(c) == full_expansion(delta.cyclo.factors), delta.cyclo
                full += 1
            # the coefficients against the product itself, in exact arithmetic
            for x in (2, -2, 3):
                product = Fraction(1)
                for n, e in delta.cyclo.factors:
                    product *= Fraction(1 - x ** n) ** e
                value = 0
                for ci in reversed(c):
                    value = value * x + ci
                assert value == product, (delta.cyclo, x)
            wide += any(e < 0 and n > mu for n, e in delta.cyclo.factors)
            # exponents n > 1 with a common factor: expanded at a stride > 1
            strided += gcd(*(n for n, _ in delta.cyclo.factors if n > 1)) > 1
        assert chain_determinant_check(inst.graph) is None
    assert expanded >= 100 and wide >= 1 and strided >= 1 and full >= 100
    print(f"criterion  9 PASS  delta polynomial equal to the product ({expanded} "
          f"expansions, {strided} strided, {full} against a full expansion), "
          f"chain determinants hold")


def test_criterion_10_divisibility(tree_corpus, face_corpus):
    for inst in tree_corpus:
        root = inst.annotated.root
        assert root.faces[0].mult % root.faces[0].b == 0
        for bam in inst.annotated.bamboos:
            last = bam.faces[-1]
            assert last.mult % last.a == 0
    for inst in face_corpus:
        weights = [(f.mult, f.nu) for f in annotate_faces(inst.specs).root.faces]
        a1, b1, _ = inst.specs[0]
        ak, bk, _ = inst.specs[-1]
        assert weights[0][0] % b1 == 0
        assert weights[-1][0] % ak == 0
    print("criterion 10 PASS  multiplicity divisibility at bamboo ends")


def test_criterion_11_zeta_at_zero(tree_corpus, face_corpus, unit_face_lists):
    for inst in tree_corpus + face_corpus:
        assert value_at_zero(inst.zeta) == 1
    for specs in unit_face_lists:
        assert value_at_zero(zeta_general(annotate_faces(specs))) == 1, specs
    total = len(tree_corpus) + len(face_corpus) + len(unit_face_lists)
    print(f"criterion 11 PASS  Z(0) = 1 on all {total} instances")


def test_criterion_12_kouchnirenko_milnor_number(face_corpus, unit_face_lists):
    lists = [inst.specs for inst in face_corpus] + unit_face_lists
    assert sum(any(1 in (a, b) for a, b, _ in specs) for specs in lists) >= 500
    for specs in lists:
        delta = characteristic_poly(monodromy_zeta(annotate_faces(specs)), max_degree=0)
        assert delta.mu == kouchnirenko(specs), specs
    print(f"criterion 12 PASS  deg delta = Kouchnirenko's number on {len(lists)} face lists")


def test_criterion_13_poles_from_rupture_divisors(tree_corpus, face_corpus, unit_face_lists,
                                                  unit_tree_corpus):
    order_two = 0
    for inst in tree_corpus + face_corpus + unit_tree_corpus:
        orders = {p.value: p.order for p in poles(inst.zeta)}
        assert orders == rupture_poles(inst.graph)
        order_two += list(orders.values()).count(2)
    for specs in unit_face_lists + [CANCELLED_SPECS]:
        tree = annotate_faces(specs)
        orders = {p.value: p.order for p in poles(zeta_general(tree))}
        assert orders == rupture_poles(build_graph(tree)), specs
        order_two += list(orders.values()).count(2)
    assert order_two > 0
    total = len(tree_corpus) + len(face_corpus) + len(unit_face_lists) + 1 + len(unit_tree_corpus)
    print(f"criterion 13 PASS  poles and their orders from the rupture divisors on "
          f"{total} instances, {order_two} of order two")


def test_criterion_14_milnor_number_and_n_from_puiseux_contacts(tree_corpus, unit_tree_corpus):
    deep_units = 0
    for inst in tree_corpus + unit_tree_corpus:
        mu, mults, _ = contact_oracle(inst.spec)
        assert mu == characteristic_poly(inst.zmon, max_degree=0).mu, inst.spec
        assert mults == {(bam.path, i): f.mult for bam in inst.annotated.bamboos
                           for i, f in enumerate(bam.faces)}, inst.spec
        deep_units += any(1 in (f.a, f.b) for bam in inst.annotated.bamboos[1:]
                          for f in bam.faces)
    assert deep_units >= 50
    total = len(tree_corpus) + len(unit_tree_corpus)
    print(f"criterion 14 PASS  mu and every N from the Puiseux contacts on {total} "
          f"trees, {deep_units} with a 1 below the root")


def test_criterion_15_monodromy_zeta_from_the_splice_diagram(tree_corpus, unit_tree_corpus):
    """The monodromy zeta function from the Puiseux contacts alone:
    prod_faces (1 - t^N)^#classes * prod_bamboos (1 - t^N_top)^-1 *
    (1 - t^beta_0)^-1, beta_0 the number of roots.  On one branch it is
    Zariski's formula, checked on seeded chains of 1 to 4 levels."""
    for inst in tree_corpus + unit_tree_corpus:
        _, mults, tops = contact_oracle(inst.spec)
        classes = {(bam.path, i): len(f.classes) for bam in inst.annotated.bamboos
                   for i, f in enumerate(bam.faces)}
        zeta = Counter()
        for key, n in mults.items():
            zeta[n] += classes[key]
        for n in tops.values():
            zeta[n] -= 1
        zeta[root_count(inst.spec)] -= 1
        assert {n: e for n, e in zeta.items() if e} == inst.zmon.exponents(), inst.spec
    want = {4: -1, 6: -1, 12: 1, 13: -1, 26: 1}                  # (4; 6, 7)
    assert zariski_zeta([(2, 3), (2, 1)]) == want
    rng = random.Random(BRANCH_SEED)
    for least in (2, 1):                    # a from 1 gives levels with a = 1
        for _ in range(BRANCH_COUNT):
            levels, depth = [], rng.randint(1, 4)
            while len(levels) < depth:
                a, b = rng.randint(least, 9), rng.randint(1, 9)
                if gcd(a, b) == 1:
                    levels.append((a, b))
            branch = LEAF
            for a, b in reversed(levels):
                branch = Bamboo((Face(a, b, (branch,)),))
            assert zariski_zeta(levels) == monodromy_zeta(annotate(branch)).exponents(), levels
    total = len(tree_corpus) + len(unit_tree_corpus)
    print(f"criterion 15 PASS  monodromy zeta from the Puiseux contacts on {total} trees, "
          f"Zariski's formula on 2 x {BRANCH_COUNT} branches")


def test_criterion_17_largest_pole_is_minus_the_log_canonical_threshold(face_corpus,
                                                                       unit_face_lists):
    """For a plane curve the largest pole of Z_top is -lct.  For a
    nondegenerate f, lct = min(1, 1/t), (t, t) where the diagonal meets
    the Newton polygon (Varchenko; Howald); for one branch with
    multiplicity n and first characteristic exponent beta_1, lct = 1/n +
    1/beta_1 (Igusa).  A root face (a, b), both >= 2, over a class of
    multiplicity A has n = aA and beta_1 = bA; A is the product of the a
    of the levels below, on seeded chains of 1 to 4 levels."""
    lists = [inst.specs for inst in face_corpus] + unit_face_lists
    below_one = 0
    for specs in lists:
        lct = min(Fraction(1), 1 / diagonal_point(specs))
        assert max(p.value for p in poles(zeta_general(annotate_faces(specs)))) == -lct, specs
        below_one += lct < 1
    rng = random.Random(LCT_BRANCH_SEED)
    for _ in range(LCT_BRANCH_COUNT):
        levels, depth = [], rng.randint(1, 4)
        while len(levels) < depth:
            a, b = rng.randint(2 if not levels else 1, 9), rng.randint(2 if not levels else 1, 9)
            if gcd(a, b) == 1:
                levels.append((a, b))
        branch = LEAF
        for a, b in reversed(levels):
            branch = Bamboo((Face(a, b, (branch,)),))
        (a, b), A = levels[0], prod(a for a, _ in levels[1:])
        lct = Fraction(1, a * A) + Fraction(1, b * A)
        assert max(p.value for p in poles(zeta_general(annotate(branch)))) == -lct, levels
    assert 100 <= below_one < len(lists)
    print(f"criterion 17 PASS  largest pole = -lct from the Newton polygon on {len(lists)} "
          f"face lists ({below_one} with lct < 1) and from the first Puiseux pair on "
          f"{LCT_BRANCH_COUNT} branches")


def test_non_minimal_encodings_keep_the_invariants(tree_corpus, unit_tree_corpus):
    """A leaf may become the sub-bamboo [(1, q): leaf], and a one-face root
    (a, b) with b > a >= 2 the face (1, b // a) over [(a, b % a)] with the
    same classes: both describe the same germ, so zeta, Delta and mu stay."""
    rng = random.Random(REWRITE_SEED)
    rewrites = roots = 0
    for inst in tree_corpus + unit_tree_corpus:
        specs = []
        if rng.randrange(3) == 0:
            new = Bamboo((Face(1, rng.randint(1, 9), (LEAF,)),))
            specs.append(rng.choice(leaf_rewrites(inst.spec, new)))
        root, *rest = inst.spec.faces
        if not rest and root.b > root.a >= 2:
            sub = Bamboo((Face(root.a, root.b % root.a, root.classes),))
            specs.append(Bamboo((Face(1, root.b // root.a, (sub,)),)))
            roots += 1
        rewrites += len(specs)
        delta = characteristic_poly(inst.zmon, max_degree=0)
        for spec in specs:
            annotated = annotate(spec)
            assert zeta_general(annotated) == inst.zeta, spec
            assert characteristic_poly(monodromy_zeta(annotated), max_degree=0) == delta, spec
    assert roots >= 50 and rewrites - roots >= 100
    print(f"rewrites  PASS  zeta, delta and mu kept by {rewrites - roots} leaf and "
          f"{roots} root rewrites")
