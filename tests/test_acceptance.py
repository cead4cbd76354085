"""Acceptance suite: one test per criterion, exact values throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion.  The tree corpus is 500 seeded random trees (depth <= 3,
up to 3 faces per bamboo, entries <= 9) plus the golden instances; the
face corpus is 200 seeded random nondegenerate face lists with all
entries at least two, plus the constructed double-pole instance.  The
checks that need no resolution graph (Z(0) = 1, Kouchnirenko's Milnor
number) also run on 2000 seeded face lists with entries 1..9.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import pytest

from topzeta.cli import FuzzConfig, analyze_poly, random_face_specs, random_tree
from topzeta.equitree import Bamboo, Face, LEAF, annotate, annotate_faces
from topzeta.monodromy import (acampo_from_graph, characteristic_poly,
                               conjecture_report, monodromy_zeta,
                               root_multiplicity, verify_conjecture)
from topzeta.resolution import (build_graph, build_graph_nondegenerate,
                                chain_determinant_check, definitional_zeta,
                                euler_characteristic_total)
from topzeta.zeta import (candidate_poles, poles, rf, zeta_general,
                          zeta_nondegenerate)

TREE_SEED = 7
TREE_COUNT = 500
FACE_SEED = 11
FACE_COUNT = 200
UNIT_FACE_SEED = 5
UNIT_FACE_COUNT = 2000
RAY_INSTANCES = 100
EXPANSION_CAP = 2500

CUSP = Bamboo((Face(2, 3, (LEAF,)),))
TWO_PAIR = Bamboo((Face(2, 3, (Bamboo((Face(2, 7, (LEAF,)),)),)),))
ORDER_TWO_SPECS = [(3, 2, 1), (2, 3, 1)]


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


@pytest.fixture(scope="module")
def tree_corpus():
    rng = random.Random(TREE_SEED)
    cfg = FuzzConfig(count=TREE_COUNT, seed=TREE_SEED)
    specs = [random_tree(rng, cfg) for _ in range(TREE_COUNT)]
    specs += [CUSP, TWO_PAIR]
    out = []
    for spec in specs:
        annotated = annotate(spec)
        graph = build_graph(annotated)
        out.append(TreeInstance(
            spec=spec,
            annotated=annotated,
            zeta=zeta_general(annotated),
            graph=graph,
            zeta_oracle=definitional_zeta(graph),
            zmon=monodromy_zeta(annotated),
            zmon_oracle=acampo_from_graph(graph),
        ))
    return out


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
    out = []
    while len(out) < UNIT_FACE_COUNT:
        pairs = set()
        for _ in range(rng.randint(1, 3)):
            a, b = rng.randint(1, 9), rng.randint(1, 9)
            if gcd(a, b) == 1:
                pairs.add((a, b))
        if pairs:
            out.append([(a, b, rng.randint(1, 3))
                        for a, b in sorted(pairs, key=lambda p: Fraction(p[1], p[0]))])
    return out


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


def test_criterion_01_cusp_golden():
    annotated = annotate(CUSP)
    z = zeta_general(annotated)
    assert z == rf(1, (5, 4), [(1, 1), (6, 5)])
    assert poles(z) == [(Fraction(-1), 1), (Fraction(-5, 6), 1)]
    zm = monodromy_zeta(annotated)
    assert zm.exponents() == {6: 1, 2: -1, 3: -1}
    delta = characteristic_poly(zm)
    assert delta.coeffs == (1, -1, 1) and delta.mu == 2
    assert verify_conjecture(annotated, zeta=z).verdict == "holds"
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


def test_criterion_03_closed_form_equals_oracle(tree_corpus):
    for inst in tree_corpus:
        assert inst.zeta == inst.zeta_oracle
        assert inst.zmon == inst.zmon_oracle
    print(f"criterion  3 PASS  closed form = oracle on {len(tree_corpus)} trees")


def test_criterion_04_subdivision_independence(tree_corpus):
    for idx, inst in enumerate(tree_corpus[:RAY_INSTANCES]):
        refined = build_graph(inst.annotated, extra_rays=3, seed=1000 + idx)
        assert definitional_zeta(refined) == inst.zeta_oracle
        assert acampo_from_graph(refined) == inst.zmon_oracle
        assert chain_determinant_check(refined) is None
        assert euler_characteristic_total(refined) == \
            sum(1 for n in refined.nodes if n.kind == "exceptional") + 1
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
        assert conjecture_report(inst.zeta, delta.cyclo).verdict == "holds"
    for inst in face_corpus:
        delta = characteristic_poly(inst.zmon, max_degree=0)
        assert conjecture_report(inst.zeta, delta.cyclo).verdict == "holds"
    total = len(tree_corpus) + len(face_corpus)
    print(f"criterion  8 PASS  conjecture holds on all {total} instances")


def test_criterion_09_structural_checks(tree_corpus, face_corpus):
    expanded = wide = 0
    for inst in tree_corpus + face_corpus:
        zmon = inst.zmon
        delta = characteristic_poly(zmon, max_degree=EXPANSION_CAP)
        assert delta.mu == sum(n * e for n, e in delta.cyclo.factors) >= 0
        for n, _ in delta.cyclo.factors:
            d = 1
            while d * d <= n:
                if n % d == 0:
                    assert root_multiplicity(delta, d) >= 0
                    assert root_multiplicity(delta, n // d) >= 0
                d += 1
        if delta.coeffs is not None:
            expanded += 1
            c, mu = delta.coeffs, delta.mu
            assert len(c) == mu + 1
            sign = 1 if c[0] == c[-1] else -1
            assert all(c[j] == sign * c[mu - j] for j in range(mu + 1))
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
        assert chain_determinant_check(inst.graph) is None
    assert expanded >= 100 and wide >= 1
    print(f"criterion  9 PASS  delta polynomial, palindromic and equal to the "
          f"product ({expanded} expansions), chain determinants hold")


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
