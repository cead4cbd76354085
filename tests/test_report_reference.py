"""The linear report assembly against the code it replaced, kept in
``reference_report.py``: ``zeta._canonical``, ``zeta.poles`` and
``cli._pole_entries`` give what the reference gives, on the acceptance
corpora and on the inputs where they could part: coinciding candidates,
the universal -1 meeting a face candidate, double poles, zero, and
printed forms with non-primitive or tied factors."""

import random
from fractions import Fraction

import pytest

import reference_report
from face_specs import random_unit_tree
from topzeta.cli import _pole_entries, random_tree
from topzeta.equitree import Bamboo, Face, LEAF, annotate, annotate_faces
from topzeta.monodromy import characteristic_poly, conjecture_report, monodromy_zeta
from topzeta.zeta import (RationalFunction, _canonical, candidate_poles, poles, rf_sum,
                          zeta_general)


def assert_report_parts_match(tree):
    """Printed form, poles and pole entries of ``tree`` as the reference
    makes them."""
    z = zeta_general(tree)
    assert _canonical(z.parts, z.den) == reference_report.canonical(z.parts, z.den)
    assert poles(z) == reference_report.poles(z)
    checks = conjecture_report(z, characteristic_poly(monodromy_zeta(tree), max_degree=0).cyclo)
    cands = candidate_poles(tree)
    assert _pole_entries(checks, cands) == reference_report.pole_entries(checks, cands)


def test_the_acceptance_corpora_match_the_reference():
    # the 500 seed-7 trees of the acceptance suite, and its 200 trees
    # with unit entries, whose candidates may cancel
    rng = random.Random(7)
    for _ in range(500):
        assert_report_parts_match(annotate(random_tree(rng)))
    rng = random.Random(13)
    for _ in range(200):
        assert_report_parts_match(annotate(random_unit_tree(rng)))


@pytest.mark.parametrize("tree, want", [
    # both faces give the double pole -1/2, each a source of it
    (annotate_faces([(3, 2, 1), (2, 3, 1)]),
     [("-1", ["universal"]), ("-1/2", [{"bamboo": [], "face": 0}, {"bamboo": [], "face": 1}])]),
    # the node's one face gives -1, the universal candidate's value
    (annotate_faces([(1, 1, 2)]), [("-1", [{"bamboo": [], "face": 0}, "universal"])]),
    # the same below a sub-bamboo, whose own face gives -3/4
    (annotate(Bamboo((Face(1, 1, (Bamboo((Face(1, 1, (LEAF, LEAF)),)),)),))),
     [("-1", [{"bamboo": [], "face": 0}, "universal"]),
      ("-3/4", [{"bamboo": [[0, 0]], "face": 0}])]),
])
def test_coinciding_candidates_are_sources_in_candidate_order(tree, want):
    assert_report_parts_match(tree)
    z = zeta_general(tree)
    entries = _pole_entries(poles(z), candidate_poles(tree))
    assert [(e["value"], e["sources"]) for e in entries] == want


def test_a_double_pole_and_zero_match_the_reference():
    double = rf_sum([(1, [(1, 1), (2, 2)]), (3, [(6, 5), (1, 1)]), (1, [(6, 5), (6, 5)])])
    assert [(f, k) for (f, k), _ in double.parts[0]] == [
        ((1, 1), 1), ((1, 1), 2), ((6, 5), 1), ((6, 5), 2)]
    zero = rf_sum([(1, [(1, 1), (6, 5)]), (-4, [(2, 2), (12, 10)])])
    for z in (double, zero, rf_sum([])):
        assert _canonical(z.parts, z.den) == reference_report.canonical(z.parts, z.den)
        assert poles(z) == reference_report.poles(z)
    assert _canonical(zero.parts, zero.den) == (Fraction(0), ())


@pytest.mark.parametrize("den", [
    # non-primitive factors, and factors of one value: equal keys keep
    # their order in den
    (((2, 2), 1), ((1, 1), 2), ((6, 4), 1), ((3, 2), 1)),
    (((3, 2), 2), ((6, 4), 1), ((1, 1), 1), ((2, 2), 1)),
    # negative N, and a value past every other one
    (((-3, 1), 1), ((5, 7), 1), ((-4, -2), 1), ((1, 0), 2)),
    (),
])
def test_printed_forms_with_non_primitive_or_tied_factors(den):
    z = RationalFunction(Fraction(3, 2), (1, 2), den)
    ps = poles(z)
    assert ps == reference_report.poles(z)
    cands = candidate_poles(annotate_faces([(3, 2, 1), (2, 3, 1)]))
    assert _pole_entries(ps, cands) == reference_report.pole_entries(ps, cands)


def test_the_printed_numerator_of_a_deep_chain_matches_the_reference():
    # a (2, 3) chain 30 deep with a leaf beside each sub-bamboo: numerator
    # coefficients of hundreds of digits
    node = LEAF
    for _ in range(30):
        node = Bamboo((Face(2, 3, (node,) if node is LEAF else (LEAF, node)),))
    assert_report_parts_match(annotate(node))
