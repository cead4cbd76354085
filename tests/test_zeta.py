from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topzeta.equitree import Bamboo, Face, LEAF, annotate, annotate_faces
from topzeta.zeta import (ZERO, candidate_poles, is_order_two_candidate,
                          poles, rf, zeta_general, zeta_nondegenerate)


def annotated(*faces):
    return annotate(Bamboo(tuple(faces)))


CUSP = annotated(Face(2, 3, (LEAF,)))
TWO_PAIR = annotated(Face(2, 3, (Bamboo((Face(2, 7, (LEAF,)),)),)))


# --- rational function arithmetic -------------------------------------------

def test_rf_add_same_denominator():
    one_over = rf(1, (1,), [(1, 1)])
    assert one_over + one_over == rf(2, (1,), [(1, 1)])


def test_rf_partial_fraction_identity():
    got = rf(5, (1,), [(6, 5)]) - rf(1, (0, 1), [(1, 1), (6, 5)])
    assert got == rf(1, (5, 4), [(1, 1), (6, 5)])


def test_rf_cancellation():
    assert rf(1, (1, 1), [(1, 1)]) == rf(1)          # (s+1)/(s+1) = 1
    assert rf(1, (5, 6), [(6, 5), (6, 5), (1, 1)]) == rf(1, (1,), [(6, 5), (1, 1)])


def test_rf_normalizes_factor_content():
    # (10 s + 5) = 5 (2 s + 1); the content moves to the scale
    z = rf(1, (1,), [(10, 5)])
    assert z.scale == Fraction(1, 5)
    assert z.den == (((2, 1), 1),)


def test_rf_zero_and_scalars():
    assert rf(0) == ZERO
    assert rf(3) + rf(-3) == ZERO
    assert ZERO + rf(7) == rf(7)
    assert rf(2, (1, 1)) * rf(3) == rf(6, (1, 1))


def test_rf_rejects_zero_factor():
    with pytest.raises(ValueError):
        rf(1, (1,), [(0, 0)])


def small_rfs():
    factor = st.tuples(st.integers(0, 4), st.integers(1, 4))
    return st.builds(
        lambda c, num, den: rf(c, num or (1,), den),
        st.integers(-4, 4),
        st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(tuple),
        st.lists(factor, max_size=2),
    )


@settings(max_examples=150, deadline=None)
@given(small_rfs(), small_rfs(), small_rfs())
def test_rf_ring_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z


# --- closed forms ------------------------------------------------------------

def test_zeta_nondegenerate_cusp():
    assert zeta_nondegenerate([(2, 3, 1)]) == rf(1, (5, 4), [(1, 1), (6, 5)])


def test_zeta_nondegenerate_node():
    assert zeta_nondegenerate([(1, 1, 2)]) == rf(1, (1,), [((1, 1), 2)])


def test_zeta_nondegenerate_2_5():
    assert zeta_nondegenerate([(2, 5, 1)]) == rf(1, (7, 6), [(1, 1), (10, 7)])


def test_zeta_nondegenerate_rejects_bad_lists():
    with pytest.raises(ValueError):
        zeta_nondegenerate([(2, 4, 1)])
    with pytest.raises(ValueError):
        zeta_nondegenerate([(2, 3, 0)])
    with pytest.raises(ValueError):
        zeta_nondegenerate([(2, 3, 1), (3, 2, 1)])


def test_zeta_general_cusp_matches_nondegenerate():
    assert zeta_general(CUSP) == zeta_nondegenerate([(2, 3, 1)])


def test_zeta_general_two_pair():
    z = zeta_general(TWO_PAIR)
    assert z == rf(1, (85, 256, 164), [(1, 1), (12, 5), (38, 17)])


def test_zeta_general_two_leaves():
    z = zeta_general(annotated(Face(2, 3, (LEAF, LEAF))))
    assert z == rf(1, (5, 3), [(1, 1), (12, 5)])
    assert z == zeta_nondegenerate([(2, 3, 2)])


def test_zeta_general_depth_one_agrees_with_nondegenerate():
    for faces in ([(2, 3, 1), (3, 5, 2)], [(5, 2, 2), (2, 3, 1), (3, 7, 3)]):
        tree = annotated(*[Face(a, b, (LEAF,) * r) for a, b, r in faces])
        assert zeta_general(tree) == zeta_nondegenerate(faces)


def test_zeta_degree_drop():
    # s * Z(s) stays bounded: numerator degree < total denominator degree
    for tree in (CUSP, TWO_PAIR):
        z = zeta_general(tree)
        assert len(z.num) - 1 < sum(e for _, e in z.den)


# --- poles and candidates ----------------------------------------------------

def test_candidate_poles_cusp():
    cands = candidate_poles(CUSP)
    assert [(c.value, c.path, c.face) for c in cands] == [
        (Fraction(-5, 6), (), 0), (Fraction(-1), None, None)]


def test_candidate_poles_two_pair():
    values = [c.value for c in candidate_poles(TWO_PAIR)]
    assert values == [Fraction(-5, 12), Fraction(-17, 38), Fraction(-1)]


def test_candidate_poles_coincide_with_provenance():
    # both faces of this pair give -1/2, kept as separate candidates
    tree = annotated(Face(3, 2, (LEAF,)), Face(2, 3, (LEAF,)))
    cands = candidate_poles(tree)
    assert [c.value for c in cands[:2]] == [Fraction(-1, 2), Fraction(-1, 2)]
    assert [(c.path, c.face) for c in cands[:2]] == [((), 0), ((), 1)]


def test_poles_examples():
    assert poles(rf(1, (5, 4), [(1, 1), (6, 5)])) == [
        (Fraction(-1), 1), (Fraction(-5, 6), 1)]
    assert poles(rf(1, (1,), [((1, 1), 2)])) == [(Fraction(-1), 2)]
    assert poles(rf(1, (5, 6), [((6, 5), 2), (1, 1)])) == [
        (Fraction(-1), 1), (Fraction(-5, 6), 1)]


def test_order_two_candidate_flags():
    assert not is_order_two_candidate(CUSP, (), 0)          # chain det -3
    pair = annotated(Face(3, 2, (LEAF,)), Face(2, 3, (LEAF,)))
    assert is_order_two_candidate(pair, (), 0)              # chain det 0
    assert not is_order_two_candidate(annotated(Face(2, 5, (LEAF,))), (), 0)


def test_order_two_pole_realized():
    z = zeta_nondegenerate([(3, 2, 1), (2, 3, 1)])
    assert (Fraction(-1, 2), 2) in poles(z)


def test_candidate_cancellation_on_unit_entries():
    # with b = 1 the last face's candidate can disappear from the zeta
    # function; this is why pole realization is only asserted for faces
    # with both entries at least two
    z = zeta_nondegenerate([(2, 3, 1), (1, 2, 1)])
    ws = [(f.mult, f.nu) for f in annotate_faces([(2, 3, 1), (1, 2, 1)]).root.faces]
    assert ws == [(9, 5), (5, 3)]
    assert Fraction(-3, 5) not in {p.value for p in poles(z)}
    assert z == rf(1, (5, 2), [(1, 1), (9, 5)])


def test_face_weights_cusp():
    assert [(f.mult, f.nu) for f in annotate_faces([(2, 3, 1)]).root.faces] == [(6, 5)]
