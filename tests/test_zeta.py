import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topzeta import poly
from topzeta.equitree import Bamboo, Face, LEAF, annotate, annotate_faces
from topzeta.zeta import (ZERO, Pole, RationalFunction, _divide, _linear_str, candidate_poles,
                          poles, poly_str, rf, rf_sum, zeta_general, zeta_nondegenerate)


def annotated(*faces):
    return annotate(Bamboo(tuple(faces)))


CUSP = annotated(Face(2, 3, (LEAF,)))
TWO_PAIR = annotated(Face(2, 3, (Bamboo((Face(2, 7, (LEAF,)),)),)))


# --- rational functions: sums in partial fractions ---------------------------

def term(z):
    """A canonical rational function as one term of ``rf_sum``."""
    return (z.scale, z.num, z.den)


def value(z, s):
    out = z.scale * sum(c * s ** i for i, c in enumerate(z.num))
    for (n, v), e in z.den:
        out /= (n * s + v) ** e
    return out


def factors(den):
    """``den`` of a term as ``((N, nu), exp)`` pairs."""
    return [item if isinstance(item[0], tuple) else (item, 1) for item in den]


def term_value(coef, num, den, s):
    out = Fraction(coef) * sum(c * s ** i for i, c in enumerate(num))
    for (n, v), e in factors(den):
        out /= (n * s + v) ** e
    return out


def test_rf_add_same_denominator():
    one_over = rf(1, (1,), [(1, 1)])
    assert rf_sum([term(one_over), term(one_over)]) == rf(2, (1,), [(1, 1)])


def test_rf_partial_fraction_identity():
    got = rf_sum([(5, (1,), [(6, 5)]), (-1, (0, 1), [(1, 1), (6, 5)])])
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
    assert rf_sum([(3, (1,), ()), (-3, (1,), ())]) == ZERO
    assert rf_sum([term(ZERO), term(rf(7))]) == rf(7)
    assert rf_sum([]) == ZERO and hash(rf_sum([])) == hash(ZERO)


def test_rf_rejects_zero_factor():
    with pytest.raises(ValueError):
        rf(1, (1,), [(0, 0)])


def test_pole_order_is_the_highest_surviving_power():
    # s / (s+1)^2 = 1/(s+1) - 1/(s+1)^2: the top residue at -1 cancels
    # against the second term, so -1 is a simple pole of the sum
    z = rf_sum([(1, (0, 1), [((1, 1), 2)]), (1, (1,), [((1, 1), 2)]),
                (2, (1,), [(1, 1), ((2, 1), 2)])])
    assert poles(z) == [(Fraction(-1), 1), (Fraction(-1, 2), 2)]
    assert z == rf(1, (3, 4, 4), [(1, 1), ((2, 1), 2)])


def small_terms():
    # Fraction coefficients, N of either sign or zero, factors with a
    # content (such as (6, 4)), explicit powers, and numerators of degree
    # up to 4: every way a term's denominator is multiplied up in the sum
    primitive = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(
        lambda f: f != (0, 0))
    linear = st.builds(lambda f, c: (f[0] * c, f[1] * c), primitive, st.integers(1, 3))
    factor = linear | st.tuples(linear, st.integers(0, 3))
    return st.tuples(
        st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=6),
        st.lists(st.integers(-3, 3), min_size=1, max_size=5).map(tuple),
        st.lists(factor, max_size=3),
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(small_terms(), max_size=6), st.randoms(use_true_random=False),
       st.integers(0, 6))
def test_rf_ring_laws(terms, rnd, cut):
    # the additive laws: the order and grouping of the terms do not
    # matter, and the sum has the exact value of the terms added one by one
    z = rf_sum(terms)
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    assert rf_sum(shuffled) == z
    assert rf_sum([term(rf_sum(terms[:cut])), term(rf_sum(terms[cut:]))]) == z
    roots = {Fraction(-v, n) for _, _, den in terms for (n, v), _ in factors(den) if n}
    for s in {Fraction(1, 7), Fraction(2, 3), Fraction(5, 2), Fraction(3)} - roots:
        assert value(z, s) == sum(term_value(*t, s) for t in terms)
    # canonical: primitive numerator with positive leading coefficient,
    # sorted primitive factors, none of them a root of the numerator
    if z.num:
        assert gcd(*z.num) == 1 and z.num[-1] > 0
    assert list(z.den) == sorted(z.den)
    for (n, v), e in z.den:
        assert n >= 1 and gcd(n, v) == 1 and e >= 1
        assert sum(c * Fraction(-v, n) ** i for i, c in enumerate(z.num)) != 0


def negated(terms):
    return [(-coef, num, den) for coef, num, den in terms]


@settings(max_examples=150, deadline=None)
@given(st.lists(small_terms(), max_size=6), st.lists(small_terms(), max_size=6))
def test_partial_fractions_and_printed_form_give_one_equality(a, b):
    # a sum holds partial fractions, a function built from (scale, num,
    # den) holds the printed form; both compare and hash alike
    za, zb = rf_sum(a), rf_sum(b)
    for other in (zb, rf_sum(b + a + negated(b))):
        assert (za == other) == (term(za) == term(other))
    assert rf_sum(a + negated(a)) == ZERO
    for z in (za, zb):
        printed = RationalFunction(z.scale, z.num, z.den)
        assert printed == z and hash(printed) == hash(z)
        assert poles(z) == sorted(Pole(Fraction(-v, n), e) for (n, v), e in printed.den)


# --- a stratum's term is split in one step -----------------------------------

def divided_term(coef, num, den):
    """``(p, res, D)`` of one term as the sum once computed it for every
    term: each primitive factor divided in through ``zeta._divide``."""
    coef = Fraction(coef)
    p, res, denom = [coef.numerator * c for c in num], {}, coef.denominator
    for (n, v), e in factors(den):
        g = gcd(n, v) if n > 0 else -gcd(n, v) if n else v
        denom *= g ** e
        for _ in range(e if n else 0):
            p, res, denom = _divide(p, res, denom, (n // g, v // g))
    return p, res, denom


def reference_parts(terms):
    """``parts`` of the sum of ``divided_term`` of each term, added as
    fractions and put over their least common denominator."""
    poly_part, residues = [], {}
    for t in terms:
        p, res, denom = divided_term(*t)
        poly_part = poly.add(poly_part, [Fraction(c, denom) for c in p])
        for key, c in res.items():
            residues[key] = residues.get(key, 0) + Fraction(c, denom)
    residues = sorted((key, c) for key, c in residues.items() if c)
    common = lcm(*(c.denominator for c in (*poly_part, *(c for _, c in residues))))
    return (tuple(int(c * common) for c in poly_part),
            tuple((key, int(c * common)) for key, c in residues), common)


def random_stratum_term(rng):
    """A constant over one linear factor or two: an integer or Fraction
    coefficient, factors with a content of 1-4, N of either sign or zero,
    now and then in the ``((N, nu), 1)`` form, and in one pair out of
    six the same primitive factor twice, with two contents."""
    def primitive():
        while True:
            f = rng.randint(-5, 5), rng.randint(-5, 5)
            if gcd(*f) == 1:
                return f

    def linear(f):
        c = rng.randint(1, 4)
        item = (f[0] * c, f[1] * c)
        return (item, 1) if rng.random() < 0.2 else item

    coef = rng.choice((rng.randint(-4, 4), Fraction(rng.randint(-4, 4), rng.randint(1, 6))))
    f = primitive()
    den = [linear(f)]
    if rng.random() < 0.75:
        den.append(linear(f if rng.random() < 1 / 6 else primitive()))
    return coef, (rng.randint(-3, 3),), den


def stratum_shapes(coef, num, den):
    """The forms a term of random_stratum_term takes, by name."""
    shapes = {"fraction"} if Fraction(coef).denominator > 1 else set()
    prim = []
    for (n, v), _ in factors(den):
        g = gcd(n, v)
        shapes |= {"content"} if g > 1 else set()
        shapes |= {"N = 0"} if n == 0 else {"N < 0"} if n < 0 else set()
        if n:
            prim.append((n // g, v // g) if n > 0 else (-n // g, -v // g))
    if len(prim) == 2:
        (n, v), (m, mu) = prim
        d = n * mu - m * v
        shapes.add("d < 0" if d < 0 else "d > 0" if d > 0 else "d = 0")
    return shapes


def test_stratum_terms_split_as_divided_one_factor_at_a_time():
    # the one-step split must give the parts of the division it replaces,
    # term by term and in sums, mixed with terms of higher numerators
    rng = random.Random(14)
    seen = dict.fromkeys(("fraction", "content", "N = 0", "N < 0",
                          "d < 0", "d > 0", "d = 0"), 0)
    for _ in range(1500):
        terms = [random_stratum_term(rng) for _ in range(rng.randint(1, 5))]
        for t in terms:
            assert rf_sum([t]).parts == reference_parts([t]), t
            for shape in stratum_shapes(*t):
                seen[shape] += 1
        if rng.random() < 0.2:
            coef, _, den = random_stratum_term(rng)
            terms.append((coef, (rng.randint(-3, 3), rng.randint(1, 3)), den))
        assert rf_sum(terms).parts == reference_parts(terms), terms
    assert min(seen.values()) > 100, seen


# --- text form of a polynomial ----------------------------------------------

def poly_str_per_term(coeffs, var):
    """The term-by-term printer that poly_str must reproduce byte for byte."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else f"{mag}*"
            body = f"{head}{var}" + (f"^{i}" if i > 1 else "")
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(terms) if terms else "0"


def test_poly_str_matches_the_per_term_printer():
    # zeros (leading and trailing too), +-1, negatives, and integers of
    # hundreds of digits, as in the zeta numerators of the golden chains
    rng = random.Random(17)
    small = (0, 0, 1, -1, 2, -3)
    for _ in range(3000):
        coeffs = [rng.choice(small) if rng.random() < 0.6
                  else rng.choice((-1, 1)) * rng.randrange(10 ** rng.randint(1, 400))
                  for _ in range(rng.randint(0, 6))]
        for var in ("s", "t"):
            assert poly_str(coeffs, var) == poly_str_per_term(coeffs, var), coeffs
            assert poly_str(tuple(coeffs), var) == poly_str_per_term(coeffs, var)


def test_denominator_factors_print_as_poly_str():
    assert [_linear_str(n, v) for n, v in ((1, 1), (6, 5), (1, -2), (3, 0))] == [
        "s + 1", "6*s + 5", "s - 2", "3*s"]
    for n in range(1, 41):
        for v in range(-40, 41):
            assert _linear_str(n, v) == poly_str((v, n), "s"), (n, v)


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
    assert CUSP.root.faces[0].chain_det == -3
    pair = annotated(Face(3, 2, (LEAF,)), Face(2, 3, (LEAF,)))
    assert pair.root.faces[0].chain_det == 0
    assert annotated(Face(2, 5, (LEAF,))).root.faces[0].chain_det != 0


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
