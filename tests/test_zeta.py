import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_poly_str
import reference_report
from topzeta.equitree import Bamboo, Face, LEAF, annotate, annotate_faces
from topzeta.monodromy import CycloProduct, candidate_powers, characteristic_poly
from topzeta.zeta import (TEXT_BLOCK, Pole, RationalFunction, _canonical, _unlimited_digits,
                          candidate_poles, poles, poly_str, rational_str, rf_sum,
                          zeta_general, zeta_nondegenerate)


def annotated(*faces):
    return annotate(Bamboo(tuple(faces)))


CUSP = annotated(Face(2, 3, (LEAF,)))
TWO_PAIR = annotated(Face(2, 3, (Bamboo((Face(2, 7, (LEAF,)),)),)))


# --- rational functions: sums of stratum terms in partial fractions -----------

def printed(z):
    return z.scale, z.num, z.den


def stratum_terms(z):
    """A sum as stratum terms again: a residue of order k <= 2 is the term
    of its factor taken k times."""
    residues, denom = z.parts
    return [(Fraction(c, denom), (f,) * k) for (f, k), c in residues]


def value(z, s):
    out = z.scale * sum(c * s ** i for i, c in enumerate(z.num))
    for (n, v), e in z.den:
        out /= (n * s + v) ** e
    return out


def term_value(coef, den, s):
    out = Fraction(coef)
    for n, v in den:
        out /= n * s + v
    return out


def test_rf_add_same_denominator():
    assert str(rf_sum([(1, [(1, 1)]), (1, [(1, 1)])])) == "2 / (s + 1)"


def test_rf_partial_fraction_identity():
    # 1/((s+1)(6s+5)) splits in one step with d = 1*5 - 6*1 = -1
    split = rf_sum([(1, [(1, 1), (6, 5)])])
    assert split.parts == (((((1, 1), 1), -1), (((6, 5), 1), 6)), 1)
    assert str(split) == "1 / ((s + 1) * (6*s + 5))"
    got = rf_sum([(1, [(1, 1)]), (-1, [(6, 5)])])
    assert printed(got) == (Fraction(1), (4, 5), (((1, 1), 1), ((6, 5), 1)))


def test_rf_normalizes_factor_content():
    # (10 s + 5) = 5 (2 s + 1); the content moves to the scale
    z = rf_sum([(1, [(10, 5)])])
    assert z.scale == Fraction(1, 5)
    assert z.den == (((2, 1), 1),)


def test_rf_zero_and_scalars():
    zero = rf_sum([])
    assert printed(zero) == (Fraction(0), (), ()) and str(zero) == "0"
    assert rf_sum([(0, [(1, 1)])]) == zero
    assert rf_sum([(3, [(1, 1)]), (-3, [(1, 1)])]) == zero
    # a factor with N = 0 is a scalar: 3 / (2 (s + 1)) - 3 / (2 s + 2)
    scalar = rf_sum([(3, [(0, 2), (1, 1)]), (-3, [(2, 2)])])
    assert scalar == zero and hash(scalar) == hash(zero)


def test_rf_rejects_zero_factor():
    with pytest.raises(ValueError):
        rf_sum([(1, [(0, 0)])])
    with pytest.raises(ValueError):
        rf_sum([(1, [(1, 1), (0, 0)])])


def test_rf_sum_takes_stratum_terms_only():
    # a term is a constant over one linear factor or two, one with N != 0
    for den in ([], [(0, 1)], [(0, 2), (0, -3)], [(1, 1), (2, 1), (3, 1)]):
        with pytest.raises(ValueError):
            rf_sum([(1, den)])


# Terms rf_sum refuses, each with its message and the valid terms that
# split its factors, the (0, 0) factor aside: a factor's split is kept for
# the rest of the call, so each bad term is also summed after its factors
# were split once, and after other factors were.
BAD_TERMS = {
    "zero-factor": ((1, [(3, 2), (0, 0)]), "(0, 0) is not a linear factor",
                    [(1, [(3, 2)])]),
    "zero-factor-first": ((1, [(0, 0), (3, 2)]), "(0, 0) is not a linear factor",
                          [(1, [(3, 2)])]),
    "scalars-only": ((1, [(0, 2), (0, -3)]), "a stratum term needs a factor with N != 0",
                     [(1, [(0, 2), (1, 1)]), (2, [(1, 1), (0, -3)])]),
    "one-scalar": ((2, [(0, 4)]), "a stratum term needs a factor with N != 0",
                   [(1, [(0, 4), (2, 1)])]),
    "empty": ((1, []), "a stratum term needs a factor with N != 0", []),
    "three-factors": ((1, [(1, 1), (2, 1), (3, 1)]), "a stratum term has one or two factors",
                      [(1, [(1, 1), (2, 1)]), (Fraction(1, 2), [(3, 1)])]),
}
OTHER_TERMS = [(1, [(5, 3), (2, 2)]), (-1, [(5, 3)])]
POSITIONS = {
    "first": lambda bad, own: [bad, *own, *OTHER_TERMS],
    "after-its-factors": lambda bad, own: [*own, bad, *OTHER_TERMS],
    "after-other-factors": lambda bad, own: [*OTHER_TERMS, bad, *own],
    "last": lambda bad, own: [*OTHER_TERMS, *own, *own, bad],
}


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("name", BAD_TERMS)
def test_rf_sum_messages_do_not_depend_on_earlier_terms(name, position):
    bad, message, own = BAD_TERMS[name]
    with pytest.raises(ValueError) as err:
        rf_sum(POSITIONS[position](bad, own))
    assert str(err.value) == message


def test_pole_order_is_the_highest_surviving_power():
    # the double poles at -1 of the first two terms cancel, and the split
    # of the third leaves -1 a simple pole; -1/2 keeps the double pole of
    # the last term, whose factors are equal after normalization
    z = rf_sum([(1, [(1, 1), (1, 1)]), (-2, [(2, 2), (1, 1)]),
                (1, [(1, 1), (2, 1)]), (2, [(2, 1), (4, 2)])])
    assert poles(z) == [(Fraction(-1), 1), (Fraction(-1, 2), 2)]
    assert str(z) == "(3*s + 2) / ((s + 1) * (2*s + 1)^2)"


def small_terms():
    # Fraction coefficients, N of either sign or zero, factors with a
    # content (such as (6, 4)), and pairs whose factors are equal after
    # normalization: every way a stratum term is split in the sum
    pair = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda f: f != (0, 0))
    linear = st.builds(lambda f, c: (f[0] * c, f[1] * c), pair, st.integers(1, 3))
    moving = linear.filter(lambda f: f[0] != 0)
    square = st.builds(lambda f, c: (f, (f[0] * c, f[1] * c)), moving,
                       st.sampled_from((-2, -1, 1, 2)))
    return st.tuples(
        st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=6),
        st.tuples(moving) | st.tuples(moving, linear) | st.tuples(linear, moving) | square,
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
    assert rf_sum(stratum_terms(rf_sum(terms[:cut])) + stratum_terms(rf_sum(terms[cut:]))) == z
    roots = {Fraction(-v, n) for _, den in terms for n, v in den if n}
    for s in {Fraction(1, 7), Fraction(2, 3), Fraction(5, 2), Fraction(3)} - roots:
        assert value(z, s) == sum(term_value(*t, s) for t in terms)
    # canonical: primitive numerator with positive leading coefficient,
    # sorted primitive factors, none of them a root of the numerator
    if z.num:
        assert gcd(*z.num) == 1 and z.num[-1] > 0
    assert list(z.den) == sorted(z.den)
    for (n, v), e in z.den:
        assert n >= 1 and gcd(n, v) == 1 and 1 <= e <= 2
        assert sum(c * Fraction(-v, n) ** i for i, c in enumerate(z.num)) != 0


def negated(terms):
    return [(-coef, den) for coef, den in terms]


@settings(max_examples=150, deadline=None)
@given(st.lists(small_terms(), max_size=6), st.integers(0, 6))
def test_printed_form_and_poles_match_the_reference(terms, cut):
    # the one-pass canonicalization, the integer sort key and the printer
    # of the scale as text give what the generic polynomial products, the
    # Fraction sort and the printer of the Fraction scale gave: on sums
    # with their terms' factors squared, so with double poles, and on
    # sums with some terms cancelled, all of them (zero) when cut >= len
    sums = (rf_sum(terms), rf_sum(terms + negated(terms[:cut])),
            rf_sum(terms + [(c, (f, f)) for c, den in terms for f in den if f[0]]))
    for z in sums:
        assert _canonical(z.parts, z.den) == reference_report.canonical(z.parts, z.den)
        assert poles(z) == reference_report.poles(z)
        assert rational_str(str(z.scale), z.num, z.den) == reference_report.rational_str(z)


@settings(max_examples=150, deadline=None)
@given(st.lists(small_terms(), max_size=6), st.lists(small_terms(), max_size=6))
def test_partial_fractions_and_printed_form_give_one_equality(a, b):
    # sums compare by their partial fractions, and equal partial
    # fractions are equal printed forms: the printed form is unique too
    za, zb = rf_sum(a), rf_sum(b)
    for other in (zb, rf_sum(b + a + negated(b))):
        assert (za == other) == (printed(za) == printed(other))
        assert za != other or hash(za) == hash(other)
    assert rf_sum(a + negated(a)) == rf_sum([])
    for z in (za, zb):
        assert poles(z) == sorted(Pole(Fraction(-v, n), e) for (n, v), e in z.den)
    # a function built from the printed form has no parts to compare
    form = RationalFunction(*printed(za))
    with pytest.raises(AttributeError):
        form == za
    with pytest.raises(AttributeError):
        hash(form)


# --- a stratum's term is split in one step -----------------------------------

def normalized(f):
    """The primitive factor ``(N, nu)``, ``N >= 1``, of ``f`` with N != 0."""
    n, v = f
    g = gcd(n, v) if n > 0 else -gcd(n, v)
    return n // g, v // g


def random_stratum_term(rng):
    """A constant over one linear factor or two: an integer or Fraction
    coefficient, factors with a content of 1-4 and N of either sign, and
    of the second factor, in one pair out of six the first factor's
    primitive again, with another content, and in one out of twelve
    N = 0."""
    def primitive():
        while True:
            f = rng.randint(-5, 5), rng.randint(-5, 5)
            if gcd(*f) == 1 and f[0]:
                return f

    def linear(f):
        c = rng.randint(1, 4)
        return f[0] * c, f[1] * c

    coef = rng.choice((rng.randint(-4, 4), Fraction(rng.randint(-4, 4), rng.randint(1, 6))))
    f = primitive()
    den = [linear(f)]
    if rng.random() < 0.75:
        r = rng.random()
        den.append(linear(f if r < 1 / 6 else (0, rng.choice((-1, 1))) if r < 1 / 4
                          else primitive()))
    return coef, den


def stratum_shapes(coef, den):
    """The forms a term of random_stratum_term takes, by name."""
    shapes = {"fraction"} if Fraction(coef).denominator > 1 else set()
    for n, v in den:
        shapes |= {"content"} if gcd(n, v) > 1 else set()
        shapes |= {"N = 0"} if n == 0 else {"N < 0"} if n < 0 else set()
    prim = [normalized(f) for f in den if f[0]]
    if len(prim) == 2:
        (n, v), (m, mu) = prim
        d = n * mu - m * v
        shapes.add("d < 0" if d < 0 else "d > 0" if d > 0 else "f == g")
    return shapes


def test_stratum_terms_split_as_divided_one_factor_at_a_time():
    # partial fractions are unique, so the parts equal those of dividing
    # in one factor at a time when they are canonical, lie over the terms'
    # factors to no higher power, and take the terms' exact value at more
    # points than the degree of that common denominator: two proper
    # functions over it that agree there are equal
    rng = random.Random(14)
    seen = dict.fromkeys(("fraction", "content", "N = 0", "N < 0",
                          "d < 0", "d > 0", "f == g"), 0)
    for _ in range(1500):
        terms = [random_stratum_term(rng) for _ in range(rng.randint(1, 5))]
        orders = {}     # the common denominator: each factor's highest power
        for t in terms:
            for shape in stratum_shapes(*t):
                seen[shape] += 1
            prim = [normalized(f) for f in t[1] if f[0]]
            for f in prim:
                orders[f] = max(orders.get(f, 0), prim.count(f))
        residues, denom = rf_sum(terms).parts
        keys = [key for key, _ in residues]
        assert keys == sorted(set(keys)) and denom > 0
        assert gcd(denom, *(c for _, c in residues)) == 1 and all(c for _, c in residues)
        for (n, v), k in keys:
            assert n >= 1 and gcd(n, v) == 1 and 1 <= k <= orders.get((n, v), 0)
        roots = {Fraction(-v, n) for n, v in orders}
        points = [s for s in (Fraction(j, 7) for j in range(1, 60)) if s not in roots]
        for s in points[:sum(orders.values()) + 1]:
            got = sum(Fraction(c, denom) / (n * s + v) ** k for ((n, v), k), c in residues)
            assert got == sum(term_value(*t, s) for t in terms), terms
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
    # lists of the length of a characteristic polynomial: mostly +-1,
    # with runs of zeros
    for size in (10 ** 4, 3 * 10 ** 4, 10 ** 5):
        coeffs = []
        while len(coeffs) < size:
            coeffs += [0] * rng.choice((0, 1, 5, 200)) + [rng.choice((-1, 1, 1, -2, 3))]
        assert poly_str(coeffs, "t") == poly_str_per_term(coeffs, "t")
    # a nonzero var^1 or constant term alone, and a leading -1
    for coeffs in ([0, 1], [0, -7], [0, 1, 0], [0, -1, 0, 0], [5], [-1, 0], [3, 0, 0],
                   [0, 0, -1], [2, 0, -1], [0, 1, -1], [-1, 0, 0, -1], [0]):
        assert poly_str(coeffs, "t") == poly_str_per_term(coeffs, "t"), coeffs
    # a coefficient past Python's default int-to-str limit of 4,300 digits
    with _unlimited_digits():
        coeffs = [1, 0, -(10 ** 5000 + 1), 1, -1]
        assert poly_str(coeffs, "s") == poly_str_per_term(coeffs, "s")


def test_poly_str_across_block_edges():
    # poly_str formats TEXT_BLOCK powers from the top down per % operation,
    # and reads var^1 and the constant apart.  Lengths around one and two
    # blocks, with a run of zeros across a block edge, a whole block of
    # zeros, and the top block all zeros, so that the first text made, whose
    # sign is fixed, comes from a later block
    b = TEXT_BLOCK
    rng = random.Random(29)
    for size in (b + 1, b + 2, b + 3, 2 * b + 2, 2 * b + 3):
        top = size - 1      # the powers top .. top - b + 1 make the first block
        base = [rng.choice((-3, -1, 1, 1, 2, 10 ** 30)) for _ in range(size)]
        cases = [base]
        for cut in (top - b + 1, top - 2 * b + 1):      # the lowest power of a block
            if cut > 1:
                zeros = base[:]
                zeros[max(cut - 5, 0):cut + 5] = [0] * (cut + 5 - max(cut - 5, 0))
                cases.append(zeros)
        if size >= 2 * b + 2:
            middle = base[:]
            middle[top - 2 * b + 1:top - b + 1] = [0] * b      # the second block
            cases.append(middle)
        cases.append([0] * (size - 2) + base[:2])       # var^1 and the constant alone
        cases.append(base[:size - b] + [0] * b)         # the first block all zeros
        cases.append([-c for c in cases[-1]])
        for coeffs in cases:
            want = reference_poly_str.poly_str(coeffs, "t")
            assert want == poly_str_per_term(coeffs, "t")
            assert poly_str(coeffs, "t") == want, (size, coeffs[-3:])
            assert poly_str(tuple(coeffs), "t") == want


def test_poly_str_reads_candidate_powers_across_block_edges():
    # (1 - t) P(t^3), P(u) = (1 - u^p)(1 - u^q) / (1 - u) = (1 + ... +
    # u^(p-1))(1 - u^q): coefficients 1, then a run of p - q zeros, then -1,
    # read at its powers 3k and 3k + 1 alone, more than two blocks of them
    p, q = 30_011, 6_007
    delta = characteristic_poly(CycloProduct.from_exponents({3: -1, 3 * p: 1, 3 * q: 1}))
    powers = candidate_powers(delta.cyclo)
    assert delta.mu == 3 * (p + q) - 2 and len(powers) > 2 * TEXT_BLOCK
    want = reference_poly_str.poly_str(delta.coeffs, "t")
    assert poly_str(delta.coeffs, "t", powers) == want == poly_str_per_term(delta.coeffs, "t")


def test_denominator_factors_print_as_poly_str():
    assert [poly_str((v, n), "s") for n, v in ((1, 1), (6, 5), (1, -2), (3, 0))] == [
        "s + 1", "6*s + 5", "s - 2", "3*s"]
    # rational_str prints each factor N*s + nu itself, as poly_str would
    for n in (1, 2, 6, 10 ** 30):
        for v in (0, 1, -1, 5, -2, 10 ** 30, -(10 ** 30)):
            want = f"1 / ({poly_str((v, n), 's')})"
            assert rational_str("1", (1,), (((n, v), 1),)) == want


# --- closed forms ------------------------------------------------------------

def test_zeta_nondegenerate_cusp():
    assert str(zeta_nondegenerate([(2, 3, 1)])) == "(4*s + 5) / ((s + 1) * (6*s + 5))"


def test_zeta_nondegenerate_node():
    assert str(zeta_nondegenerate([(1, 1, 2)])) == "1 / (s + 1)^2"


def test_zeta_nondegenerate_2_5():
    assert str(zeta_nondegenerate([(2, 5, 1)])) == "(6*s + 7) / ((s + 1) * (10*s + 7))"


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
    assert str(z) == "(164*s^2 + 256*s + 85) / ((s + 1) * (12*s + 5) * (38*s + 17))"


def test_zeta_general_two_leaves():
    z = zeta_general(annotated(Face(2, 3, (LEAF, LEAF))))
    assert str(z) == "(3*s + 5) / ((s + 1) * (12*s + 5))"
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
    cusp = RationalFunction(Fraction(1), (5, 4), (((1, 1), 1), ((6, 5), 1)))
    assert poles(cusp) == [(Fraction(-1), 1), (Fraction(-5, 6), 1)]
    assert poles(rf_sum([(1, [(1, 1), (2, 2)])])) == [(Fraction(-1), 2)]
    # the two residues of one split term are both nonzero
    assert poles(rf_sum([(1, [(6, 5), (1, 1)])])) == [
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
    assert str(z) == "(2*s + 5) / ((s + 1) * (9*s + 5))"


def test_face_weights_cusp():
    assert [(f.mult, f.nu) for f in annotate_faces([(2, 3, 1)]).root.faces] == [(6, 5)]
