import random
import time
from fractions import Fraction
from math import comb, gcd, lcm

import pytest

import poly_arith
import reference_charpoly
from rational_euclid import divmod_frac
from topzeta import monodromy
from topzeta.cli import random_tree, tree_from_json
from topzeta.equitree import Bamboo, Face, LEAF, annotate, annotate_faces
from topzeta.monodromy import (CycloProduct, acampo_from_graph,
                               characteristic_poly, conjecture_report,
                               eigenvalue_witness, monodromy_zeta,
                               root_multiplicity)
from topzeta.resolution import build_graph, build_graph_nondegenerate
from topzeta.zeta import zeta_general


def annotated(*faces):
    return annotate(Bamboo(tuple(faces)))


CUSP = annotated(Face(2, 3, (LEAF,)))
TWO_PAIR = annotated(Face(2, 3, (Bamboo((Face(2, 7, (LEAF,)),)),)))


def cyclo(mapping):
    return CycloProduct.from_exponents(mapping)


def delta_cyclo(tree):
    return characteristic_poly(monodromy_zeta(tree), max_degree=0).cyclo


def test_monodromy_zeta_cusp():
    assert monodromy_zeta(CUSP) == cyclo({6: 1, 2: -1, 3: -1})


def test_monodromy_zeta_two_leaves():
    tree = annotated(Face(2, 3, (LEAF, LEAF)))
    assert monodromy_zeta(tree) == cyclo({12: 2, 4: -1, 6: -1})


def test_monodromy_zeta_two_pair():
    assert monodromy_zeta(TWO_PAIR) == cyclo({12: 1, 4: -1, 6: -1, 38: 1, 19: -1})


def test_characteristic_poly_cusp():
    delta = characteristic_poly(monodromy_zeta(CUSP))
    assert delta.coeffs == (1, -1, 1)
    assert delta.mu == 2


def test_characteristic_poly_trivial_product():
    delta = characteristic_poly(cyclo({}))
    assert delta.coeffs == (1, -1)
    assert delta.mu == 1


def test_characteristic_poly_expansion_cap():
    delta = characteristic_poly(monodromy_zeta(TWO_PAIR), max_degree=3)
    assert delta.coeffs is None and delta.mu == 22
    full = characteristic_poly(monodromy_zeta(TWO_PAIR))
    assert full.coeffs is not None and len(full.coeffs) == 23


def test_characteristic_poly_rejects_non_polynomial():
    with pytest.raises(ArithmeticError, match="not a polynomial"):
        characteristic_poly(cyclo({2: -1}))


def nested_chain(depth):
    node = LEAF
    for _ in range(depth):
        node = Bamboo((Face(2, 3, (node,)),))
    return node


def test_characteristic_poly_deep_chain_in_time():
    # a nested (2, 3) chain doubles the exponents per level; the root order
    # check must not enumerate their divisors
    zm = monodromy_zeta(annotate(nested_chain(30)))
    start = time.perf_counter()
    delta = characteristic_poly(zm, max_degree=0)
    assert time.perf_counter() - start < 2.0
    assert delta.coeffs is None and delta.mu > 10 ** 9


def test_characteristic_poly_verdict_matches_divisor_enumeration():
    # (1 - t^lcm(a, b)) / ((1 - t^a)(1 - t^b)), sometimes times one more
    # factor: whether it is a polynomial after the factor (1 - t) is often
    # decided at gcd(a, b), which is no exponent.  Brute force checks every
    # divisor of every exponent.
    rng = random.Random(23)
    rejected = 0
    for _ in range(400):
        a, b = rng.sample(range(2, 25), 2)
        z = cyclo({a: -1}) * cyclo({b: -1}) * cyclo({lcm(a, b): 1})
        if rng.random() < 0.5:
            z = z * cyclo({rng.randint(2, 60): rng.choice((-1, 1))})
        factors = (z * cyclo({1: 1})).factors
        orders = {d for n, _ in factors for d in range(1, n + 1) if n % d == 0}
        polynomial = all(sum(e for n, e in factors if n % d == 0) >= 0 for d in orders)
        try:
            characteristic_poly(z, max_degree=0)
        except ArithmeticError as exc:
            assert "not a polynomial" in str(exc)
            assert not polynomial, factors
            rejected += 1
        else:
            assert polynomial, factors
    assert 0 < rejected < 400


def full_closure_message(z):
    """The message characteristic_poly raises for z, or None, from the gcds
    of all nonempty sets of exponents of (1 - t) z, smallest first: its
    check before the closure was seeded with negative powers only."""
    factors = (z * cyclo({1: 1})).factors
    orders = set()
    for n, _ in factors:
        orders |= {gcd(n, d) for d in orders} | {n}
    for d in sorted(orders):
        m = sum(e for n, e in factors if n % d == 0)
        if m < 0:
            return f"not a polynomial: multiplicity {m} at root order {d}"
    return None


def test_characteristic_poly_message_matches_the_full_closure():
    # the zeta of a random tree, times 0-3 more factors (1 - t^n)^e with
    # e = +-1 or +-2 and n an exponent of it, the gcd of two, or any
    # number up to 200; refused products are checked by their message
    rng = random.Random(29)
    refused = accepted = at_gcd = 0
    for _ in range(600):
        z = monodromy_zeta(annotate(random_tree(rng)))
        for _ in range(rng.choice((0, 1, 2, 3))):
            n, m = rng.choice(z.factors)[0], rng.choice(z.factors)[0]
            n = rng.choice((n, gcd(n, m), rng.randint(2, 200)))
            z = z * cyclo({n: rng.choice((-2, -1, 1, 2))})
        want = full_closure_message(z)
        try:
            characteristic_poly(z, max_degree=0)
        except ArithmeticError as exc:
            assert str(exc) == want, z
            refused += 1
            at_gcd += int(want.rsplit(" ", 1)[1]) not in dict(z.factors)
        else:
            assert want is None, z
            accepted += 1
    assert refused > 120 and accepted > 300 and at_gcd > 20, (refused, accepted, at_gcd)


def test_characteristic_poly_fermat_800_in_time():
    # x^800 + y^800: delta = (1 - t)(1 - t^800)^798, mu = 799^2; the
    # expansion runs on multiples of 800 and is quadratic in n, not cubic
    zm = monodromy_zeta(annotate_faces([(1, 1, 800)]))
    start = time.perf_counter()
    delta = characteristic_poly(zm)
    assert time.perf_counter() - start < 2.0
    expected = [0] * (delta.mu + 1)
    for k in range(799):
        expected[800 * k] = (-1) ** k * comb(798, k)
        expected[800 * k + 1] = -expected[800 * k]
    assert delta.mu == 799 ** 2 and delta.coeffs == tuple(expected)


def mobius(n):
    m, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            m = -m
        p += 1
    return -m if n > 1 else m


def strides(factors):
    """(n, e, stride) of each factor (1 - t^n)^e, n > 1, in the order
    characteristic_poly applies them: the stride is the gcd of the
    exponents applied so far."""
    out, g = [], 0
    for n, e in sorted(((n, e) for n, e in factors if n > 1), key=lambda f: f[1] < 0):
        g = gcd(g, n)
        out.append((n, e, g))
    return out


def sparse_powers(factors, h):
    """The powers ``(n, j, e)``, the j-th of ``(1 - t^n)^e`` in the order
    characteristic_poly applies them (n <= h), and how many of them it
    takes into its sparse map.  The map's keys are modelled as the set
    of sums of the exponents applied, up to h."""
    steps = sorted(((n, e) for n, e in factors if n > 1), key=lambda f: f[1] < 0)
    # (1 - t)^e goes in where the gcd of the exponents would first reach 1
    g, at = 0, len(steps)
    for i, (n, _) in enumerate(steps):
        g = gcd(g, n)
        if g == 1:
            at = i
            break
    steps.insert(at, (1, dict(factors).get(1, 0)))
    powers, keys, done, g = [], {0}, None, 0
    for n, e in steps:
        g = gcd(g, n)
        if n > h:
            continue
        for j in range(abs(e)):
            if done is None and (e < 0 or 3 * len(keys) > (h - n) // g):
                done = len(powers)
            if done is None:
                keys |= {k + n for k in keys if k + n <= h}
            powers.append((n, j, e))
    return powers, len(powers) if done is None else done


def divided_expansion(factors):
    """The coefficients of prod (1 - t^n)^e over its whole degree, with no
    mirroring: dense products, then exact divisions."""
    ref = [1]
    for n, e in factors:
        for _ in range(e):
            ref = poly_arith.mul(ref, [1] + [0] * (n - 1) + [-1])
    for n, e in factors:
        for _ in range(-e):
            ref, rem = divmod_frac(ref, [1] + [0] * (n - 1) + [-1])
            assert rem == []
    return ref


def test_characteristic_poly_matches_polynomial_division():
    # products of cyclotomic polynomials Phi_d^m (up to sign), written as
    # prod (1 - t^n)^e by Moebius inversion, against a reference that
    # multiplies and exactly divides dense polynomials
    rng = random.Random(31)
    seen = {"e1 = 0": 0, "e1 < 0": 0, "e1 >= 2": 0,
            "strided multiplication": 0, "strided division": 0,
            "block division": 0, "residue-class division": 0,
            "odd mu": 0, "even mu": 0, "sign != (-1)^mu": 0,
            "zero middle coefficient": 0, "all positive powers sparse": 0,
            "switch inside a factor's powers": 0, "switch between two factors": 0}
    checked = 0
    while checked < 150:
        exps = {}
        for _ in range(rng.randint(1, 4)):
            d, m = rng.randint(1, 36), rng.randint(1, 3)
            for k in range(1, d + 1):
                if d % k == 0 and mobius(d // k):
                    exps[k] = exps.get(k, 0) + m * mobius(d // k)
        exps[1] = exps.get(1, 0) - 1     # characteristic_poly multiplies by (1 - t)
        delta = characteristic_poly(cyclo(exps))
        if delta.mu > 400:
            continue
        checked += 1
        factors = delta.cyclo.factors
        assert list(delta.coeffs) == divided_expansion(factors), factors
        e1 = delta.cyclo.exponents().get(1, 0)
        seen["e1 = 0"] += e1 == 0
        seen["e1 < 0"] += e1 < 0
        seen["e1 >= 2"] += e1 >= 2
        steps = strides(factors)
        # the first factor always runs at the stride n; count the later ones
        seen["strided multiplication"] += any(e > 0 and g > 1 for _, e, g in steps[1:])
        seen["strided division"] += any(e < 0 and g > 1 for _, e, g in steps)
        # the expansion runs to degree h and divides block by block when
        # that takes fewer steps than one per residue class
        mu = delta.mu
        h = min(mu // 2 + 1, mu)
        divisions = [(n, g) for n, e, g in steps if e < 0 and n <= h]
        seen["block division"] += any(h // n < n // g for n, g in divisions)
        seen["residue-class division"] += any(h // n >= n // g for n, g in divisions)
        # positive powers go into a sparse map until a dense pass pays
        powers, done = sparse_powers(factors, h)
        if all(e < 0 for _, _, e in powers[done:]):
            seen["all positive powers sparse"] += any(e > 0 for _, _, e in powers)
        elif done and powers[done][2] > 0:
            key = "between two factors" if powers[done][1] == 0 else "inside a factor's powers"
            seen["switch " + key] += 1
        seen["odd mu"] += mu % 2 == 1
        seen["even mu"] += mu % 2 == 0
        if (-1) ** sum(e for _, e in factors) != (-1) ** mu:
            seen["sign != (-1)^mu"] += 1
            # c[mu - j] = -(-1)^mu c[j]: at even mu the middle is its own negative
            if mu % 2 == 0:
                assert delta.coeffs[mu // 2] == 0
                seen["zero middle coefficient"] += 1
    assert all(seen.values()), seen


def test_characteristic_poly_matches_the_dense_reference(perfbench):
    # the sparse phase against the dense-only expansion it replaced: the
    # 500 seed-7 trees, the tree-report corpora of seeds 1 and 2, whose
    # largest trees run nearly every positive power sparse, and x^n + y^n,
    # whose powers of (1 - t^n) go dense partway
    rng = random.Random(7)
    trees = [random_tree(rng) for _ in range(500)]
    for seed in (1, 2):
        trees += map(tree_from_json, perfbench["corpora"].tree_report_corpus(seed))
    zetas = [monodromy_zeta(annotate(tree)) for tree in trees]
    zetas += [monodromy_zeta(annotate_faces([(1, 1, n)])) for n in [*range(2, 202), 400, 800]]
    expanded = 0
    for z in zetas:
        delta = characteristic_poly(z)
        if delta.coeffs is not None:
            assert delta.coeffs == reference_charpoly.expansion(delta.cyclo), delta.cyclo
            expanded += 1
    assert expanded == 167 + 24 + 202, expanded


def test_a_sparse_product_makes_no_dense_pass(monkeypatch):
    # every positive power of (1 - t)(1 - t^1000) prod (1 - t^p), p five
    # numbers near 30000, fits the sparse map (64 terms below h = 75,581),
    # so no dense pass subtracts a slot; the powers of
    # (1 - t^60) for x^60 + y^60 go dense after nine
    slots = []

    def counting_sub(a, b):
        slots.append(a)
        return a - b

    monkeypatch.setattr(monodromy, "sub", counting_sub)
    z = cyclo({1000: 1, 30011: 1, 30013: 1, 30029: 1, 30047: 1, 30059: 1})
    delta = characteristic_poly(z)
    assert delta.coeffs == reference_charpoly.expansion(delta.cyclo) and slots == []
    delta = characteristic_poly(monodromy_zeta(annotate_faces([(1, 1, 60)])))
    assert delta.coeffs == reference_charpoly.expansion(delta.cyclo) and slots


def test_characteristic_poly_of_degree_zero():
    # h = min(mu // 2 + 1, mu) = 0; test_characteristic_poly_trivial_product has mu = 1
    delta = characteristic_poly(cyclo({1: -1}))
    assert delta.coeffs == (1,) and delta.mu == 0


def test_palindrome_two_pair():
    # characteristic_poly mirrors the lower half of Delta, so the
    # palindrome is checked on an expansion of the whole degree
    delta = characteristic_poly(monodromy_zeta(TWO_PAIR))
    c, mu = divided_expansion(delta.cyclo.factors), delta.mu
    assert list(delta.coeffs) == c and len(c) == mu + 1
    sign = 1 if c[0] == c[-1] else -1
    assert all(c[j] == sign * c[mu - j] for j in range(mu + 1))


def test_root_multiplicity_cusp():
    delta = characteristic_poly(monodromy_zeta(CUSP))
    assert root_multiplicity(delta.cyclo, 6) == 1
    assert root_multiplicity(delta.cyclo, 2) == 0
    assert root_multiplicity(delta.cyclo, 1) == 0   # delta(1) != 0
    assert delta.coeffs[0] + delta.coeffs[1] + delta.coeffs[2] == 1


def test_root_multiplicity_d1_is_exponent_sum():
    delta = characteristic_poly(monodromy_zeta(TWO_PAIR))
    assert root_multiplicity(delta.cyclo, 1) == sum(e for _, e in delta.cyclo.factors)


def test_is_eigenvalue_cusp():
    assert eigenvalue_witness(delta_cyclo(CUSP), Fraction(-5, 6)).ok
    w = eigenvalue_witness(delta_cyclo(CUSP), Fraction(-1))
    assert w.ok and w.root_order == 1
    w = eigenvalue_witness(delta_cyclo(CUSP), Fraction(-1, 2))
    assert not w.ok and w.root_order == 2 and w.multiplicity == 0


def test_eigenvalue_witness_contributions():
    w = eigenvalue_witness(delta_cyclo(CUSP), Fraction(-5, 6))
    assert w.contributions == ((6, 1),)


@pytest.mark.parametrize("thetas, want", [
    ((Fraction(-5, 6), "-5/6", " -10/12 ", "7/6"), (True, 6, 1, ((6, 1),))),
    ((Fraction(-1, 2), "-1/2", 1.5), (False, 2, 0, ((2, -1), (6, 1)))),
    ((Fraction(-1), -1, "-1", 2, -3.0), (True, 1, None, ())),
])
def test_eigenvalue_witness_takes_what_fraction_takes(thetas, want):
    # theta may be anything Fraction() reads: a Fraction, an int, a str
    # or a float; the witness depends on its value alone
    for theta in thetas:
        w = eigenvalue_witness(delta_cyclo(CUSP), theta)
        assert (w.ok, w.root_order, w.multiplicity, w.contributions) == want, theta


def test_verify_conjecture_cusp():
    checks = conjecture_report(zeta_general(CUSP), delta_cyclo(CUSP))
    assert all(c.witness.ok for c in checks)
    assert [c.value for c in checks] == [Fraction(-1), Fraction(-5, 6)]
    assert checks[0].witness.root_order == 1
    assert checks[1].witness.root_order == 6


def test_verify_conjecture_two_pair():
    checks = conjecture_report(zeta_general(TWO_PAIR), delta_cyclo(TWO_PAIR))
    assert all(c.witness.ok for c in checks)
    orders = {c.value: c.witness.root_order for c in checks}
    assert orders[Fraction(-5, 12)] == 12
    assert orders[Fraction(-17, 38)] == 38


def test_acampo_cusp_graph():
    graph = build_graph(CUSP)
    assert acampo_from_graph(graph) == cyclo({6: 1, 2: -1, 3: -1})


def test_acampo_node_graph():
    graph = build_graph_nondegenerate([(1, 1, 2)])
    assert acampo_from_graph(graph) == cyclo({})
    delta = characteristic_poly(acampo_from_graph(graph))
    assert delta.coeffs == (1, -1) and delta.mu == 1


def test_acampo_ignores_chi_zero():
    graph = build_graph(CUSP, extra_rays=4, seed=9)
    assert acampo_from_graph(graph) == acampo_from_graph(build_graph(CUSP))


def test_acampo_matches_closed_form():
    for tree in (CUSP, TWO_PAIR, annotated(Face(3, 4, (LEAF, LEAF)), Face(2, 3, (LEAF,)))):
        assert acampo_from_graph(build_graph(tree)) == monodromy_zeta(tree)


def test_smooth_poly_has_trivial_h1():
    # a smooth germ: one face (1,1), one branch; delta = 1, milnor number 0
    graph = build_graph_nondegenerate([(1, 1, 1)])
    delta = characteristic_poly(acampo_from_graph(graph))
    assert delta.coeffs == (1,) and delta.mu == 0


def test_middle_faces_always_contribute_eigenvalues():
    # inner principal vertices keep their full cyclotomic factor: the
    # primitive order of -nu/N has positive multiplicity in delta
    import random
    from math import gcd
    from face_specs import random_face_specs
    from topzeta.equitree import annotate_faces

    rng = random.Random(17)
    checked = 0
    while checked < 25:
        specs = random_face_specs(rng)
        if len(specs) < 3:
            continue
        weights = [(f.mult, f.nu) for f in annotate_faces(specs).root.faces]
        graph = build_graph_nondegenerate(specs)
        delta = characteristic_poly(acampo_from_graph(graph), max_degree=0)
        for i in range(1, len(specs) - 1):
            n, nu = weights[i]
            assert root_multiplicity(delta.cyclo, n // gcd(n, nu)) >= 1
            checked += 1
