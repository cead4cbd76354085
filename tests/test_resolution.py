import random
from fractions import Fraction
from math import gcd

import pytest

from topzeta.cli import random_tree
from topzeta.equitree import Bamboo, Face, LEAF, annotate
from topzeta.lattice import (PrimitiveVector, X_FRAME, Y_FRAME,
                             admissible_subdivision, insert_rays)
from topzeta.resolution import (DivisorNode, ResolutionGraph, build_graph,
                                build_graph_nondegenerate,
                                chain_determinant_check, definitional_zeta)
from topzeta.zeta import zeta_general, zeta_nondegenerate


def annotated(*faces):
    return annotate(Bamboo(tuple(faces)))


CUSP = annotated(Face(2, 3, (LEAF,)))
TWO_PAIR = annotated(Face(2, 3, (Bamboo((Face(2, 7, (LEAF,)),)),)))


def exceptional(graph):
    return [n for n in graph.nodes if n.kind == "exceptional"]


def test_cusp_graph_layout():
    g = build_graph(CUSP)
    data = [((n.vector.a, n.vector.b), n.mult, n.nu, n.chi) for n in exceptional(g)]
    assert data == [((1, 1), 2, 2, 1), ((2, 3), 6, 5, -1), ((1, 2), 3, 3, 1)]
    branches = [n for n in g.nodes if n.kind == "branch"]
    assert len(branches) == 1
    assert all((n.mult, n.nu) == (1, 1) for n in branches)
    assert len(g.edges) == 3


def test_node_graph_layout():
    g = build_graph_nondegenerate([(1, 1, 2)])
    exc = exceptional(g)
    assert [(n.mult, n.nu, n.chi) for n in exc] == [(2, 2, 0)]
    assert sum(1 for n in g.nodes if n.kind == "branch") == 2


def test_two_pair_graph_attachment():
    g = build_graph(TWO_PAIR)
    root_chain, sub_chain = g.chains
    assert root_chain.path == () and sub_chain.path == ((0, 0),)
    # the sub-bamboo hangs off the principal vertex of the root chain
    principal = next(n for n in g.nodes if n.vector == PrimitiveVector(2, 3))
    first_sub = sub_chain.node_ids[0]
    assert (principal.id, first_sub) in g.edges
    # principal vertices keep their annotated multiplicities
    sub_principal = next(n for n in g.nodes if n.vector == PrimitiveVector(2, 7))
    assert (sub_principal.mult, sub_principal.nu) == (38, 17)


def test_definitional_zeta_examples():
    cusp = definitional_zeta(build_graph(CUSP))
    assert (cusp.scale, cusp.num, cusp.den) == (Fraction(1), (5, 4), (((1, 1), 1), ((6, 5), 1)))
    node = definitional_zeta(build_graph_nondegenerate([(1, 1, 2)]))
    assert (node.scale, node.num, node.den) == (Fraction(1), (1,), (((1, 1), 2),))


def test_definitional_matches_closed_forms():
    for tree in (CUSP, TWO_PAIR,
                 annotated(Face(3, 4, (LEAF,)), Face(2, 3, (LEAF, LEAF)))):
        assert definitional_zeta(build_graph(tree)) == zeta_general(tree)
    for faces in ([(2, 3, 1)], [(1, 2, 1)], [(3, 2, 1), (2, 3, 1)], [(1, 1, 2)]):
        assert definitional_zeta(build_graph_nondegenerate(faces)) == \
            zeta_nondegenerate(faces)


def test_extra_rays_leave_zeta_unchanged():
    base = definitional_zeta(build_graph(TWO_PAIR))
    for seed in (1, 2, 3):
        refined = build_graph(TWO_PAIR, extra_rays=3, seed=seed)
        assert definitional_zeta(refined) == base
        assert chain_determinant_check(refined) is None


def test_extra_rays_preserve_weighted_chi_data():
    # inserted divisors land on chain interiors with chi 0; an insertion in
    # a frame-end cone shifts the degree-one end outward, but the end
    # multiplicity only depends on the segment weights, so the multiset of
    # (N, chi) over divisors with nonzero chi never moves
    base = build_graph(CUSP)
    for seed in (7, 11, 23):
        refined = build_graph(CUSP, extra_rays=2, seed=seed)
        assert len(exceptional(refined)) > len(exceptional(base))
        weighted = lambda g: sorted((n.mult, n.chi) for n in exceptional(g) if n.chi)
        assert weighted(refined) == weighted(base)


def per_ray_refinement(tree, extra_rays, seed):
    """Each bamboo's rays refined one ray at a time through insert_rays:
    a random cone u, v of the subdivision so far, then p and q in 1..4,
    and the ray (p u + q v) / gcd(p, q), drawn in that order."""
    rng = random.Random(seed)
    out = []
    for bam in tree.bamboos:
        sub = admissible_subdivision([PrimitiveVector(f.a, f.b) for f in bam.faces])
        for _ in range(extra_rays):
            rays = (X_FRAME, *sub.vectors, Y_FRAME)
            j = rng.randrange(len(rays) - 1)
            u, v = rays[j], rays[j + 1]
            p = rng.randint(1, 4)
            q = rng.randint(1, 4)
            g = gcd(p, q)
            p, q = p // g, q // g
            sub = insert_rays(sub, [PrimitiveVector(p * u.a + q * v.a, p * u.b + q * v.b)])
        out.append(sub.vectors)
    return out


def test_refined_graph_is_the_per_ray_refinement():
    # build_graph grows one ray list per bamboo; its rays, and so the
    # random draws behind them, must be those of inserting one ray at a time
    rng = random.Random(16)
    for i in range(300):
        tree = annotate(random_tree(rng))
        for seed in (i, 1000 + i):
            graph = build_graph(tree, extra_rays=3, seed=seed)
            got = [tuple(graph.nodes[j].vector for j in chain.node_ids) for chain in graph.chains]
            assert got == per_ray_refinement(tree, 3, seed), (tree, seed)


def test_chain_determinants_cusp():
    g = build_graph(CUSP)
    # segment below the principal vertex: det 2; above it: -3
    assert g.chains[0].seg_dets == (2, -3)
    assert chain_determinant_check(g) is None


def test_chain_determinant_check_catches_corruption():
    g = build_graph(CUSP)
    nodes = list(g.nodes)
    victim = g.chains[0].node_ids[1]
    n = nodes[victim]
    nodes[victim] = DivisorNode(n.id, n.kind, n.vector, n.mult + 1, n.nu, n.chi)
    bad = ResolutionGraph(tuple(nodes), g.edges, g.chains)
    violation = chain_determinant_check(bad)
    assert violation is not None
    assert victim in violation.edge


def test_euler_characteristic_is_tree_count():
    # chi of the exceptional set: the open vertex strata plus every
    # intersection point, one per edge; m lines in a tree give m + 1
    graphs = [build_graph(CUSP), build_graph(TWO_PAIR),
              build_graph(TWO_PAIR, extra_rays=3, seed=4)]
    for g in graphs:
        lines = exceptional(g)
        assert sum(n.chi for n in lines) + len(g.edges) == len(lines) + 1


def test_graph_refused_past_max_divisors():
    # each bamboo fits (60,002 rays), the two together do not
    sub = Bamboo((Face(2, 120_001, (LEAF,)),))
    tree = annotated(Face(2, 120_001, (sub,)))
    with pytest.raises(ValueError, match="more than 100000 divisors at "
                                         "path /faces/0/classes/0/faces/0$"):
        build_graph(tree)
    assert len(build_graph(annotate(sub)).nodes) == 60_003


def test_graph_serialization_is_stable():
    g = build_graph(TWO_PAIR)
    assert g == build_graph(TWO_PAIR)
    assert [n.id for n in g.nodes] == list(range(len(g.nodes)))
    assert {n.kind for n in g.nodes} == {"exceptional", "branch"}
    branch = next(n for n in g.nodes if n.kind == "branch")
    assert branch.vector is None and branch.chi is None
    assert branch.mult == 1 and branch.nu == 1
