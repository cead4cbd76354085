"""Full resolution graphs and the definitional zeta function.

This is the brute-force side of every differential test in the package.
``build_graph`` lays out, bamboo by bamboo, an admissible regular
subdivision for the principal rays, assigns to each ray ``T = (c, d)``
of the segment ``P_i <= T < P_(i+1)`` the multiplicity
``c * alpha_i + d * beta_i`` and the weight ``c * base_nu + d``, chains
the divisors in slope order, hangs each sub-bamboo off its attachment
face, and attaches one branch node (multiplicity and weight both 1, the
curve being reduced) per leaf.  Euler characteristics of the open strata
are ``2 - degree`` for the exceptional curves.  A node is a
``DivisorNode``, a named tuple.

``definitional_zeta`` then evaluates the stratified sum
``sum chi(E_I°) * prod 1/(N_i s + nu_i)`` over the strata meeting the
fiber over the origin: vertex strata of exceptional curves and all edge
strata, each the ``zeta.rf_sum`` term ``(chi, (f,))`` or ``(1, (f, g))``
of its divisors' ``f, g = (N, nu)``.  The result must agree exactly with
the closed forms, and must not move when extra rays are inserted; both
facts are what the test suite drives.

A Newton-nondegenerate face list is the one-bamboo tree built by
``equitree.annotate_faces``, so ``build_graph`` covers it too, smooth
faces like the ordinary node's ``(1, 1)`` included;
``build_graph_nondegenerate`` only names that composition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from .equitree import AnnotatedTree, Leaf, annotate_faces
from .lattice import (MAX_DIVISORS, PrimitiveVector, Subdivision, TooManyRays, X_FRAME,
                      Y_FRAME, admissible_subdivision, minimal_regular_refinement)
from .zeta import RationalFunction, rf_sum


class DivisorNode(NamedTuple):
    id: int
    kind: str                          # "exceptional" | "branch"
    vector: PrimitiveVector | None     # ray of an exceptional divisor
    mult: int                          # N: order of the pullback of f
    nu: int                            # 1 + discrepancy
    chi: int | None                    # chi of the open stratum, exceptional only


@dataclass(frozen=True)
class ChainRecord:
    path: tuple
    node_ids: tuple[int, ...]          # exceptional chain in slope order
    segments: tuple[int, ...]          # segment index of each chain node
    seg_dets: tuple[int, ...]          # expected chain determinant per segment


@dataclass(frozen=True)
class ResolutionGraph:
    nodes: tuple[DivisorNode, ...]
    edges: tuple[tuple[int, int], ...]
    chains: tuple[ChainRecord, ...]


class ChainViolation(NamedTuple):
    edge: tuple[int, int]
    expected: int
    got: int


def build_graph(tree: AnnotatedTree, *, extra_rays: int = 0, seed: int = 0) -> ResolutionGraph:
    """Resolution graph of a tree; minimal subdivisions by default.

    With ``extra_rays`` > 0, that many random rays go into each bamboo's
    one ray list, deterministically from ``seed``, and the list is checked
    once.  Inserted divisors sit on chain interiors, so their open strata
    have Euler characteristic zero and all derived invariants must stay.

    Raises ValueError naming a bamboo's face when the graph would have
    more than ``lattice.MAX_DIVISORS`` exceptional divisors.
    """
    rng = random.Random(seed)
    raw, edges, chains = [], [], []     # raw nodes: (kind, vector, N, nu)
    principal_ids = {}                  # bamboo path -> node id of each face
    used = 0
    for bam in tree.bamboos:
        try:
            rays = [X_FRAME, *admissible_subdivision(
                [PrimitiveVector(f.a, f.b) for f in bam.faces]).vectors, Y_FRAME]
            for _ in range(extra_rays):
                # w = (p u + q v) / gcd(p, q) lies strictly inside the cone u, v
                j = rng.randrange(len(rays) - 1)
                u, v = rays[j], rays[j + 1]
                p, q = rng.randint(1, 4), rng.randint(1, 4)
                g = gcd(p, q)
                w = PrimitiveVector((p * u.a + q * v.a) // g, (p * u.b + q * v.b) // g)
                rays[j + 1:j + 1] = minimal_regular_refinement(u, w, v)
            vectors = Subdivision(rays[1:-1]).vectors if extra_rays else rays[1:-1]
            used += len(vectors)
            if used > MAX_DIVISORS:     # name the first ray past the bound
                raise TooManyRays(vectors[MAX_DIVISORS - used])
        except TooManyRays as exc:
            # name the face whose cone holds the ray, or the last face
            face = min(sum(f.a * exc.ray.b > f.b * exc.ray.a for f in bam.faces),
                       len(bam.faces) - 1)
            where = "".join(f"/faces/{i}/classes/{l}" for i, l in bam.path)
            raise ValueError(f"resolution graph needs more than {MAX_DIVISORS} "
                             f"divisors at path {where}/faces/{face}") from None
        alphas = [bam.base_mult] + [f.alpha for f in bam.faces]
        betas = [bam.beta0] + [f.beta for f in bam.faces]
        base_nu = bam.base_nu
        # the chain in slope order: a ray's segment is the number of
        # principal rays at or below it, the last of them the ray itself
        # when its coordinates are those of the next face; the list holds
        # every principal ray, so the walk passes them all
        principal = [(f.a, f.b) for f in bam.faces] + [(0, 0)]
        first, seg, segs, pids = len(raw), 0, [], []
        pa, pb = principal[0]
        for t in vectors:
            a, b = t.a, t.b
            if a == pa and b == pb:
                pids.append(len(raw))
                seg += 1
                pa, pb = principal[seg]
            raw.append(("exceptional", t, a * alphas[seg] + b * betas[seg], a * base_nu + b))
            segs.append(seg)
        assert seg == len(bam.faces), "a principal ray is missing from its chain"
        ids = range(first, len(raw))
        edges += zip(ids, ids[1:])
        chains.append(ChainRecord(bam.path, tuple(ids), tuple(segs),
                                  (bam.chain_det0, *(f.chain_det for f in bam.faces))))
        principal_ids[bam.path] = pids
        if bam.path:
            i = bam.path[-1][0]
            edges.append((principal_ids[bam.path[:-1]][i], first))
        for i, f in enumerate(bam.faces):
            for cls in f.classes:
                if isinstance(cls, Leaf):
                    edges.append((pids[i], len(raw)))
                    raw.append(("branch", None, 1, 1))
    degree = [0] * len(raw)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    nodes = tuple([DivisorNode(i, kind, t, n, nu, None if t is None else 2 - degree[i])
                   for i, (kind, t, n, nu) in enumerate(raw)])
    return ResolutionGraph(nodes, tuple(edges), tuple(chains))


def build_graph_nondegenerate(faces, *, extra_rays: int = 0, seed: int = 0) -> ResolutionGraph:
    """Resolution graph of a Newton-nondegenerate face list (a, b, r)."""
    return build_graph(annotate_faces(faces), extra_rays=extra_rays, seed=seed)


def definitional_zeta(graph: ResolutionGraph) -> RationalFunction:
    """Stratified sum over the graph; the ground truth the closed forms
    are tested against.  Strata consisting of a branch alone are skipped:
    they do not lie over the origin (and carry chi zero anyway)."""
    factors = [(n.mult, n.nu) for n in graph.nodes]     # node ids are indices
    terms = [(n.chi, (factors[n.id],)) for n in graph.nodes
             if n.kind == "exceptional" and n.chi]
    terms += [(1, (factors[u], factors[v])) for u, v in graph.edges]
    return rf_sum(terms)


def chain_determinant_check(graph: ResolutionGraph) -> ChainViolation | None:
    """Verify N' nu - N nu' = segment determinant on every chain edge.

    Returns the first violation, or None when the whole graph passes.
    """
    nodes = graph.nodes
    for chain in graph.chains:
        for j in range(len(chain.node_ids) - 1):
            u = nodes[chain.node_ids[j]]
            v = nodes[chain.node_ids[j + 1]]
            expected = chain.seg_dets[chain.segments[j]]
            got = v.mult * u.nu - u.mult * v.nu
            if got != expected:
                return ChainViolation((u.id, v.id), expected, got)
    return None

