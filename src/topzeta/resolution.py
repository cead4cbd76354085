"""Full resolution graphs and the definitional zeta function.

This is the brute-force side of every differential test in the package.
``build_graph`` lays out, bamboo by bamboo, an admissible regular
subdivision for the principal rays, assigns to each ray ``T = (c, d)``
of the segment ``P_i <= T < P_(i+1)`` the multiplicity
``c * alpha_i + d * beta_i`` and the weight ``c * base_nu + d``, chains
the divisors in slope order, hangs each sub-bamboo off its attachment
face, and attaches one branch node (multiplicity and weight both 1, the
curve being reduced) per leaf.  Euler characteristics of the open strata
are ``2 - degree`` for the exceptional curves.

``definitional_zeta`` then evaluates the stratified sum
``sum chi(E_I°) * prod 1/(N_i s + nu_i)`` over the strata meeting the
fiber over the origin: vertex strata of exceptional curves and all edge
strata.  The result must agree exactly with the closed forms, and must
not move when extra rays are inserted; both facts are what the test
suite drives.

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
from .lattice import (PrimitiveVector, Subdivision, X_FRAME, Y_FRAME,
                      admissible_subdivision, det, insert_rays)
from .zeta import RationalFunction, rf_sum


@dataclass(frozen=True)
class DivisorNode:
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

    def to_json_dict(self) -> dict:
        return {
            "nodes": [
                {
                    "id": n.id,
                    "kind": n.kind,
                    "vector": [n.vector.a, n.vector.b] if n.vector else None,
                    "N": n.mult,
                    "nu": n.nu,
                    "chi": n.chi,
                }
                for n in self.nodes
            ],
            "edges": [list(e) for e in self.edges],
        }


class ChainViolation(NamedTuple):
    edge: tuple[int, int]
    expected: int
    got: int


class _Builder:
    def __init__(self):
        self.nodes = []
        self.edges = []
        self.chains = []

    def chain(self, path, sub: Subdivision, principal, alphas, betas, base_nu):
        """Emit the divisor chain of one bamboo; returns ids of the
        principal nodes, keyed by face index."""
        seg_dets = tuple(base_nu * b - a for a, b in zip(alphas, betas))
        by_vector = {p: i for i, p in enumerate(principal)}
        ids, segs = [], []
        principal_ids = {}
        prev = None
        for t in sub.vectors:
            seg = 0
            for p in principal:
                if det(p, t) >= 0:
                    seg += 1
                else:
                    break
            i = len(self.nodes)
            self.nodes.append(DivisorNode(
                id=i, kind="exceptional", vector=t,
                mult=t.a * alphas[seg] + t.b * betas[seg],
                nu=t.a * base_nu + t.b, chi=None,
            ))
            if prev is not None:
                self.edges.append((prev, i))
            ids.append(i)
            segs.append(seg)
            prev = i
            if t in by_vector:
                principal_ids[by_vector[t]] = i
        self.chains.append(ChainRecord(path, tuple(ids), tuple(segs), seg_dets))
        return principal_ids

    def branch(self, principal_id):
        i = len(self.nodes)
        self.nodes.append(DivisorNode(i, "branch", None, 1, 1, None))
        self.edges.append((principal_id, i))

    def finish(self) -> ResolutionGraph:
        degree = [0] * len(self.nodes)
        for u, v in self.edges:
            degree[u] += 1
            degree[v] += 1
        nodes = tuple(
            n if n.kind == "branch"
            else DivisorNode(n.id, n.kind, n.vector, n.mult, n.nu, 2 - degree[n.id])
            for n in self.nodes
        )
        return ResolutionGraph(nodes, tuple(self.edges), tuple(self.chains))


def _random_refine(sub: Subdivision, rng: random.Random) -> Subdivision:
    rays = (X_FRAME, *sub.vectors, Y_FRAME)
    j = rng.randrange(len(rays) - 1)
    u, v = rays[j], rays[j + 1]
    p = rng.randint(1, 4)
    q = rng.randint(1, 4)
    g = gcd(p, q)
    p, q = p // g, q // g
    w = PrimitiveVector(p * u.a + q * v.a, p * u.b + q * v.b)
    return insert_rays(sub, [w])


def build_graph(tree: AnnotatedTree, *, extra_rays: int = 0, seed: int = 0) -> ResolutionGraph:
    """Resolution graph of a tree; minimal subdivisions by default.

    With ``extra_rays`` > 0, that many random rays are inserted per
    bamboo, deterministically from ``seed``.  Inserted divisors sit on
    chain interiors, so their open strata have Euler characteristic zero
    and all derived invariants must be unchanged.
    """
    rng = random.Random(seed)
    b = _Builder()
    principal_by_bamboo = {}
    for bam in tree.bamboos:
        principal = [PrimitiveVector(f.a, f.b) for f in bam.faces]
        sub = admissible_subdivision(principal)
        for _ in range(extra_rays):
            sub = _random_refine(sub, rng)
        alphas = [bam.base_mult] + [f.alpha for f in bam.faces]
        betas = [bam.beta0] + [f.beta for f in bam.faces]
        pids = b.chain(bam.path, sub, principal, alphas, betas, bam.base_nu)
        principal_by_bamboo[bam.path] = pids
        if bam.path:
            parent_path, (i, _) = bam.path[:-1], bam.path[-1]
            first = b.chains[-1].node_ids[0]
            b.edges.append((principal_by_bamboo[parent_path][i], first))
        for i, f in enumerate(bam.faces):
            for cls in f.classes:
                if isinstance(cls, Leaf):
                    b.branch(pids[i])
    return b.finish()


def build_graph_nondegenerate(faces, *, extra_rays: int = 0, seed: int = 0) -> ResolutionGraph:
    """Resolution graph of a Newton-nondegenerate face list (a, b, r)."""
    return build_graph(annotate_faces(faces), extra_rays=extra_rays, seed=seed)


def definitional_zeta(graph: ResolutionGraph) -> RationalFunction:
    """Stratified sum over the graph; the ground truth the closed forms
    are tested against.  Strata consisting of a branch alone are skipped:
    they do not lie over the origin (and carry chi zero anyway)."""
    nodes = graph.nodes
    terms = []
    for n in nodes:
        if n.kind == "exceptional" and n.chi:
            terms.append((n.chi, (1,), [(n.mult, n.nu)]))
    for u, v in graph.edges:
        terms.append((1, (1,), [(nodes[u].mult, nodes[u].nu),
                                (nodes[v].mult, nodes[v].nu)]))
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


def euler_characteristic_total(graph: ResolutionGraph) -> int:
    """chi of the exceptional set: open vertex strata plus all the
    intersection points (edges of either kind).  For a tree of m lines
    this must come out to m + 1."""
    total = sum(n.chi for n in graph.nodes if n.kind == "exceptional")
    return total + len(graph.edges)
