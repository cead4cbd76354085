"""Exact invariants of plane curve singularities.

Given either the decorated resolution tree of a curve germ or a
Newton-nondegenerate polynomial, this package computes the local
topological zeta function, its poles with orders, the monodromy zeta
function and the characteristic polynomial of the monodromy on first
cohomology, and checks that every pole exponentiates to a monodromy
eigenvalue.  Every closed form is backed by an independent
resolution-graph oracle; all arithmetic is exact.
"""

from .equitree import (AnnotatedBamboo, AnnotatedFace, AnnotatedTree, Bamboo,
                       Diagnostic, Face, InvalidTreeError, LEAF, Leaf,
                       TreeJSONError, annotate, annotate_faces, tree_from_json,
                       tree_to_json, validate)
from .lattice import (PrimitiveVector, Subdivision, admissible_subdivision,
                      det, insert_rays, minimal_regular_refinement)
from .monodromy import (CharPoly, CycloProduct, EigenvalueWitness, PoleCheck,
                        acampo_from_graph, characteristic_poly,
                        conjecture_report, monodromy_zeta, root_multiplicity)
from .newton import (DegenerateCurveError, DegenerateWitness, NewtonFace,
                     ParseError, newton_faces, nondegeneracy_check,
                     parse_poly, poly_to_str, to_face_specs)
from .resolution import (ChainViolation, DivisorNode, ResolutionGraph,
                         build_graph, build_graph_nondegenerate,
                         chain_determinant_check, definitional_zeta)
from .zeta import (Candidate, Pole, RationalFunction, candidate_poles, poles,
                   rf_sum, zeta_general, zeta_nondegenerate)

__version__ = "0.1.0"
