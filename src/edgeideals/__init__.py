"""Edge ideals of graphs: exact Betti numbers, regularity and projective
dimension, combinatorial certificates, and a batch verification harness."""

from .betti import BettiTable
from .complexes import (SimplicialComplex, alexander_dual, complex_from_ideal,
                        independence_complex, minimal_nonfaces,
                        simplicial_complex)
from .graphs import (DTreeCertificate, Graph, build_graph, canonical_form,
                     complement, enumerate_graphs, family, is_chordal,
                     is_connected, maximal_independent_sets, recognize_d_tree,
                     validate_d_tree_certificate, whisker)
from .harness import CHECKS, analyze, dtree_family_specs, verify_theorems
from .homology import (GF2, GF3, Q, FieldChoice, hochster_betti, parse_field,
                       reduced_homology_ranks)
from .ideals import (DualDecompositionReport, LinearQuotientCertificate,
                     SquarefreeIdeal, betti_from_certificate, dual_ideal,
                     edge_ideal, linear_quotient_search, minimal_hitting_sets,
                     squarefree_ideal, validate_linear_quotients,
                     verify_dual_decomposition)
from .invariants import (InvariantReport, compute_invariants,
                         induced_matching_number, is_triangle_free,
                         matching_number, path_packing_number, whisker_number)
from .structure import (ShellingCertificate, VDLeaf, VDNode, reducing_vertex,
                        root_shedding_vertex, shellable, shelling_bruteforce,
                        validate_shelling, validate_vertex_decomposition,
                        vertex_decomposable)

__version__ = "0.1.0"
