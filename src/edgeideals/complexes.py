"""Simplicial complexes on bitmask ground sets, with the Stanley-Reisner
dictionary and combinatorial Alexander duality.

A complex is its facets, kept as a maximal antichain. The void complex (no
faces at all) has no facets, (); the empty complex {emptyset} has the single
facet emptyset, (0,). The dictionary is one Berge transversal call,
`dual_ideal`, between facet complements and minimal non-faces, and it maps
the degenerate complexes without special cases: void to the unit ideal,
{emptyset} to the ideal of all variables, the full simplex to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitsets import submasks
from .graphs import Graph, maximal_independent_sets
from .ideals import SquarefreeIdeal, dual_ideal, squarefree_ideal
from .limits import check


@dataclass(frozen=True)
class SimplicialComplex:
    ground: int
    facets: tuple[int, ...]

    @property
    def full(self) -> int:
        return (1 << self.ground) - 1

    @property
    def is_void(self) -> bool:
        return not self.facets

    def faces(self) -> list[int]:
        return sorted({f for fc in self.facets for f in submasks(fc)})


def simplicial_complex(ground: int, faces) -> SimplicialComplex:
    """Normalise an arbitrary face list to the maximal antichain.  No faces
    give the void complex, the face list [0] the empty complex {emptyset}."""
    if ground < 0:
        raise ValueError("ground set size must be non-negative")
    check("bitmask", ground)
    maximal: list[int] = []
    for f in sorted(set(faces), key=lambda x: (-x.bit_count(), x)):
        if f >> ground:
            raise ValueError("face leaves the ground set")
        if not any(f & k == f for k in maximal):
            maximal.append(f)
    return SimplicialComplex(ground, tuple(sorted(maximal)))


def independence_complex(g: Graph) -> SimplicialComplex:
    """Faces are the independent vertex sets of g."""
    return simplicial_complex(g.n, maximal_independent_sets(g))


def _facet_complements(c: SimplicialComplex) -> SquarefreeIdeal:
    """Alexander dual of the Stanley-Reisner ideal: the facet complements
    (for Ind(G), the cover ideal)."""
    return squarefree_ideal(c.ground, (c.full & ~f for f in c.facets))


def minimal_nonfaces(c: SimplicialComplex) -> SquarefreeIdeal:
    """Stanley-Reisner generators: the minimal subsets that are not faces,
    the minimal transversals of the facet complements."""
    return dual_ideal(_facet_complements(c))


def complex_from_ideal(ideal: SquarefreeIdeal) -> SimplicialComplex:
    """Inverse dictionary: faces are the subsets containing no generator,
    so the facets are the complements of the minimal transversals."""
    full = (1 << ideal.nvars) - 1
    return simplicial_complex(ideal.nvars, [full & ~h for h in dual_ideal(ideal).gens])


def alexander_dual(c: SimplicialComplex) -> SimplicialComplex:
    """Combinatorial Alexander dual: F is a face iff the complement of F is
    a non-face of c.  Facets are the complements of the minimal non-faces."""
    return complex_from_ideal(_facet_complements(c))
