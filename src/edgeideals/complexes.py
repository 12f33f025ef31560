"""Simplicial complexes on bitmask ground sets, with the Stanley-Reisner
dictionary and combinatorial Alexander duality.

The empty complex {emptyset} and the void complex (no faces at all) are
distinct: the former is an empty facet list with is_void clear, the latter
has is_void set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitsets import bits, compress, submasks
from .graphs import Graph, maximal_independent_sets
from .ideals import SquarefreeIdeal, minimal_hitting_sets, squarefree_ideal
from .limits import check


@dataclass(frozen=True)
class SimplicialComplex:
    ground: int
    facets: tuple[int, ...]
    is_void: bool = False

    @property
    def full(self) -> int:
        return (1 << self.ground) - 1

    def effective_facets(self) -> tuple[int, ...]:
        """Facet list with {emptyset} spelled out as the single facet 0."""
        if self.is_void:
            return ()
        return self.facets if self.facets else (0,)

    def has_face(self, f: int) -> bool:
        if self.is_void:
            return False
        return any(f & fc == f for fc in self.effective_facets())

    def faces(self) -> list[int]:
        return sorted({f for fc in self.effective_facets() for f in submasks(fc)})


def simplicial_complex(ground: int, faces, is_void: bool = False) -> SimplicialComplex:
    """Normalise an arbitrary face list to the maximal antichain.  A face
    list of just the empty set collapses to the {emptyset} representation."""
    if ground < 0:
        raise ValueError("ground set size must be non-negative")
    check("bitmask", ground)
    faces = list(faces)
    if is_void:
        if faces:
            raise ValueError("the void complex has no faces")
        return SimplicialComplex(ground, (), True)
    maximal: list[int] = []
    for f in sorted(set(faces), key=lambda x: (-x.bit_count(), x)):
        if f >> ground:
            raise ValueError("face leaves the ground set")
        if not any(f & k == f for k in maximal):
            maximal.append(f)
    if maximal == [0]:
        maximal = []
    return SimplicialComplex(ground, tuple(sorted(maximal)))


def independence_complex(g: Graph) -> SimplicialComplex:
    """Faces are the independent vertex sets of g."""
    return simplicial_complex(g.n, maximal_independent_sets(g))


def _shrink(ground: int, facets, removed: int) -> tuple[SimplicialComplex, tuple[int, ...]]:
    keep = ((1 << ground) - 1) & ~removed
    labels = tuple(bits(keep))
    shrunk = [compress(f, keep) for f in facets]
    return simplicial_complex(len(labels), shrunk), labels


def link(c: SimplicialComplex, f: int) -> tuple[SimplicialComplex, tuple[int, ...]]:
    """Link of the face f, on the ground set minus f's vertices.  Returns
    (complex, labels) with labels[new] = old ground element."""
    if not c.has_face(f):
        raise ValueError("link of a non-face")
    rel = [fc & ~f for fc in c.effective_facets() if fc & f == f]
    return _shrink(c.ground, rel, f)


def deletion(c: SimplicialComplex, f: int) -> tuple[SimplicialComplex, tuple[int, ...]]:
    """Faces disjoint from f, on the ground set minus f's vertices."""
    if f >> c.ground:
        raise ValueError("face leaves the ground set")
    if c.is_void:
        keep = c.full & ~f
        return SimplicialComplex(keep.bit_count(), (), True), tuple(bits(keep))
    rel = [fc & ~f for fc in c.effective_facets()]
    return _shrink(c.ground, rel, f)


def minimal_nonfaces(c: SimplicialComplex) -> SquarefreeIdeal:
    """Stanley-Reisner generators: the minimal subsets that are not faces.
    Full simplex -> zero ideal; void complex -> unit ideal."""
    if c.is_void:
        return SquarefreeIdeal(c.ground, (0,))
    compl = [c.full & ~fc for fc in c.effective_facets()]
    return squarefree_ideal(c.ground, minimal_hitting_sets(compl))


def _facet_complements(c: SimplicialComplex) -> SquarefreeIdeal:
    """Alexander dual of the Stanley-Reisner ideal: the facet complements
    (for Ind(G), the cover ideal). Void complex -> zero ideal."""
    return squarefree_ideal(c.ground, (c.full & ~f for f in c.effective_facets()))


def complex_from_ideal(ideal: SquarefreeIdeal) -> SimplicialComplex:
    """Inverse dictionary: faces are the subsets containing no generator.
    The unit ideal maps to the void complex (not an error), the zero ideal
    to the full simplex."""
    if ideal.is_unit:
        return SimplicialComplex(ideal.nvars, (), True)
    full = (1 << ideal.nvars) - 1
    if ideal.is_zero:
        return simplicial_complex(ideal.nvars, [full])
    facets = [full & ~h for h in minimal_hitting_sets(ideal.gens)]
    return simplicial_complex(ideal.nvars, facets)


def alexander_dual(c: SimplicialComplex) -> SimplicialComplex:
    """Combinatorial Alexander dual: F is a face iff the complement of F is
    a non-face of c.  Facets are the complements of the minimal non-faces."""
    nf = minimal_nonfaces(c)
    if nf.is_zero:
        return SimplicialComplex(c.ground, (), True)
    return simplicial_complex(c.ground, [c.full & ~m for m in nf.gens])
