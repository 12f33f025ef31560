import random

import pytest

import _oracles as oracle
from edgeideals import (alexander_dual, complex_from_ideal, dual_ideal,
                        edge_ideal, family, independence_complex,
                        minimal_nonfaces, simplicial_complex,
                        squarefree_ideal)
from edgeideals.bitsets import bits
from edgeideals.complexes import _facet_complements


def _faces_as_sets(c):
    return {frozenset(bits(f)) for f in c.faces()}


def test_independence_complex_frozen():
    assert independence_complex(family("cycle:4")).facets == (0b0101, 0b1010)
    assert independence_complex(family("complete:3")).facets == (1, 2, 4)
    full = independence_complex(family("edgeless:3"))
    assert full.facets == (7,)


def test_independence_complex_matches_bruteforce(graphs_through_5):
    for g in graphs_through_5:
        c = independence_complex(g)
        got = sorted(tuple(sorted(bits(f))) for f in c.facets)
        assert got == oracle.maximal_independent_sets(g)


def test_normalisation_keeps_maximal_faces_only():
    c = simplicial_complex(3, [0b011, 0b001, 0b110, 0])
    assert c.facets == (3, 6)
    assert 0b010 in c.faces() and 0b101 not in c.faces()
    assert sorted(c.faces()) == [0, 1, 2, 3, 4, 6]


def test_empty_and_void_complexes_are_distinct():
    # no faces give the void complex, the empty face alone gives {emptyset}
    for n in range(5):
        empty = simplicial_complex(n, [0])
        assert not empty.is_void
        assert empty.facets == (0,)
        assert 0 in empty.faces()
        assert empty.faces() == [0]

        void = simplicial_complex(n, [])
        assert void.is_void
        assert void.facets == ()
        assert 0 not in void.faces()
        assert void.faces() == []


def test_complex_rejects_bad_ground():
    with pytest.raises(ValueError):
        simplicial_complex(65, [])
    with pytest.raises(ValueError):
        simplicial_complex(2, [0b100])


def test_minimal_nonfaces_of_independence_complex_is_edge_ideal(graphs_through_5):
    for g in graphs_through_5:
        assert minimal_nonfaces(independence_complex(g)) == edge_ideal(g)


def test_minimal_nonfaces_matches_bruteforce(graphs_through_5):
    for g in graphs_through_5:
        c = independence_complex(g)
        got = sorted(tuple(sorted(bits(m))) for m in minimal_nonfaces(c).gens)
        assert got == oracle.minimal_nonfaces(c)


def test_stanley_reisner_round_trip(graphs_through_5):
    for g in graphs_through_5:
        c = independence_complex(g)
        assert complex_from_ideal(minimal_nonfaces(c)) == c

    ideal = squarefree_ideal(4, [0b0011, 0b1100])
    assert minimal_nonfaces(complex_from_ideal(ideal)) == ideal


def test_dictionary_edge_cases():
    full = simplicial_complex(3, [0b111])
    assert minimal_nonfaces(full).is_zero
    void = simplicial_complex(3, [])
    assert minimal_nonfaces(void).is_unit

    assert complex_from_ideal(squarefree_ideal(3, [])) == full
    assert complex_from_ideal(squarefree_ideal(3, [0])) == void
    single = complex_from_ideal(squarefree_ideal(2, [0b01]))
    assert single.facets == (0b10,)


def test_alexander_dual_frozen():
    dual = alexander_dual(independence_complex(family("cycle:4")))
    assert dual.facets == (3, 6, 9, 12)


def test_alexander_dual_matches_bruteforce(graphs_through_5):
    for g in graphs_through_5:
        if g.n > 4:
            continue
        c = independence_complex(g)
        dual = alexander_dual(c)
        faces = oracle.alexander_dual_faces(c)
        got = sorted(tuple(sorted(bits(f))) for f in dual.facets)
        assert got == oracle.maximal_sets(faces)


def test_alexander_dual_is_involution(graphs_through_5):
    for g in graphs_through_5:
        c = independence_complex(g)
        assert alexander_dual(alexander_dual(c)) == c


def test_alexander_dual_extremes():
    full = simplicial_complex(3, [0b111])
    assert alexander_dual(full).is_void
    void = simplicial_complex(3, [])
    assert alexander_dual(void) == full
    empty = simplicial_complex(3, [0])
    boundary = alexander_dual(empty)
    assert boundary.facets == (0b011, 0b101, 0b110)


def _random_complexes():
    """Void and {emptyset} on 0-3 vertices, then 300 seeded random complexes
    on 1-7 vertices, each also coned over a random apex. The random face
    lists are mostly non-flag, and now and then just the empty face."""
    rng = random.Random(7)
    cases = [simplicial_complex(k, []) for k in range(4)]
    cases += [simplicial_complex(k, [0]) for k in range(4)]
    for _ in range(300):
        ground = rng.randint(1, 7)
        faces = [rng.getrandbits(ground) for _ in range(rng.randint(1, 6))]
        apex = 1 << rng.randrange(ground)
        cases += [simplicial_complex(ground, faces),
                  simplicial_complex(ground, [f | apex for f in faces])]
    return cases


def test_facet_complements_are_the_dual_of_the_stanley_reisner_ideal():
    # minimal_nonfaces is itself the dual of the facet complements, so this
    # checks that the dual undoes itself; equal tuples mean the same
    # generator order, so linear-quotient searches agree too
    for c in _random_complexes():
        assert _facet_complements(c) == dual_ideal(minimal_nonfaces(c))


def _sets(masks):
    return sorted(tuple(sorted(bits(m))) for m in masks)


def test_dictionary_matches_bruteforce_on_random_complexes():
    for c in _random_complexes():
        nonfaces = minimal_nonfaces(c)
        assert _sets(nonfaces.gens) == oracle.minimal_nonfaces(c)
        assert _sets(alexander_dual(c).facets) == \
            oracle.maximal_sets(oracle.alexander_dual_faces(c))
        for ideal in (nonfaces, _facet_complements(c)):
            assert _faces_as_sets(complex_from_ideal(ideal)) == \
                oracle.ideal_faces(ideal.nvars, ideal.gens)
