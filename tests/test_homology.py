import random
from itertools import combinations
from math import comb

import pytest

import _oracles as oracle
from edgeideals import (GF2, GF3, Q, complement, dual_ideal, edge_ideal,
                        enumerate_graphs, face_counts, family, hochster_betti,
                        independence_complex, minimal_nonfaces, parse_field,
                        reduced_homology_ranks, reg_pd, simplicial_complex,
                        squarefree_ideal)
from edgeideals import homology
from edgeideals.bitsets import mask_of, submasks


def test_homology_of_standard_complexes():
    hollow_triangle = simplicial_complex(3, [0b011, 0b101, 0b110])
    assert reduced_homology_ranks(hollow_triangle) == {-1: 0, 0: 0, 1: 1}

    two_points = simplicial_complex(2, [0b01, 0b10])
    assert reduced_homology_ranks(two_points) == {-1: 0, 0: 1}

    empty = simplicial_complex(3, [0])
    assert reduced_homology_ranks(empty) == {-1: 1}

    void = simplicial_complex(3, [], is_void=True)
    assert reduced_homology_ranks(void) == {}

    full = simplicial_complex(3, [0b111])
    assert reduced_homology_ranks(full) == {-1: 0, 0: 0, 1: 0, 2: 0}

    sphere = simplicial_complex(4, [0b0111, 0b1011, 0b1101, 0b1110])
    assert reduced_homology_ranks(sphere) == {-1: 0, 0: 0, 1: 0, 2: 1}
    assert reduced_homology_ranks(sphere, Q) == {-1: 0, 0: 0, 1: 0, 2: 1}


# Six-vertex triangulation of the real projective plane: its first and
# second homology vanish over the rationals and over GF(3) but not over
# GF(2), which pins down both the field plumbing and the boundary signs.
_PROJECTIVE_PLANE = [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
                     (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)]


def test_projective_plane_triangulation_is_well_formed():
    assert len(_PROJECTIVE_PLANE) == 10
    edge_use = {}
    for tri in _PROJECTIVE_PLANE:
        for e in combinations(tri, 2):
            edge_use[e] = edge_use.get(e, 0) + 1
    assert len(edge_use) == 15
    assert all(count == 2 for count in edge_use.values())
    # Euler characteristic 6 - 15 + 10 = 1
    assert 6 - len(edge_use) + len(_PROJECTIVE_PLANE) == 1


def test_projective_plane_homology_depends_on_characteristic():
    c = simplicial_complex(6, [mask_of(t) for t in _PROJECTIVE_PLANE])
    assert reduced_homology_ranks(c, GF2) == {-1: 0, 0: 0, 1: 1, 2: 1}
    assert reduced_homology_ranks(c, Q) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert reduced_homology_ranks(c, GF3) == {-1: 0, 0: 0, 1: 0, 2: 0}


def test_projective_plane_betti_table_depends_on_characteristic():
    ideal = minimal_nonfaces(
        simplicial_complex(6, [mask_of(t) for t in _PROJECTIVE_PLANE]))
    assert hochster_betti(ideal, GF2).triples() == [
        (0, 0, 1), (1, 3, 10), (2, 4, 15), (3, 5, 6), (3, 6, 1), (4, 6, 1)]
    for field in (GF3, Q):
        assert hochster_betti(ideal, field).triples() == [
            (0, 0, 1), (1, 3, 10), (2, 4, 15), (3, 5, 6)]


def test_face_counts():
    c = independence_complex(family("cycle:4"))
    assert face_counts(c) == {-1: 1, 0: 4, 1: 2}
    assert face_counts(simplicial_complex(2, [], is_void=True)) == {}


def test_euler_poincare(graphs_through_5):
    for g in graphs_through_5:
        c = independence_complex(g)
        faces = face_counts(c)
        for field in (GF2, Q):
            ranks = reduced_homology_ranks(c, field)
            chi_faces = sum((-1) ** d * k for d, k in faces.items())
            chi_ranks = sum((-1) ** d * r for d, r in ranks.items())
            assert chi_faces == chi_ranks


def test_hochster_frozen_tables():
    k2 = hochster_betti(edge_ideal(family("complete:2")))
    assert k2.entries == {(0, 0): 1, (1, 2): 1}
    assert k2.field_tag == "gf2"

    c4 = hochster_betti(edge_ideal(family("cycle:4")))
    assert c4.entries == {(0, 0): 1, (1, 2): 4, (2, 3): 4, (3, 4): 1}
    assert c4.totals() == {0: 1, 1: 4, 2: 4, 3: 1}
    assert (c4.reg(), c4.pd()) == (1, 3)

    c5 = hochster_betti(edge_ideal(family("cycle:5")))
    assert c5.totals() == {0: 1, 1: 5, 2: 5, 3: 1}
    assert (c5.reg(), c5.pd()) == (2, 3)

    zero = hochster_betti(squarefree_ideal(3, []))
    assert zero.entries == {(0, 0): 1}
    assert (zero.reg(), zero.pd()) == (0, 0)


def test_hochster_rejects_bad_input():
    with pytest.raises(ValueError):
        hochster_betti(squarefree_ideal(2, [0]))
    with pytest.raises(ValueError):
        hochster_betti(squarefree_ideal(13, [0b11]))


def test_complete_graph_betti_closed_form():
    for n in range(3, 7):
        table = hochster_betti(edge_ideal(family(f"complete:{n}")))
        expect = {(0, 0): 1}
        for i in range(1, n):
            expect[(i, i + 1)] = i * comb(n, i + 1)
        assert table.entries == expect


def test_cross_field_agreement(graphs_through_5):
    for g in graphs_through_5:
        ideal = edge_ideal(g)
        t2 = hochster_betti(ideal, GF2)
        t3 = hochster_betti(ideal, GF3)
        tq = hochster_betti(ideal, Q)
        assert t2.entries == t3.entries == tq.entries


def test_large_prime_field_matches_rationals():
    ideal = edge_ideal(family("cycle:5"))
    big = parse_field("gf1009")
    assert hochster_betti(ideal, big).entries == hochster_betti(ideal, Q).entries


def test_parse_field():
    assert parse_field("gf2") == GF2
    assert parse_field("GF3") == GF3
    assert parse_field(" q ") == Q
    assert parse_field("rationals") == Q
    assert parse_field("gf7").tag == "gf7"
    for bad in ("gf4", "gf1", "gf0", "z5", "gfx", "gf2147483659"):
        with pytest.raises(ValueError):
            parse_field(bad)


def test_reg_pd_frozen():
    assert reg_pd(family("cycle:4")) == (1, 3)
    assert reg_pd(family("complete:2")) == (1, 1)
    assert reg_pd(family("cycle:5")) == (2, 3)
    assert reg_pd(family("path:3")) == (1, 2)
    assert reg_pd(family("edgeless:3")) == (0, 0)


def test_submasks_ascend_through_every_subset():
    assert list(submasks(0)) == [0]
    assert list(submasks(0b1011)) == [0b0000, 0b0001, 0b0010, 0b0011,
                                       0b1000, 0b1001, 0b1010, 0b1011]


def test_hochster_matches_transversal_oracle():
    # every class on at most 6 vertices, connected or not; the cover ideal
    # of an edgeless graph is the unit ideal and has no Betti table
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected_only=False):
            ideals = [edge_ideal(g)]
            if g.edge_count():
                ideals.append(dual_ideal(ideals[0]))
            for ideal in ideals:
                for field in (GF2, GF3, Q):
                    expect = oracle.hochster_betti_by_transversals(ideal, field)
                    got = hochster_betti(ideal, field)
                    assert got.entries == expect.entries, (g, ideal, field)
                    assert got.field_tag == expect.field_tag


def _nonzero_entries(pass_):
    out = {}
    for s, ranks in pass_:
        nonzero = {d: r for d, r in ranks.items() if r}
        if nonzero:
            out[s] = nonzero
    return out


def _random_ideals(count, seed):
    # mixed generator degrees, some of them 1, so that the fold rule is not
    # the graph condition
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 8)
        yield squarefree_ideal(n, [
            mask_of(rng.sample(range(n), min(n, rng.choice((1, 2, 2, 3, 3, 4)))))
            for _ in range(rng.randint(1, 10))])


def test_restriction_pass_matches_unreduced_oracle():
    rp2 = minimal_nonfaces(
        simplicial_complex(6, [mask_of(t) for t in _PROJECTIVE_PLANE]))
    ideals = [rp2, squarefree_ideal(7, rp2.gens), *_random_ideals(60, 5)]
    for ideal in ideals:
        for field in (GF2, GF3, Q):
            expect = _nonzero_entries(
                oracle.restriction_homology_unreduced(ideal, field))
            got = list(homology.restriction_homology(ideal, field))
            assert dict(got) == expect, (ideal, field)
            assert [s for s, _ in got] == sorted(expect)
    # the 12-vertex graphs that analyze is benchmarked on
    for spec in ("path:11", "cycle:12", "pendant_cycle:5", "capped_cycle:5",
                 "complete:12", "dtree:1,10,0", "dtree:2,9,0", "dtree:3,8,0",
                 "co-dtree:1,10,0", "co-dtree:2,9,0", "co-dtree:3,8,0"):
        g = family(spec.removeprefix("co-"))
        ideal = edge_ideal(complement(g) if spec.startswith("co-") else g)
        expect = _nonzero_entries(oracle.restriction_homology_unreduced(ideal, GF2))
        assert dict(homology.restriction_homology(ideal, GF2)) == expect, spec


def test_restriction_pass_runs_the_rank_kernel_on_few_subsets(monkeypatch):
    calls = []
    kernel = homology._ranks_from_faces

    def counting(faces, field):
        calls.append(1)
        return kernel(faces, field)

    monkeypatch.setattr(homology, "_ranks_from_faces", counting)
    table = hochster_betti(edge_ideal(family("path:11")))
    assert table.reg() == 4
    # 4096 subsets; all but a few are cones or fold onto a smaller subset
    assert len(calls) < 200
